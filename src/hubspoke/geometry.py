"""Exact integer-grid geometry for ambient simplices and permissible spaces.

Portfolios live on the standard simplex.  Everything here is discretized:
a point is a tuple of non-negative integer holdings summing to the
resolution N, so weights are exact rationals k/N and constraint
evaluation never touches floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Hard caps on problem size: requests beyond this are rejected outright
# rather than silently sampled.
MAX_DIMENSION = 6
MAX_RESOLUTION = 400

SENSES = ("<=", "==", ">=")

FLOAT_TOL = 1e-9


class InvalidArgument(ValueError):
    """Raised when inputs violate a documented precondition."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    if isinstance(x, str):
        return Fraction(x)
    raise InvalidArgument(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True, order=True)
class GridPoint:
    """A lattice portfolio: integer holdings summing to the resolution."""

    coords: tuple[int, ...]
    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise InvalidArgument("resolution must be a positive integer")
        if any(c < 0 for c in self.coords):
            raise InvalidArgument(f"negative holding in {self.coords}")
        if sum(self.coords) != self.resolution:
            raise InvalidArgument(
                f"holdings {self.coords} do not sum to resolution {self.resolution}"
            )

    @property
    def dimension(self) -> int:
        """Simplex dimension n (one less than the number of assets)."""
        return len(self.coords) - 1

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.resolution) for c in self.coords)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.float64) / self.resolution

    def __str__(self):
        return "(" + ", ".join(f"{c}/{self.resolution}" for c in self.coords) + ")"


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . weights  SENSE  bound, evaluated exactly in rationals."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction
    sense: str = "<="

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))
        object.__setattr__(self, "bound", _as_fraction(self.bound))
        if self.sense not in SENSES:
            raise InvalidArgument(f"sense must be one of {SENSES}, got {self.sense!r}")

    def satisfied_by(self, point: GridPoint) -> bool:
        if len(self.coeffs) != len(point.coords):
            raise InvalidArgument(
                f"constraint has {len(self.coeffs)} coefficients, "
                f"point has {len(point.coords)} coordinates"
            )
        # Clear the 1/N denominator: compare N*lhs against N*bound in Z.
        lhs = sum(c * k for c, k in zip(self.coeffs, point.coords))
        rhs = self.bound * point.resolution
        if self.sense == "<=":
            return lhs <= rhs
        if self.sense == ">=":
            return lhs >= rhs
        return lhs == rhs

    def satisfied_by_rows(self, V: np.ndarray, tol: float = FLOAT_TOL) -> np.ndarray:
        """Tolerance check for continuous (off-lattice) weight vectors, one per row.

        Each row's left side is its own dot product, taken by the kernel
        np.dot uses for a single vector, so a row gets the verdict it
        would get alone.
        """
        lhs = (V[:, None, :] @ self.coeff_array())[:, 0]
        rhs = float(self.bound)
        if self.sense == "<=":
            return lhs <= rhs + tol
        if self.sense == ">=":
            return lhs >= rhs - tol
        return np.abs(lhs - rhs) <= tol

    def coeff_array(self) -> np.ndarray:
        return np.asarray([float(c) for c in self.coeffs], dtype=np.float64)

    def to_dict(self) -> dict:
        return {
            "coeffs": [str(c) for c in self.coeffs],
            "bound": str(self.bound),
            "sense": "=" if self.sense == "==" else self.sense,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearConstraint":
        sense = d.get("sense", "<=")
        if sense == "=":
            sense = "=="
        return cls(
            coeffs=tuple(_as_fraction(c) for c in d["coeffs"]),
            bound=_as_fraction(d["bound"]),
            sense=sense,
        )

    def __str__(self):
        sense = "=" if self.sense == "==" else self.sense
        return ",".join(str(c) for c in self.coeffs) + sense + str(self.bound)


@dataclass(frozen=True)
class LinearFunctional:
    """Exact linear functional on portfolios, e.g. a fee map in bps."""

    coeffs: tuple[Fraction, ...]
    units: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    def __call__(self, point: GridPoint) -> Fraction:
        return eval_functional(self, point)

    def value_at_vector(self, v: Sequence[float]) -> float:
        return float(np.dot(self.coeff_array(), np.asarray(v, dtype=float)))

    def coeff_array(self) -> np.ndarray:
        return np.asarray([float(c) for c in self.coeffs], dtype=np.float64)

    def to_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs], "units": self.units}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearFunctional":
        return cls(tuple(_as_fraction(c) for c in d["coeffs"]), d.get("units", ""))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative ints summing to `total`, ascending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class LatticeSpace:
    """A permissible portfolio space: lattice points of a closed region of a simplex.

    Built either from linear constraints (the usual case: intersections of
    half-spaces with the simplex, which are closed) or from an explicit
    finite point set (for registered menus, images of maps, and fixtures
    such as a lattice with a boundary point removed -- finite sets are
    closed, so these are valid objects too).
    """

    n: int
    N: int
    constraints: tuple[LinearConstraint, ...]
    points: tuple[GridPoint, ...]
    explicit: bool = False

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {p.coords: i for i, p in enumerate(self.points)}

    @cached_property
    def holdings(self) -> np.ndarray:
        """(P, n+1) int64 integer holdings, rows in lexicographic point order."""
        return np.asarray([p.coords for p in self.points],
                          dtype=np.int64).reshape(-1, self.n + 1)

    @cached_property
    def array(self) -> np.ndarray:
        """(P, n+1) float weights, rows in lexicographic point order."""
        return self.holdings / self.N

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def index_of(self, p: GridPoint) -> int:
        try:
            return self._index[p.coords]
        except KeyError:
            raise InvalidArgument(f"{p} is not a point of this space") from None

    def contains_vector(self, v: Sequence[float], tol: float = FLOAT_TOL) -> bool:
        """Membership test for one continuous weight vector (see contains_rows)."""
        return bool(self.contains_rows(np.asarray(v, dtype=float)[None], tol)[0])

    def contains_rows(self, V: np.ndarray, tol: float = FLOAT_TOL) -> np.ndarray:
        """Membership of continuous weight vectors, one per row of V: (M,) bool.

        For constraint-defined spaces a row must have no coordinate below
        -tol, sum to 1 within tol and satisfy every constraint within tol;
        for explicit spaces it must lie within tol of a member point in
        every coordinate.  Input that is not (M, n+1) gives all False.

        A row's verdict does not depend on the other rows: its sum, its
        constraint dot products (the kernel np.dot uses for one vector) and
        its comparisons are the ones a lone vector gets, bit for bit, so
        contains_rows(V)[i] == contains_vector(V[i]) always.
        """
        V = np.ascontiguousarray(V, dtype=float)
        if V.ndim != 2 or V.shape[1] != self.n + 1:
            return np.zeros(len(V), dtype=bool)
        if self.explicit:
            out = np.zeros(len(V), dtype=bool)
            P = self.array
            step = max(1, 2**20 // max(1, P.size))   # ~2^20 differences per block
            for start in range(0, len(V), step):
                block = V[start:start + step]
                near = np.abs(P[None, :, :] - block[:, None, :]) <= tol
                out[start:start + step] = near.all(axis=2).any(axis=1)
            return out
        # Negated comparisons, so that a NaN sum fails neither simplex test.
        out = ~np.any(V < -tol, axis=1) & ~(np.abs(V.sum(axis=1) - 1.0) > tol)
        for c in self.constraints:
            out &= c.satisfied_by_rows(V, tol)
        return out

    def to_dict(self) -> dict:
        d = {"n": self.n, "N": self.N,
             "constraints": [c.to_dict() for c in self.constraints]}
        if self.explicit:
            d["points"] = [list(p.coords) for p in self.points]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LatticeSpace":
        constraints = [LinearConstraint.from_dict(c) for c in d.get("constraints", [])]
        if "points" in d:
            pts = [GridPoint(tuple(int(c) for c in row), d["N"]) for row in d["points"]]
            return cls.from_points(d["n"], d["N"], pts, constraints)
        space = enumerate_simplex(d["n"], d["N"])
        return restrict(space, constraints) if constraints else space

    @classmethod
    def from_points(cls, n: int, N: int,
                    points: Iterable[GridPoint],
                    constraints: Iterable[LinearConstraint] = ()) -> "LatticeSpace":
        pts = sorted(set(points))
        for p in pts:
            if p.dimension != n or p.resolution != N:
                raise InvalidArgument(f"{p} does not live on the ({n}, {N}) lattice")
        return cls(n=n, N=N, constraints=tuple(constraints),
                   points=tuple(pts), explicit=True)

    def describe(self) -> str:
        cons = "; ".join(str(c) for c in self.constraints) or "none"
        return f"Delta^{self.n} at 1/{self.N} ({len(self.points)} points, constraints: {cons})"


def expected_simplex_size(n: int, N: int) -> int:
    """Stars-and-bars count of lattice points of Delta^n at resolution N."""
    return math.comb(N + n, n)


def enumerate_simplex(n: int, N: int) -> LatticeSpace:
    """Full ambient lattice of Delta^n at step 1/N, in lexicographic order."""
    if n < 0:
        raise InvalidArgument("dimension must be non-negative")
    if N < 1:
        raise InvalidArgument("resolution must be a positive integer")
    if n > MAX_DIMENSION or N > MAX_RESOLUTION:
        raise InvalidArgument(
            f"requested lattice (n={n}, N={N}) exceeds the supported cap "
            f"(n<={MAX_DIMENSION}, N<={MAX_RESOLUTION})"
        )
    points = tuple(GridPoint(c, N) for c in _compositions(N, n + 1))
    return LatticeSpace(n=n, N=N, constraints=(), points=points)


def restrict(space: LatticeSpace, constraints: Iterable[LinearConstraint]) -> LatticeSpace:
    """Intersect a space with further linear constraints (exact arithmetic)."""
    constraints = tuple(constraints)
    for c in constraints:
        if len(c.coeffs) != space.n + 1:
            raise InvalidArgument(
                f"constraint {c} has {len(c.coeffs)} coefficients but the "
                f"space has {space.n + 1} assets"
            )
    kept = tuple(p for p in space.points
                 if all(c.satisfied_by(p) for c in constraints))
    return LatticeSpace(
        n=space.n, N=space.N,
        constraints=space.constraints + constraints,
        points=kept, explicit=space.explicit,
    )


def contains(space: LatticeSpace, p: GridPoint) -> bool:
    """Exact membership of a grid point in a space."""
    if p.resolution != space.N or p.dimension != space.n:
        raise InvalidArgument(
            f"point ({p.dimension}, {p.resolution}) does not match "
            f"space ({space.n}, {space.N})"
        )
    if space.explicit:
        return p.coords in space._index
    return all(c.satisfied_by(p) for c in space.constraints)


def eval_functional(f: LinearFunctional, p: GridPoint) -> Fraction:
    """Exact rational value of a linear functional at a grid point."""
    if len(f.coeffs) != len(p.coords):
        raise InvalidArgument(
            f"functional has {len(f.coeffs)} coefficients, "
            f"point has {len(p.coords)} coordinates"
        )
    return sum((c * k for c, k in zip(f.coeffs, p.coords)), Fraction(0)) / p.resolution


def grid_point_from_vector(v: Sequence[float], N: int, tol: float = FLOAT_TOL) -> GridPoint:
    """Recover the GridPoint a float vector denotes, or fail if off-lattice."""
    v = np.asarray(v, dtype=float)
    scaled = v * N
    coords = np.rint(scaled)
    if np.max(np.abs(scaled - coords)) > tol * N:
        raise InvalidArgument(f"{v.tolist()} is not on the 1/{N} lattice")
    return GridPoint(tuple(int(c) for c in coords), N)


def snap_to_lattice(v: Sequence[float], N: int) -> GridPoint:
    """Nearest lattice point in L2 (ties resolved toward the lex-smallest point).

    Scale to holdings, floor, then hand the remaining units to the
    coordinates with the largest fractional parts; among equal fractions
    later coordinates win, which yields the lexicographically smallest
    result.
    """
    v = np.asarray(v, dtype=float)
    scaled = v * N
    base = np.floor(scaled + FLOAT_TOL).astype(int)
    base = np.maximum(base, 0)
    deficit = N - int(base.sum())
    if deficit < 0:
        # Over-allocated by the tolerance nudge; trim from the smallest fractions.
        order = np.argsort(scaled - base, kind="stable")
        for i in order:
            if deficit == 0:
                break
            if base[i] > 0:
                base[i] -= 1
                deficit += 1
    elif deficit > 0:
        frac = scaled - base
        # Largest fractional part first; ties go to the later coordinate.
        order = sorted(range(len(frac)), key=lambda i: (-frac[i], -i))
        for i in order[:deficit]:
            base[i] += 1
    return GridPoint(tuple(int(c) for c in base), N)


# Parsing helpers for the CLI and JSON interfaces.

_VAR_CONSTRAINT = re.compile(r"^\s*x(\d+)\s*(<=|>=|==|=)\s*(-?[0-9./]+)\s*$")


def parse_step(text: str) -> int:
    """Parse a lattice step like '1/100' or '0.01' into the resolution N."""
    frac = Fraction(text)
    if frac <= 0:
        raise InvalidArgument(f"step must be positive, got {text!r}")
    N = 1 / frac
    if N.denominator != 1:
        raise InvalidArgument(f"step {text!r} is not of the form 1/N")
    return int(N)


def parse_constraint(text: str, n_assets: int) -> LinearConstraint:
    """Parse 'a0,a1,a2<=b' coefficient form or 'x1<=0.6' single-variable sugar.

    In the sugar form x1 names the first coordinate (1-based, as in the
    written examples); coefficients in the explicit form are positional.
    """
    m = _VAR_CONSTRAINT.match(text)
    if m:
        idx = int(m.group(1)) - 1
        if not 0 <= idx < n_assets:
            raise InvalidArgument(f"variable x{m.group(1)} out of range for {n_assets} assets")
        coeffs = [Fraction(0)] * n_assets
        coeffs[idx] = Fraction(1)
        sense = m.group(2)
        if sense == "=":
            sense = "=="
        return LinearConstraint(tuple(coeffs), _as_fraction(m.group(3)), sense)
    for sense in ("<=", ">=", "==", "="):
        if sense in text:
            lhs, rhs = text.split(sense, 1)
            coeffs = tuple(_as_fraction(c) for c in lhs.split(","))
            if len(coeffs) != n_assets:
                raise InvalidArgument(
                    f"constraint {text!r} has {len(coeffs)} coefficients, expected {n_assets}"
                )
            return LinearConstraint(coeffs, _as_fraction(rhs),
                                    "==" if sense == "=" else sense)
    raise InvalidArgument(f"cannot parse constraint {text!r}")
