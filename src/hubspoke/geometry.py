"""Exact integer-grid geometry for ambient simplices and permissible spaces.

Portfolios live on the standard simplex at step 1/N.  A space is a (P, n+1)
int64 array of non-negative integer holdings, one row per point summing to
N, so constraints are exact integer tests on the whole array and point
lookups are integer keys.  GridPoint, one point as a tuple, appears only
at the API edges: parsing, printing, pair sets and map evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Hard caps on problem size: requests beyond these are rejected before
# anything is allocated, never silently sampled.
MAX_DIMENSION = 6
MAX_RESOLUTION = 400
MAX_POINTS = 2_000_000

SENSES = ("<=", "==", ">=")

FLOAT_TOL = 1e-9


class InvalidArgument(ValueError):
    """Raised when inputs violate a documented precondition."""


def _as_fraction(x) -> Fraction:
    """A float reads as the simplest fraction (denominator <= 10^9) that rounds
    back to it, as 0.3 -> 3/10, else exactly, so 5.9999999999 stays below 6."""
    if isinstance(x, (Fraction, int, float, str)):
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):  # '1/0', 'abc', nan, inf
            pass
        else:
            if isinstance(x, float):
                r = q.limit_denominator(10**9)
                return r if float(r) == x else q
            return q
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
    """coeffs . weights  SENSE  bound, exact on lattice holdings (integer arithmetic)."""

    coeffs: tuple[Fraction, ...]
    bound: Fraction
    sense: str = "<="

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))
        object.__setattr__(self, "bound", _as_fraction(self.bound))
        if self.sense not in SENSES:
            raise InvalidArgument(f"sense must be one of {SENSES}, got {self.sense!r}")

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int]:
        """Integer coefficients A and bound B: the constraint times the
        common denominator of its coefficients and bound."""
        L = math.lcm(*(q.denominator for q in self.coeffs + (self.bound,)))
        return tuple(int(a * L) for a in self.coeffs), int(self.bound * L)

    def satisfied_by_holdings(self, H: np.ndarray, N: int) -> np.ndarray:
        """Exact verdict for each lattice holdings row of H at step 1/N: (P,) bool.

        Row h satisfies the constraint iff h.A SENSE B*N, with A and B cleared
        of denominators.  As 0 <= h_i <= N, the sums are int64 while max|A|
        N (n+1) and |B N| stay below 2^62, else exact ints on an object array.
        """
        H = np.asarray(H, dtype=np.int64)
        A, B = self._cleared
        if H.ndim != 2 or H.shape[1] != len(A):
            raise InvalidArgument(f"constraint {self} has {len(A)} coefficients "
                                  f"but the holdings have {H.shape[-1]} assets")
        rhs = B * N
        if max(map(abs, A), default=0) * N * len(A) < 2**62 and abs(rhs) < 2**62:
            lhs = H @ np.asarray(A, dtype=np.int64)
        else:
            lhs = H.astype(object) @ np.asarray(A, dtype=object)
        if self.sense == "<=":
            out = lhs <= rhs
        elif self.sense == ">=":
            out = lhs >= rhs
        else:
            out = lhs == rhs
        return np.asarray(out, dtype=bool)

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

    def coeff_array(self) -> np.ndarray:
        return np.asarray([float(c) for c in self.coeffs], dtype=np.float64)

    def to_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs], "units": self.units}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearFunctional":
        return cls(tuple(_as_fraction(c) for c in d["coeffs"]), d.get("units", ""))


@dataclass(frozen=True, eq=False)
class LatticeSpace:
    """A permissible portfolio space: lattice points of a closed region of a simplex.

    Built either from linear constraints (the usual case: intersections of
    half-spaces with the simplex, which are closed) or from an explicit
    finite point set (for registered menus, images of maps, and fixtures
    such as a lattice with a boundary point removed -- finite sets are
    closed, so these are valid objects too).  The points are the distinct
    rows of the read-only int64 `holdings`, in lexicographic order; a
    constraint space holds exactly the ambient points meeting its constraints.
    """

    n: int
    N: int
    constraints: tuple[LinearConstraint, ...]
    holdings: np.ndarray
    explicit: bool = False

    def __post_init__(self):
        H = np.array(self.holdings, dtype=np.int64).reshape(-1, self.n + 1)
        H.flags.writeable = False
        object.__setattr__(self, "holdings", H)

    @cached_property
    def points(self) -> tuple[GridPoint, ...]:
        """The holdings rows as GridPoints, built on first use."""
        return tuple(GridPoint(row, self.N) for row in map(tuple, self.holdings.tolist()))

    @cached_property
    def array(self) -> np.ndarray:
        """(P, n+1) float weights, rows in lexicographic point order."""
        return self.holdings / self.N

    def __len__(self):
        return len(self.holdings)

    def __iter__(self):
        return iter(self.points)

    def same_points(self, other: "LatticeSpace") -> bool:
        """Whether both spaces hold the same points of the same lattice."""
        return self.N == other.N and np.array_equal(self.holdings, other.holdings)

    # -- the point index ---------------------------------------------------

    @cached_property
    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The base-(N+1) radix and the point keys, ascending as the rows are."""
        d = self.n + 1
        if (self.N + 1) ** d > np.iinfo(np.int64).max:
            raise InvalidArgument(f"the ({self.n}, {self.N}) lattice is too large to index")
        radix = (self.N + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
        return radix, self.holdings @ radix

    def index_holdings(self, C: np.ndarray) -> np.ndarray:
        """Point index of each integer holdings row of C, or -1 for a row
        that is not a point (or for every row, when C is not (M, n+1))."""
        C = np.asarray(C, dtype=np.int64)
        out = np.full(len(C), -1, dtype=np.intp)
        if C.ndim != 2 or C.shape[1] != self.n + 1 or not len(self):
            return out
        radix, keys = self._keys
        # column by column: reductions along a short row axis are slow
        ok = np.logical_and.reduce([(c >= 0) & (c <= self.N) for c in C.T])
        k = C @ radix
        k[~ok] = -1                   # no point has a negative key
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        hit = keys[pos] == k
        out[hit] = pos[hit]
        return out

    def index_vectors(self, V: np.ndarray, tol: float = FLOAT_TOL) -> np.ndarray:
        """Point index of each weight-vector row of V, or -1 (see lattice_rows)."""
        return self.index_holdings(lattice_rows(V, self.N, tol)[0])

    def indices_of(self, points: Iterable[GridPoint]) -> np.ndarray:
        """Point indices of grid points; a point not in the space is an error."""
        points = tuple(points)
        d = self.n + 1
        C = np.array([p.coords if len(p.coords) == d else (-1,) * d for p in points],
                     dtype=np.int64).reshape(-1, d)
        i = self.index_holdings(C)
        missing = np.flatnonzero(i < 0)
        if len(missing):
            raise InvalidArgument(f"{points[missing[0]]} is not a point of this space")
        return i

    # -- continuous vectors ------------------------------------------------

    def contains_vector(self, v: Sequence[float], tol: float = FLOAT_TOL) -> bool:
        """Membership test for one continuous weight vector (see contains_rows)."""
        return bool(self.contains_rows(np.asarray(v, dtype=float)[None], tol)[0])

    def contains_rows(self, V: np.ndarray, tol: float = FLOAT_TOL) -> np.ndarray:
        """Membership of continuous weight vectors, one per row of V: (M,) bool.

        For constraint-defined spaces a row must have no coordinate below
        -tol, sum to 1 within tol and satisfy every constraint within tol;
        for explicit spaces it must lie within tol of a member point in
        every coordinate, which is a point-index lookup (index_vectors) as
        tol is below a quarter step.  Input that is not (M, n+1) gives all
        False.

        A row's verdict does not depend on the other rows: its sum, its
        constraint dot products (the kernel np.dot uses for one vector) and
        its comparisons are the ones a lone vector gets, bit for bit, so
        contains_rows(V)[i] == contains_vector(V[i]) always.
        """
        V = np.ascontiguousarray(V, dtype=float)
        if V.ndim != 2 or V.shape[1] != self.n + 1:
            return np.zeros(len(V), dtype=bool)
        if self.explicit:
            if tol * self.N >= 0.25:
                raise InvalidArgument(f"tolerance {tol} is not below a quarter step 1/(4N)")
            return self.index_vectors(V, tol) >= 0
        # Negated comparisons, so that a NaN sum fails neither simplex test.
        out = ~np.any(V < -tol, axis=1) & ~(np.abs(V.sum(axis=1) - 1.0) > tol)
        for c in self.constraints:
            out &= c.satisfied_by_rows(V, tol)
        return out

    def to_dict(self) -> dict:
        d = {"n": self.n, "N": self.N,
             "constraints": [c.to_dict() for c in self.constraints]}
        if self.explicit:
            d["points"] = self.holdings.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LatticeSpace":
        constraints = [LinearConstraint.from_dict(c) for c in d.get("constraints", [])]
        if "points" in d:
            return cls._from_rows(d["n"], d["N"], d["points"], constraints)
        space = enumerate_simplex(d["n"], d["N"])
        return restrict(space, constraints) if constraints else space

    @classmethod
    def from_points(cls, n: int, N: int, points: Iterable[GridPoint],
                    constraints: Iterable[LinearConstraint] = ()) -> "LatticeSpace":
        return cls._from_rows(n, N, [p.coords for p in points], constraints)

    @classmethod
    def _from_rows(cls, n: int, N: int, rows,
                   constraints: Iterable[LinearConstraint]) -> "LatticeSpace":
        """The explicit space of the given holdings rows, in any order and multiplicity."""
        try:
            H = np.array(rows, dtype=np.int64).reshape(len(rows), n + 1)
        except (TypeError, ValueError, OverflowError):
            H = None
        if H is None or (H < 0).any() or (H.sum(axis=1) != N).any():
            raise InvalidArgument(f"points of the ({n}, {N}) lattice must be rows of "
                                  f"{n + 1} non-negative integer holdings summing to {N}")
        # np.unique sorts the rows lexicographically, as sorted(set(pts)) would
        return cls(n=n, N=N, constraints=tuple(constraints),
                   holdings=np.unique(H, axis=0), explicit=True)

    def describe(self) -> str:
        cons = "; ".join(str(c) for c in self.constraints) or "none"
        return f"Delta^{self.n} at 1/{self.N} ({len(self)} points, constraints: {cons})"


def lattice_rows(V: np.ndarray, N: int, tol: float = FLOAT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(M, d) int64 holdings and (M,) bool for weight-vector rows V: a row v
    denotes the lattice holdings rint(vN) iff |rint(vN)/N - v|_inf <= tol
    and 0 <= rint(vN) <= N; rows that denote none get holdings -1."""
    V = np.asarray(V, dtype=float)
    C = np.rint(V * N)
    with np.errstate(invalid="ignore"):       # inf - inf in a non-finite row
        ok = ((np.abs(C / N - V) <= tol) & (C >= 0) & (C <= N)).all(axis=1)
    return np.where(ok[:, None], C, -1).astype(np.int64), ok


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
    size = expected_simplex_size(n, N)
    if size > MAX_POINTS:
        raise InvalidArgument(
            f"requested lattice (n={n}, N={N}) has {size} points, more than "
            f"the supported {MAX_POINTS}"
        )
    # Prefix extension in lex order: a prefix with r units left is followed
    # by 0..r in the next coordinate; the last coordinate takes the rest.
    H = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([N], dtype=np.int64)
    for _ in range(n):
        counts = rest + 1
        parent = np.repeat(np.arange(len(H)), counts)
        v = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        H = np.column_stack([H[parent], v])
        rest = rest[parent] - v
    return LatticeSpace(n=n, N=N, constraints=(), holdings=np.column_stack([H, rest]))


def restrict(space: LatticeSpace, constraints: Iterable[LinearConstraint]) -> LatticeSpace:
    """Intersect a space with further linear constraints (exact arithmetic)."""
    constraints = tuple(constraints)
    keep = np.ones(len(space), dtype=bool)
    for c in constraints:
        keep &= c.satisfied_by_holdings(space.holdings, space.N)
    return LatticeSpace(
        n=space.n, N=space.N,
        constraints=space.constraints + constraints,
        holdings=space.holdings[keep], explicit=space.explicit,
    )


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


def snap_rows(V: np.ndarray, N: int) -> np.ndarray:
    """Nearest lattice holdings in L2 of each weight-vector row of V: (M, d) int64.

    Scale to holdings and floor, nudged up by FLOAT_TOL.  A row short of N
    hands one unit to each of its largest fractions, ties to the later
    coordinate, which yields the lexicographically smallest nearest point;
    an over-allocated row gives one unit back from each positive coordinate,
    smallest fraction first (ties to the earlier one), until it sums to N.
    """
    S = np.asarray(V, dtype=float) * N
    B = np.maximum(np.floor(S + FLOAT_TOL).astype(np.int64), 0)
    order = np.argsort(S - B, axis=1, kind="stable")     # smallest fraction first
    sorted_B = np.take_along_axis(B, order, axis=1)
    short = N - B.sum(axis=1)
    step = (np.arange(B.shape[1] - 1, -1, -1) < short[:, None]).astype(np.int64)
    over = np.flatnonzero(short < 0)                     # rare for rows on the simplex
    held = sorted_B[over] > 0
    step[over] -= held & (np.cumsum(held, axis=1) <= -short[over, None])
    np.put_along_axis(B, order, sorted_B + step, axis=1)
    return B


# Parsing helpers for the CLI and JSON interfaces.

_VAR_CONSTRAINT = re.compile(r"^\s*x(\d+)\s*(<=|>=|==|=)\s*(-?[0-9./]+)\s*$")


def parse_step(text: str) -> int:
    """Parse a lattice step like '1/100' or '0.01' into the resolution N."""
    frac = _as_fraction(text)
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
