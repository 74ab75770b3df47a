"""Construction of re-implementation maps by exhaustive lattice optimization.

At desk scale every optimizer here is an exact scan over the codomain
lattice: the metric-matching objective ||gA x - gB y||^p - lambda u(gB y),
or a relation-constrained argmax of a value function over the fiber.
Ties break lexicographically (the codomain is enumerated in sorted order
and the first optimum wins), so every map is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    FLOAT_TOL,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearFunctional,
    grid_point_from_vector,
)
from .relations import Relation, _attr_matrix


class Infeasible(ValueError):
    """Raised when an optimization problem has no admissible point."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """Metric-matching objective: ||gA x - gB y||^p - lambda * u(gB y)."""

    gA: Optional[np.ndarray] = None
    gB: Optional[np.ndarray] = None
    u: Optional[Callable[[np.ndarray], np.ndarray]] = None
    p: float = 2.0
    lam: float = 0.0
    norm: str = "L2"

    def __post_init__(self):
        if self.p < 1:
            raise InvalidArgument("exponent p must be >= 1")
        if self.lam < 0:
            raise InvalidArgument("objective weight lambda must be >= 0")
        if self.norm not in ("L1", "L2"):
            raise InvalidArgument("norm must be L1 or L2")

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectiveSpec":
        u = None
        u_spec = d.get("u")
        if u_spec:
            u = objective_function(u_spec)
        return cls(
            gA=np.asarray(d["gA"], dtype=float) if d.get("gA") is not None else None,
            gB=np.asarray(d["gB"], dtype=float) if d.get("gB") is not None else None,
            u=u,
            p=float(d.get("p", 2.0)),
            lam=float(d.get("lambda", d.get("lam", 0.0))),
            norm=d.get("norm", "L2"),
        )


def objective_function(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized objective u from a JSON spec: linear, neg_fee or quadratic."""
    kind = spec["kind"]
    if kind == "linear":
        c = np.asarray(spec["coeffs"], dtype=float)
        return lambda V: V @ c
    if kind == "neg_fee":
        fee = spec["functional"]
        coeffs = (fee.coeff_array() if isinstance(fee, LinearFunctional)
                  else np.asarray(fee, dtype=float))
        return lambda V: -(V @ coeffs)
    if kind == "quadratic":
        center = np.asarray(spec["center"], dtype=float)
        scale = float(spec.get("scale", 1.0))
        return lambda V: -scale * ((V - center) ** 2).sum(axis=-1)
    raise InvalidArgument(f"unknown objective kind {kind!r}")


@dataclass(frozen=True)
class ValueFunction:
    """A tabulated objective over every point of a lattice space."""

    space: LatticeSpace
    table: dict[tuple[int, ...], float]

    def __post_init__(self):
        missing = [p for p in self.space.points if p.coords not in self.table]
        if missing:
            raise InvalidArgument(f"value function undefined at {missing[0]}")

    def __call__(self, p: GridPoint) -> float:
        return self.table[p.coords]

    def values(self) -> np.ndarray:
        return np.asarray([self.table[p.coords] for p in self.space.points])

    @classmethod
    def from_callable(cls, space: LatticeSpace, fn) -> "ValueFunction":
        return cls(space, {p.coords: float(fn(p.to_array())) for p in space.points})


class ReimplMap:
    """A deterministic hub-to-spoke map, total on its domain lattice.

    rule is one of
      affine(matrix, offset)   continuous evaluation anywhere,
      lattice_argmin(table)    tabulated lattice-to-lattice assignment,
      composite(maps)          left-to-right chaining.
    """

    def __init__(self, domain: LatticeSpace, codomain: LatticeSpace,
                 rule: str, *, matrix=None, offset=None,
                 table: Optional[dict[tuple[int, ...], GridPoint]] = None,
                 parts: Optional[Sequence["ReimplMap"]] = None,
                 name: str = "f", check_into: bool = True):
        self.domain = domain
        self.codomain = codomain
        self.rule = rule
        self.name = name
        if rule == "affine":
            self.matrix = np.asarray(matrix, dtype=float)
            self.offset = (np.zeros(codomain.n + 1) if offset is None
                           else np.asarray(offset, dtype=float))
            if self.matrix.shape != (codomain.n + 1, domain.n + 1):
                raise InvalidArgument(
                    f"affine matrix must be {(codomain.n + 1, domain.n + 1)}, "
                    f"got {self.matrix.shape}"
                )
        elif rule == "lattice_argmin":
            if table is None:
                raise InvalidArgument("lattice_argmin requires a table")
            self.table = table
        elif rule == "composite":
            if not parts:
                raise InvalidArgument("composite requires component maps")
            self.parts = tuple(parts)
        else:
            raise InvalidArgument(f"unknown rule {rule!r}")
        if check_into:
            self._check_total_and_into()

    def _check_total_and_into(self):
        images = [self.evaluate(p) for p in self.domain.points]
        outside = np.flatnonzero(~self.codomain.contains_rows(np.asarray(images)))
        if len(outside):
            i = int(outside[0])
            raise InvalidArgument(
                f"map {self.name} leaves its codomain at {self.domain.points[i]}: "
                f"{images[i].tolist()}"
            )

    def evaluate(self, x) -> np.ndarray:
        """Image of a GridPoint (or, for affine/composite rules, any vector)."""
        if self.rule == "affine":
            v = x.to_array() if isinstance(x, GridPoint) else np.asarray(x, dtype=float)
            return self.matrix @ v + self.offset
        if self.rule == "lattice_argmin":
            if not isinstance(x, GridPoint):
                x = grid_point_from_vector(x, self.domain.N)
            try:
                return self.table[x.coords].to_array()
            except KeyError:
                raise InvalidArgument(f"{x} is outside the map's domain") from None
        v = x
        for part in self.parts:
            v = part.evaluate(v)
        return v

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def is_lattice_valued(self) -> bool:
        if self.rule == "lattice_argmin":
            return True
        try:
            for p in self.domain.points:
                grid_point_from_vector(self.evaluate(p), self.codomain.N)
            return True
        except InvalidArgument:
            return False

    def image_points(self) -> tuple[GridPoint, ...]:
        """Image of the domain lattice, as grid points (lattice-valued maps only)."""
        return tuple(sorted({
            grid_point_from_vector(self.evaluate(p), self.codomain.N)
            for p in self.domain.points
        }))


def identity_map(space: LatticeSpace) -> ReimplMap:
    return ReimplMap(space, space, "affine", matrix=np.eye(space.n + 1), name="id")


def inclusion_map(sub: LatticeSpace, ambient: LatticeSpace) -> ReimplMap:
    if sub.n != ambient.n or sub.N != ambient.N:
        raise InvalidArgument("inclusion requires matching dimension and resolution")
    return ReimplMap(sub, ambient, "affine", matrix=np.eye(sub.n + 1), name="incl")


def compose_maps(g: ReimplMap, f: ReimplMap, name: str = "") -> ReimplMap:
    """g after f."""
    if not f.codomain.same_points(g.domain):
        raise InvalidArgument("maps do not compose: codomain/domain mismatch")
    return ReimplMap(f.domain, g.codomain, "composite", parts=(f, g),
                     name=name or f"{g.name}.{f.name}")


def build_metric_reimpl(K1: LatticeSpace, K2: LatticeSpace,
                        spec: ObjectiveSpec, name: str = "f*") -> ReimplMap:
    """argmin over K2's lattice of ||gA x - gB y||^p - lambda u(gB y)."""
    if len(K1) == 0 or len(K2) == 0:
        raise Infeasible("metric re-implementation needs non-empty spaces")
    gA = _attr_matrix(spec.gA, K1.n + 1)
    gB = _attr_matrix(spec.gB, K2.n + 1)
    if gA.shape[0] != gB.shape[0]:
        raise InvalidArgument("attribute maps must target the same space")
    B = K2.array @ gB.T                       # (Q, k)
    if spec.lam > 0:
        if spec.u is None:
            raise InvalidArgument("lambda > 0 requires an objective u")
        penalty = -spec.lam * np.asarray(spec.u(B), dtype=float)
    else:
        penalty = np.zeros(len(K2))
    table: dict[tuple[int, ...], GridPoint] = {}
    for p in K1.points:
        a = gA @ p.to_array()
        diff = B - a
        if spec.norm == "L2":
            dist = np.sqrt((diff ** 2).sum(axis=1))
        else:
            dist = np.abs(diff).sum(axis=1)
        values = dist ** spec.p + penalty
        table[p.coords] = K2.points[int(np.argmin(values))]
    return ReimplMap(K1, K2, "lattice_argmin", table=table, name=name,
                     check_into=False)


def build_constrained_reimpl(K1: LatticeSpace, K2: LatticeSpace,
                             R: Relation, u: ValueFunction,
                             name: str = "f_R") -> ReimplMap:
    """argmax of u over the fiber F_R(x), per hub point.

    Hubs with empty fibers are dropped: the effective domain is dom(R).
    """
    if not R.domain.same_points(K1) or not R.codomain.same_points(K2):
        raise InvalidArgument("relation does not match the given spaces")
    if not u.space.same_points(K2):
        raise InvalidArgument("objective is not defined on the codomain")
    mask = R.mask()
    vals = u.values()
    table: dict[tuple[int, ...], GridPoint] = {}
    kept: list[GridPoint] = []
    for i, p in enumerate(K1.points):
        row = np.nonzero(mask[i])[0]
        if len(row) == 0:
            continue
        best = row[int(np.argmax(vals[row]))]
        table[p.coords] = K2.points[best]
        kept.append(p)
    if not kept:
        raise Infeasible("relation has empty domain: no hub has a non-empty fiber")
    domain = (K1 if len(kept) == len(K1)
              else LatticeSpace.from_points(K1.n, K1.N, kept, K1.constraints))
    return ReimplMap(domain, K2, "lattice_argmin", table=table, name=name,
                     check_into=False)


@dataclass(frozen=True)
class CommuteReport:
    commutes: bool
    max_discrepancy: float
    witness: Optional[GridPoint] = None


def check_square_commutes(f: ReimplMap, g: ReimplMap,
                          fp: ReimplMap, gp: ReimplMap,
                          tol: float = FLOAT_TOL) -> CommuteReport:
    """Compare f' . g against g' . f pointwise over the shared hub lattice.

    f: K1 -> K2, g: K1 -> K3, f': K3 -> K4, g': K2 -> K4.
    """
    if not f.domain.same_points(g.domain):
        raise InvalidArgument("f and g must share a hub domain")
    worst, witness = 0.0, None
    for x in f.domain.points:
        lhs = fp.evaluate(g.evaluate(x))
        rhs = gp.evaluate(f.evaluate(x))
        gap = float(np.abs(lhs - rhs).max())
        if gap > worst:
            worst, witness = gap, x
    return CommuteReport(commutes=worst <= tol, max_discrepancy=worst,
                         witness=None if worst <= tol else witness)


def bellman_lift(u4: ValueFunction, R_gprime: Relation,
                 R_fprime: Relation) -> tuple[ValueFunction, ValueFunction]:
    """Intermediate value functions by fiber maxima of the final objective.

    u2(y) = max { u4(w) : (y, w) in R_g' },  u3(z) = max { u4(w) : (z, w) in R_f' }.
    """
    u2 = _fiber_max(u4, R_gprime)
    u3 = _fiber_max(u4, R_fprime)
    return u2, u3


def _fiber_max(u4: ValueFunction, R: Relation) -> ValueFunction:
    if not R.codomain.same_points(u4.space):
        raise InvalidArgument("objective is not defined on the relation's codomain")
    mask = R.mask()
    vals = u4.values()
    table = {}
    for i, p in enumerate(R.domain.points):
        row = np.nonzero(mask[i])[0]
        if len(row) == 0:
            raise Infeasible(f"empty forward fiber at {p}")
        table[p.coords] = float(vals[row].max())
    return ValueFunction(R.domain, table)


def lipschitz_probe(f: ReimplMap) -> float:
    """max ||f(x) - f(x')|| / ||x - x'|| over adjacent lattice points (diagnostic).

    x' is adjacent to x when one unit of holdings moves between two coordinates.
    """
    K = f.domain
    images = np.asarray([f.evaluate(p) for p in K.points]).reshape(len(K), -1)
    E, worst = np.eye(K.n + 1, dtype=np.int64), 0.0
    for i, j in itertools.permutations(range(K.n + 1), 2):
        nb = K.index_holdings(K.holdings - E[i] + E[j])
        x = np.flatnonzero(nb >= 0)
        num = np.linalg.norm(images[nb[x]] - images[x], axis=1)
        den = np.linalg.norm(K.array[nb[x]] - K.array[x], axis=1)
        worst = max(worst, float((num / den).max(initial=0.0)))
    return worst
