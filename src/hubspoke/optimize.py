"""Construction of re-implementation maps by exhaustive lattice optimization.

At desk scale every optimizer here is an exact scan over the codomain
lattice: the metric-matching objective ||gA x - gB y||^p - lambda u(gB y),
or a relation-constrained argmax of a value function over the fiber.
Ties break lexicographically (the codomain is enumerated in sorted order
and the first optimum wins), so every map is deterministic.  A scan
covers every hub at once, in row blocks, and its result is an index
array: hub i goes to codomain point img[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    FLOAT_TOL,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearFunctional,
    _row_blocks,
)
from .relations import Relation, _attr_matrix


class Infeasible(ValueError):
    """Raised when an optimization problem has no admissible point."""


def _finite(what: str, value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidArgument(f"{what} must be finite")
    return a


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
        if not 1 <= self.p < math.inf:
            raise InvalidArgument("exponent p must be finite and >= 1")
        if not 0 <= self.lam < math.inf:
            raise InvalidArgument("objective weight lambda must be finite and >= 0")
        if self.norm not in ("L1", "L2"):
            raise InvalidArgument("norm must be L1 or L2")
        for what, g in (("attribute map gA", self.gA), ("attribute map gB", self.gB)):
            if g is not None:
                _finite(what, g)

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectiveSpec":
        return cls(
            gA=np.asarray(d["gA"], dtype=float) if d.get("gA") is not None else None,
            gB=np.asarray(d["gB"], dtype=float) if d.get("gB") is not None else None,
            u=objective_function(d["u"]) if d.get("u") else None,
            p=float(d.get("p", 2.0)),
            lam=float(d.get("lambda", d.get("lam", 0.0))),
            norm=d.get("norm", "L2"),
        )


def objective_function(spec: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized objective u from a JSON spec: linear, neg_fee or quadratic."""
    kind = spec["kind"]
    if kind == "linear":
        c = _finite("linear objective coefficients", spec["coeffs"])
        return lambda V: V @ c
    if kind == "neg_fee":
        fee = spec["functional"]
        coeffs = (fee.coeff_array() if isinstance(fee, LinearFunctional)
                  else _finite("fee coefficients", fee))
        return lambda V: -(V @ coeffs)
    if kind == "quadratic":
        center = _finite("quadratic objective center", spec["center"])
        scale = float(_finite("quadratic objective scale", spec.get("scale", 1.0)))
        return lambda V: -scale * ((V - center) ** 2).sum(axis=-1)
    raise InvalidArgument(f"unknown objective kind {kind!r}")


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """An objective tabulated over a lattice space.

    `array` holds one finite float per point of `space`, in point order.
    """

    space: LatticeSpace
    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=float).reshape(len(self.space))
        bad = np.flatnonzero(~np.isfinite(a))
        if len(bad):
            raise InvalidArgument(f"value function is not finite at {self.space.points[bad[0]]}")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    def values(self) -> np.ndarray:
        return self.array

    @classmethod
    def from_callable(cls, space: LatticeSpace, fn) -> "ValueFunction":
        return cls(space, [float(fn(v)) for v in space.array])


class ReimplMap:
    """A deterministic hub-to-spoke map, total on its domain lattice.

    rule is one of
      affine(matrix, offset)   continuous evaluation anywhere,
      lattice_argmin(img)      hub point i goes to codomain point img[i],
      composite(parts)         left-to-right chaining.

    `evaluate_rows(V)` maps the weight vectors in the rows of V (an affine
    row has the bits of `matrix @ v + offset`), `images` holds the images
    of the domain points and `img` the codomain point index each denotes;
    `evaluate`, `image_points` and `is_lattice_valued` are views of these.
    """

    def __init__(self, domain: LatticeSpace, codomain: LatticeSpace,
                 rule: str, *, matrix=None, offset=None, img=None,
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
            self.img = np.array(-1 if img is None else img, dtype=np.intp)
            if self.img.shape != (len(domain),) or not (
                    (self.img >= 0) & (self.img < len(codomain))).all():
                raise InvalidArgument("lattice_argmin needs an image index array: "
                                      "one codomain point index per domain point")
            self.img.flags.writeable = False
        elif rule == "composite":
            if not parts:
                raise InvalidArgument("composite requires component maps")
            self.parts = tuple(parts)
        else:
            raise InvalidArgument(f"unknown rule {rule!r}")
        # a lattice_argmin map lands on codomain points by construction
        if check_into and rule != "lattice_argmin":
            self._check_total_and_into()

    def _check_total_and_into(self):
        images = self.images
        outside = np.flatnonzero(~self.codomain.contains_rows(images))
        if len(outside):
            i = int(outside[0])
            raise InvalidArgument(
                f"map {self.name} leaves its codomain at {self.domain.points[i]}: "
                f"{images[i].tolist()}"
            )

    def evaluate_rows(self, V) -> np.ndarray:
        """Images of the rows of V; a lattice_argmin map takes only vectors
        that denote points of its domain (within FLOAT_TOL)."""
        V = np.asarray(V, dtype=float)
        if self.rule == "affine":
            # one matrix-vector product per row: V @ matrix.T rounds differently
            return (self.matrix[None] @ V[:, :, None])[:, :, 0] + self.offset
        if self.rule == "lattice_argmin":
            i = self.domain.index_vectors(V)
            if (i < 0).any():
                raise InvalidArgument(
                    f"{V[int(np.argmax(i < 0))].tolist()} is outside the map's domain")
            return self.codomain.array[self.img[i]]
        for part in self.parts:
            V = part.evaluate_rows(V)
        return V

    @cached_property
    def images(self) -> np.ndarray:
        """(P, m+1) read-only images of the domain points, in point order."""
        out = (self.codomain.array[self.img] if self.rule == "lattice_argmin"
               else self.evaluate_rows(self.domain.array))
        out.flags.writeable = False
        return out

    def evaluate(self, x) -> np.ndarray:
        """Image of one GridPoint or weight vector."""
        v = x.to_array() if isinstance(x, GridPoint) else np.asarray(x, dtype=float)
        return self.evaluate_rows(v[None])[0]

    @cached_property
    def img(self) -> np.ndarray:
        """(P,) read-only codomain point index of each image, or -1 where an
        image does not denote a codomain point (`LatticeSpace.index_vectors`)."""
        out = self.codomain.index_vectors(self.images)
        out.flags.writeable = False
        return out

    def is_lattice_valued(self) -> bool:
        return bool((self.img >= 0).all())

    def image_points(self) -> tuple[GridPoint, ...]:
        """Image of the domain lattice, as grid points (lattice-valued maps only)."""
        if not self.is_lattice_valued():
            raise InvalidArgument(f"map {self.name} has images off its codomain's lattice")
        return tuple(GridPoint(row, self.codomain.N) for row in
                     map(tuple, self.codomain.holdings[np.unique(self.img)].tolist()))


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
    A = (gA[None] @ K1.array[:, :, None])[:, :, 0]     # (P, k), row i is gA @ x_i
    img = np.empty(len(K1), dtype=np.intp)
    for s in _row_blocks(len(K1), B.size):
        diff = B[None] - A[s, None]
        if spec.norm == "L2":
            dist = np.sqrt((diff ** 2).sum(axis=2))
        else:
            dist = np.abs(diff).sum(axis=2)
        img[s] = np.argmin(dist ** spec.p + penalty, axis=1)
    return ReimplMap(K1, K2, "lattice_argmin", img=img, name=name)


def _over_fibers(op, mask: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """op(axis=1) over each row's fiber of finite values, in row blocks;
    non-members read -inf, so op=np.argmax picks the first best member."""
    return np.concatenate([op(np.where(mask[s], vals, -np.inf), axis=1)
                           for s in _row_blocks(len(mask), mask.shape[1])])


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
    kept = mask.any(axis=1)
    if not kept.any():
        raise Infeasible("relation has empty domain: no hub has a non-empty fiber")
    domain = K1 if kept.all() else LatticeSpace(
        n=K1.n, N=K1.N, constraints=K1.constraints, holdings=K1.holdings[kept],
        explicit=True)
    return ReimplMap(domain, K2, "lattice_argmin",
                     img=_over_fibers(np.argmax, mask[kept], u.values()), name=name)


@dataclass(frozen=True)
class CommuteReport:
    commutes: bool
    max_discrepancy: float
    witness: Optional[GridPoint] = None


def check_square_commutes(f: ReimplMap, g: ReimplMap,
                          fp: ReimplMap, gp: ReimplMap,
                          tol: float = FLOAT_TOL) -> CommuteReport:
    """Compare f' . g against g' . f pointwise over the shared hub lattice.

    f: K1 -> K2, g: K1 -> K3, f': K3 -> K4, g': K2 -> K4.  The witness is
    the first hub point with the largest discrepancy.
    """
    if not f.domain.same_points(g.domain):
        raise InvalidArgument("f and g must share a hub domain")
    gaps = np.abs(fp.evaluate_rows(g.images)
                  - gp.evaluate_rows(f.images)).max(axis=1)
    worst = float(gaps.max(initial=0.0))
    return CommuteReport(commutes=worst <= tol, max_discrepancy=worst,
                         witness=None if worst <= tol
                         else f.domain.points[int(np.argmax(gaps))])


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
    empty = np.flatnonzero(~mask.any(axis=1))
    if len(empty):
        raise Infeasible(f"empty forward fiber at {R.domain.points[empty[0]]}")
    return ValueFunction(R.domain, _over_fibers(np.max, mask, u4.values()))
