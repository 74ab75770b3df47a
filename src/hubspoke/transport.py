"""Pullback/pushforward of alignment relations and the coherence-law harness.

Pushforwards carry continuous image points, so results are pair sets: left
(hub-side) vectors, distinct when rounded to 9 decimals (one np.unique),
right (spoke-side) points of one lattice space by index, and a boolean
mask of the pairs.  Every equality law is verified with both sides built
from the same hub enumeration, which keeps float comparisons bitwise-stable.
Membership in S is one rule, `Relation.members`: pullback, pair-set
filters and the adjunction's hub side, the 2-cell `two_cell_exists(f,
id_Z, R, S)`, read lattice points by index and test only rows off the
lattice.  `PairSet.test` looks bitwise lattice rows up by key, and rows
are OR-ed per group by one helper, `_group_or`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    FLOAT_TOL,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    enumerate_simplex,
    lattice_rows,
)
from .optimize import ReimplMap, compose_maps, identity_map, inclusion_map
from .relations import Relation, _same, explicit_relation, intersect, two_cell_exists

MAX_WITNESSES = 10

_KEY_DECIMALS = 9


def _group_or(M: np.ndarray, group: np.ndarray, size: int, rows=slice(None)) -> np.ndarray:
    """(size, M.shape[1]) bool: row g is the OR of the rows M[rows][k] with
    group[k] == g, computed on bit-packed rows."""
    packed = np.zeros((size, (M.shape[1] + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, group, np.packbits(M, axis=1)[rows])
    return np.unpackbits(packed, axis=1, count=M.shape[1]).view(bool)


def _grid_keys(V: np.ndarray, N: int) -> Optional[np.ndarray]:
    """Base-(N+1) keys of the rows of V when every row is bitwise a point of
    the 1/N grid on [0, 1]^d (`lattice_rows` at tolerance 0), else None."""
    C, on = lattice_rows(V, N, 0.0)
    d = V.shape[1]
    if on.all() and (N + 1) ** d <= np.iinfo(np.int64).max:
        return C @ (N + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return None


def _merge_rows(V: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of V that agree when rounded, merged: one representative per
    rounded row, ascending, with the OR of the matching rows of M.  The
    representative is the last row of its group."""
    keys, inv = np.unique(np.round(V, _KEY_DECIMALS), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    last = np.zeros(len(keys), dtype=np.intp)
    np.maximum.at(last, inv, np.arange(len(V)))
    return V[last], _group_or(M, inv, len(keys))


def _first_pairs(mask: np.ndarray, A: np.ndarray, B: np.ndarray) -> list:
    """The first MAX_WITNESSES true cells (a, b) of mask as (A[a], B[b]) tuples."""
    a, b = np.nonzero(mask)
    return [(tuple(A[i].tolist()), tuple(B[j].tolist()))
            for i, j in zip(a[:MAX_WITNESSES], b[:MAX_WITNESSES])]


def _trim(left: np.ndarray, cols: np.ndarray, mask: np.ndarray) -> tuple:
    """(left, cols, mask) without the empty rows and columns of mask."""
    rows, used = mask.any(axis=1), mask.any(axis=0)
    return left[rows], cols[used], mask[np.ix_(rows, used)]


@dataclass(frozen=True, eq=False)
class PairSet:
    """A finite set of (left-vector, right-point) pairs.

    `left` (A, d) holds distinct vectors in ascending rounded order; the
    right side is the lattice points `space.array[cols]`, with `cols`
    ascending point indices of `space`.  `mask[i, j]` says whether
    (left[i], right[j]) is a pair; no row or column of `mask` is empty.
    """

    left: np.ndarray
    space: LatticeSpace
    cols: np.ndarray
    mask: np.ndarray

    @classmethod
    def from_mask(cls, left, space: LatticeSpace, mask, cols=None) -> "PairSet":
        """The pairs (left[i], point cols[j] of space) at the true cells of
        mask, in canonical form; cols defaults to every point of space."""
        left, mask = np.asarray(left, dtype=float), np.asarray(mask, dtype=bool)
        cols = np.arange(len(space)) if cols is None else np.asarray(cols)
        left, cols, mask = _trim(left, cols, mask)
        left, mask = _merge_rows(left, mask)
        return cls(left, space, cols, mask)

    @property
    def right(self) -> np.ndarray:
        return self.space.array[self.cols]

    def __len__(self):
        return int(self.mask.sum())

    def _canonical(self) -> tuple:
        return (self.mask, np.round(self.left, _KEY_DECIMALS),
                np.round(self.right, _KEY_DECIMALS))

    def __eq__(self, other: "PairSet") -> bool:
        return not (len(self) or len(other)) or all(
            np.array_equal(a, b) for a, b in zip(self._canonical(), other._canonical()))

    def keys(self) -> set:
        """The pairs as tuples of rounded coordinates."""
        _, L, R = (x.tolist() for x in self._canonical())
        return {(tuple(L[i]), tuple(R[j])) for i, j in zip(*np.nonzero(self.mask))}

    def test(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """(|X|, |Y|) bool: x lies within FLOAT_TOL of a left vector, paired
        with the right point y denotes; bitwise grid points are within
        FLOAT_TOL iff equal, so such x and left vectors match by key."""
        if not len(self.cols):
            return np.zeros((len(X), len(Y)), dtype=bool)
        col = np.full(len(self.space) + 1, -1)   # index -1 (no point) reads the spare -1
        col[self.cols] = np.arange(len(self.cols))
        k = col[self.space.index_vectors(Y)]
        kx = _grid_keys(X, self.space.N) if X.shape[1:] == self.left.shape[1:] else None
        kl = None if kx is None else _grid_keys(self.left, self.space.N)
        if kl is None:
            x, a = np.nonzero(_same(X, self.left))
        else:       # left is in key order; a past the last key reads the spare -1
            a = np.searchsorted(kl, kx)
            x = np.flatnonzero(np.append(kl, -1)[a] == kx)
            a = a[x]
        hit = _group_or(self.mask, x, len(X), a)     # OR of the mask rows x matches
        out = hit[:, np.maximum(k, 0)]
        out[:, k < 0] = False                        # y is not a right point
        return out

    def witnesses_not_in(self, other: "PairSet") -> list:
        """The first MAX_WITNESSES pairs, in rounded order, that are not
        members of other (its `test`)."""
        right = self.right
        return _first_pairs(self.mask & ~other.test(self.left, right), self.left, right)


@dataclass(frozen=True)
class LawReport:
    """Outcome of one coherence-law verification."""

    law: str
    holds: bool
    lhs_count: int
    rhs_count: int
    witnesses: tuple = ()
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.holds and self.witnesses:
            raise InvalidArgument("a holding law cannot carry witnesses")

    def to_dict(self) -> dict:
        def plain(v):
            if isinstance(v, (np.ndarray, np.generic)):
                return v.tolist()
            if isinstance(v, (tuple, list, set, frozenset)):
                return [plain(x) for x in v]
            return v

        return {
            "law": self.law,
            "holds": self.holds,
            "lhs_count": self.lhs_count,
            "rhs_count": self.rhs_count,
            "witnesses": [plain(w) for w in self.witnesses],
            "detail": {k: plain(v) for k, v in self.detail.items()},
        }


def pullback(f: ReimplMap, S: Relation) -> Relation:
    """f*S = {(x, z): (f(x), z) in S}, an exact relation on f's domain lattice."""
    if not f.codomain.same_points(S.domain):
        raise InvalidArgument("pullback: f must land in S's domain")
    return Relation.from_mask(f.domain, S.codomain, S.members(f.images, i=f.img))


def pushforward(f: ReimplMap, R: Relation) -> PairSet:
    """f_!R = {(f(x), z): (x, z) in R}: R's rows OR-ed per image of their hub
    (images equal to 9 decimals are one).  Images may leave the lattice, so
    the result is a pair set rather than a lattice relation."""
    if not f.domain.same_points(R.domain):
        raise InvalidArgument("pushforward: f must start at R's domain")
    return PairSet.from_mask(f.images, R.codomain, R.mask())


def _within(pairs: PairSet, S: Relation) -> PairSet:
    """The pairs of a pair set that are members of S (still canonical)."""
    left, cols, mask = _trim(pairs.left, pairs.cols,
                             pairs.mask & S.members(pairs.left, pairs.right))
    return PairSet(left, pairs.space, cols, mask)


def verify_adjunction(f: ReimplMap, R: Relation, S: Relation) -> LawReport:
    """R included in f*S  iff  f_!R included in S, checked independently.
    R included in f*S is the 2-cell with f on top and id_Z below."""
    R_mask = R.mask()
    left = two_cell_exists(f, identity_map(R.codomain), R, S)
    push = pushforward(f, R)
    right = not (push.mask & ~S.members(push.left, push.right)).any()  # f_!R subset of S
    holds = left == right
    return LawReport("adjunction", holds, int(R_mask.sum()), len(push),
                     witnesses=() if holds else tuple(
                         _first_pairs(R_mask, R.domain.array, R.codomain.array)),
                     detail={"hub_side": left, "spoke_side": right})


def _two_way_witnesses(lhs: PairSet, rhs: PairSet) -> tuple:
    """Pairs of lhs, then of rhs, with no pair of the other side within tol."""
    return tuple((lhs.witnesses_not_in(rhs) + rhs.witnesses_not_in(lhs))[:MAX_WITNESSES])


def verify_functoriality(f: ReimplMap, g: ReimplMap, R: Relation,
                         S: Optional[Relation] = None) -> LawReport:
    """(g . f)_! R  ==  g_! (f_! R); dually f*(g*S) == (g.f)*S when S given."""
    if not f.codomain.same_points(g.domain):
        raise InvalidArgument("functoriality: maps do not compose")
    gf = compose_maps(g, f)
    direct = pushforward(gf, R)
    inner = pushforward(f, R)
    # Push the intermediate pair set through g (g must accept its vectors).
    staged = PairSet.from_mask(g.evaluate_rows(inner.left), inner.space, inner.mask, inner.cols)
    holds = direct == staged
    detail = {}
    if S is not None:
        dual_ok = np.array_equal(pullback(f, pullback(g, S)).mask(),
                                 pullback(gf, S).mask())
        detail["pullback_dual"] = dual_ok
        holds = holds and dual_ok
    return LawReport("functoriality", holds, len(direct), len(staged),
                     witnesses=() if holds else _two_way_witnesses(direct, staged),
                     detail=detail)


def verify_frobenius(f: ReimplMap, R: Relation, S: Relation) -> LawReport:
    """f_!(R intersect f*S) == f_!R intersect S, as identical pair sets."""
    rhs = _within(pushforward(f, R), S)     # caches R's mask for the intersection
    lhs = pushforward(f, intersect(R, pullback(f, S)))
    holds = lhs == rhs
    return LawReport("frobenius", holds, len(lhs), len(rhs),
                     witnesses=() if holds else _two_way_witnesses(lhs, rhs))


@dataclass(frozen=True)
class CommutingSquare:
    """g: K_A -> K_B, f': K_A -> K_C, f: K_B -> K_D, h: K_C -> K_D with f.g = h.f'."""

    g: ReimplMap
    fp: ReimplMap
    f: ReimplMap
    h: ReimplMap

    def __post_init__(self):
        for a, b, what in ((self.g.domain, self.fp.domain, "g and f' must share the hub K_A"),
                           (self.g.codomain, self.f.domain, "g must land in f's domain K_B"),
                           (self.fp.codomain, self.h.domain, "f' must land in h's domain K_C"),
                           (self.f.codomain, self.h.codomain, "f and h must share the target K_D")):
            if not a.same_points(b):
                raise InvalidArgument(f"square: {what}")
        worst = float(np.abs(self.f.evaluate_rows(self.g.images)
                             - self.h.evaluate_rows(self.fp.images)).max(initial=0.0))
        if worst > FLOAT_TOL:
            raise InvalidArgument(
                f"square does not commute: max pointwise discrepancy {worst:.3e}"
            )


def _require_lattice_valued(square: CommutingSquare):
    """Beck-Chevalley transports are enumerated over lattices, so every map
    in the square must send lattice points to lattice points."""
    for m in (square.g, square.fp, square.f, square.h):
        if not m.is_lattice_valued():
            raise InvalidArgument(f"map {m.name} has off-lattice images; BC verification "
                                  "requires lattice-valued squares")


def _late_audit_pairs(square: CommutingSquare, R: Relation) -> PairSet:
    """h*(f_! R) enumerated over K_C x Z: R's rows OR-ed per image point of
    f, read at the image points of h (lattice-valued squares only)."""
    pushed = _group_or(R.mask(), square.f.img, len(square.f.codomain))
    return PairSet.from_mask(square.h.domain.array, R.codomain, pushed[square.h.img])


def verify_lax_bc(square: CommutingSquare, R: Relation) -> LawReport:
    """f'_!(g* R) included in h*(f_! R); holds for every commuting square."""
    if not square.f.domain.same_points(R.domain):
        raise InvalidArgument("lax BC: R must live on K_B (f's domain)")
    _require_lattice_valued(square)
    lhs = pushforward(square.fp, pullback(square.g, R))
    rhs = _late_audit_pairs(square, R)
    witnesses = tuple(lhs.witnesses_not_in(rhs))
    return LawReport("lax_bc", not witnesses, len(lhs), len(rhs),
                     witnesses=witnesses)


def pointwise_cartesian(square: CommutingSquare) -> tuple[bool, list]:
    """Witness search: every consistent (y, z) with f(y) = h(z) lifts to K_A
    (lattice-valued squares only: images are compared as point indices)."""
    _require_lattice_valued(square)
    K_B, K_C = square.g.codomain, square.fp.codomain
    consistent = square.f.img[:, None] == square.h.img
    lifted = np.zeros((len(K_B), len(K_C)), dtype=bool)
    lifted[square.g.img, square.fp.img] = True
    failures = _first_pairs(consistent & ~lifted, K_B.array, K_C.array)
    return not failures, failures


def verify_strict_bc(square: CommutingSquare, R: Relation) -> LawReport:
    """Strict equality f'_!(g* R) == h*(f_! R), plus the cartesianness test."""
    if not square.f.domain.same_points(R.domain):
        raise InvalidArgument("strict BC: R must live on K_B (f's domain)")
    cartesian, cart_failures = pointwise_cartesian(square)
    lhs = pushforward(square.fp, pullback(square.g, R))
    rhs = _late_audit_pairs(square, R)
    holds = lhs == rhs
    return LawReport("strict_bc", holds, len(lhs), len(rhs),
                     witnesses=() if holds else _two_way_witnesses(lhs, rhs),
                     detail={"pointwise_cartesian": cartesian,
                             "cartesian_failures": cart_failures})


# -- closure-fix counterexamples ----------------------------------------------


def _endpoint_closure(pairs: PairSet, endpoint: GridPoint, N: int) -> PairSet:
    """Topological-closure surrogate on the fixture: complete diagonal limits.

    A sequence marching up the removed endpoint exists exactly when the
    immediate-predecessor diagonal pair is present; its limit (1, 1) is
    then adjoined, mirroring cl(f_!R) in the continuous counterexample.
    """
    pred = GridPoint((N - 1, 1), N).to_array()[None]
    if not pairs.test(pred, pred)[0, 0]:
        return pairs
    cols = np.union1d(pairs.cols, pairs.space.indices_of([endpoint]))  # (N, 0) sorts last
    mask = np.pad(pairs.mask, ((0, 1), (0, len(cols) - len(pairs.cols))))
    mask[-1, -1] = True
    return PairSet.from_mask(np.vstack([pairs.left, endpoint.to_array()]), pairs.space, mask, cols)


def closure_fix_demo(which: str, N: int = 10, closed_hub: bool = False) -> LawReport:
    """Reproduce the counterexamples that break the patched pushforward.

    which='frobenius': cl(f_!(R and f*S)) vs cl(f_!R) and S with R the
    diagonal on the half-open hub and S the endpoint pair; which='bc':
    the same data arranged as a commuting square.  Both yield LHS empty
    versus RHS {(1,1)}.  With closed_hub=True the endpoint is restored
    and the laws hold.
    """
    # Delta^1 plays [0, 1] through the first coordinate; without the point
    # (N, 0) it is the half-open interval whose missing limit breaks the
    # patched ('closure-fix') pushforward
    full, endpoint = enumerate_simplex(1, N), GridPoint((N, 0), N)
    hub = full if closed_hub else LatticeSpace.from_points(
        1, N, [p for p in full.points if p.coords[0] != N])
    S = explicit_relation(full, full, [(endpoint, endpoint)])
    incl = inclusion_map(hub, full)

    if which == "frobenius":
        R = explicit_relation(hub, full, [(p, p) for p in hub.points])
        lhs = _endpoint_closure(
            pushforward(incl, intersect(R, pullback(incl, S))), endpoint, N)
        rhs = _within(_endpoint_closure(pushforward(incl, R), endpoint, N), S)
    elif which == "bc":
        # g = f' = inclusion, f = h = id; R lives on K_B = full.
        lhs = _endpoint_closure(
            pushforward(incl, pullback(incl, S)), endpoint, N)
        push = _endpoint_closure(pushforward(identity_map(full), S), endpoint, N)
        rhs = PairSet.from_mask(full.array, full, push.test(full.array, full.array))
    else:
        raise InvalidArgument("which must be 'frobenius' or 'bc'")

    holds = lhs == rhs
    return LawReport(f"closure_fix_{which}", holds, len(lhs), len(rhs),
                     witnesses=() if holds else _two_way_witnesses(rhs, lhs),
                     detail={"closed_hub": closed_hub,
                             "lhs": sorted(lhs.keys()), "rhs": sorted(rhs.keys())})
