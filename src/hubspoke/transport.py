"""Pullback/pushforward of alignment relations and the coherence-law harness.

Pushforwards carry continuous image points, so results are pair sets: left
(hub-side) vectors, distinct when rounded to 9 decimals (one np.unique),
right (spoke-side) points of one lattice space by index, and a boolean
mask of the pairs.  Every equality law is verified with both sides built
from the same hub enumeration, which keeps float comparisons bitwise-stable.
A lattice-valued map's images are its points (`ReimplMap.img`): pullback,
membership in S and the Beck-Chevalley checks read them by point index
(`Relation.mask_rows`); `S.test` runs only on rows off the lattice, and
`PairSet.test` still matches its left vectors within the tolerance.
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
)
from .optimize import ReimplMap, compose_maps, identity_map, inclusion_map
from .relations import Relation, _same, explicit_relation, intersect

MAX_WITNESSES = 10

_KEY_DECIMALS = 9


def _merge_rows(V: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of V that agree when rounded, merged: one representative per
    rounded row, ascending, with the OR of the matching rows of M.  The
    representative is the last row of its group."""
    keys, inv = np.unique(np.round(V, _KEY_DECIMALS), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    last = np.zeros(len(keys), dtype=np.intp)
    np.maximum.at(last, inv, np.arange(len(V)))
    merged = np.zeros((len(keys), M.shape[1]), dtype=bool)
    np.logical_or.at(merged, inv, M)
    return V[last], merged


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
        """(|X|, |Y|) bool: x lies within FLOAT_TOL of a left vector,
        coordinatewise, paired with the right point that y denotes."""
        col = np.full(len(self.space) + 1, -1)   # index -1 (no point) reads the spare -1
        col[self.cols] = np.arange(len(self.cols))
        k = col[self.space.index_vectors(Y)]
        x, a = np.nonzero(_same(X, self.left))
        hit = np.zeros((len(X), len(self.cols)), dtype=bool)
        np.logical_or.at(hit, x, self.mask[a])      # OR of the mask rows x matches
        out = np.zeros((len(X), len(Y)), dtype=bool)
        out[:, k >= 0] = hit[:, k[k >= 0]]
        return out

    def witnesses_not_in(self, other: "PairSet") -> list:
        """The first MAX_WITNESSES pairs, in rounded order, that are not
        members of other (its `test`)."""
        right = self.right
        i, j = np.nonzero(self.mask & ~other.test(self.left, right))
        return [(tuple(self.left[a].tolist()), tuple(right[b].tolist()))
                for a, b in zip(i[:MAX_WITNESSES], j[:MAX_WITNESSES])]


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
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (tuple, list, set, frozenset)):
                return [plain(x) for x in v]
            if isinstance(v, (np.integer, np.floating, np.bool_)):
                return v.item()
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
    if f.is_lattice_valued():
        return Relation.from_mask(f.domain, S.codomain, S.mask_rows(f.img))
    return Relation.from_mask(f.domain, S.codomain, S.test(f.images, S.codomain.array))


def pushforward(f: ReimplMap, R: Relation) -> PairSet:
    """f_!R = {(f(x), z): (x, z) in R}: R's rows OR-ed per image of their hub
    (images equal to 9 decimals are one).  Images may leave the lattice, so
    the result is a pair set rather than a lattice relation."""
    if not f.domain.same_points(R.domain):
        raise InvalidArgument("pushforward: f must start at R's domain")
    return PairSet.from_mask(f.images, R.codomain, R.mask())


def _membership(pairs: PairSet, S: Relation) -> np.ndarray:
    """(len(left), len(cols)) bool: the pairs in S, read from S's rows by point
    index when the left rows are points of S's domain and cols of its codomain."""
    i = S.domain.index_vectors(pairs.left)
    if (i >= 0).all() and pairs.space.same_points(S.codomain):
        return S.mask_rows(i)[:, pairs.cols]
    return S.test(pairs.left, pairs.right)


def _within(pairs: PairSet, S: Relation) -> PairSet:
    """The pairs of a pair set that are members of S (still canonical)."""
    left, cols, mask = _trim(pairs.left, pairs.cols, pairs.mask & _membership(pairs, S))
    return PairSet(left, pairs.space, cols, mask)


def verify_adjunction(f: ReimplMap, R: Relation, S: Relation) -> LawReport:
    """R included in f*S  iff  f_!R included in S, checked independently."""
    pb = pullback(f, S)
    R_mask = R.mask()
    # R subset of f*S
    left = not (R_mask & ~pb.test(R.domain.array, R.codomain.array)).any()
    push = pushforward(f, R)
    right = not (push.mask & ~_membership(push, S)).any()  # f_!R subset of S
    holds = left == right
    witnesses = ()
    if not holds:
        i, j = np.nonzero(R_mask)
        witnesses = tuple((tuple(R.domain.array[a].tolist()),
                           tuple(R.codomain.array[b].tolist()))
                          for a, b in zip(i[:MAX_WITNESSES], j[:MAX_WITNESSES]))
    return LawReport("adjunction", holds, int(R_mask.sum()), len(push),
                     witnesses=witnesses,
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
    pushed = np.zeros((len(square.f.codomain), len(R.codomain)), dtype=bool)
    np.logical_or.at(pushed, square.f.img, R.mask())
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
    i, j = np.nonzero(consistent & ~lifted)
    failures = [(tuple(K_B.array[a].tolist()), tuple(K_C.array[b].tolist()))
                for a, b in zip(i[:MAX_WITNESSES], j[:MAX_WITNESSES])]
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


def _half_open_interval_fixture(N: int = 10):
    """The unit-interval lattice with and without its right endpoint.

    Delta^1 plays [0, 1] through the first coordinate; removing the point
    (N, 0) models the half-open interval whose missing limit breaks the
    patched ('closure-fix') pushforward.
    """
    full = enumerate_simplex(1, N)
    half = LatticeSpace.from_points(
        1, N, [p for p in full.points if p.coords[0] != N])
    endpoint = GridPoint((N, 0), N)
    return full, half, endpoint


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
    full, half, endpoint = _half_open_interval_fixture(N)
    hub = full if closed_hub else half
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
