"""Pullback/pushforward of alignment relations and the coherence-law harness.

Pushforwards carry continuous image points, so results are held as pair
sets keyed by rounded coordinates (dedup tolerance 1e-9).  Every equality
law is verified with both sides built from the same hub enumeration, which
keeps float comparisons bitwise-stable; membership tests through a
relation's `test` use the tolerance instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .geometry import (
    FLOAT_TOL,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    enumerate_simplex,
)
from .optimize import ReimplMap, identity_map, inclusion_map
from .relations import Relation, explicit_relation

MAX_WITNESSES = 10

_KEY_DECIMALS = 9


def _key(v) -> tuple[float, ...]:
    return tuple(np.round(np.asarray(v, dtype=float), _KEY_DECIMALS).tolist())


@dataclass(frozen=True)
class PairSet:
    """A finite set of (left-vector, right-vector) pairs with rounded keys."""

    entries: dict[tuple, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "PairSet":
        entries = {}
        for a, b in pairs:
            av = np.asarray(a if not isinstance(a, GridPoint) else a.to_array(), dtype=float)
            bv = np.asarray(b if not isinstance(b, GridPoint) else b.to_array(), dtype=float)
            entries[(_key(av), _key(bv))] = (av, bv)
        return cls(entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(sorted(self.entries))

    def keys(self) -> set:
        return set(self.entries)

    def vectors(self):
        return [self.entries[k] for k in sorted(self.entries)]

    def contains(self, a, b, tol: float = FLOAT_TOL) -> bool:
        """Tolerance membership (linear scan; law-suite sets are small)."""
        if (_key(a), _key(b)) in self.entries:
            return True
        av = np.asarray(a, dtype=float)
        bv = np.asarray(b, dtype=float)
        for left, right in self.entries.values():
            if (np.abs(left - av).max() <= tol and np.abs(right - bv).max() <= tol):
                return True
        return False

    def issubset(self, other: "PairSet", tol: float = FLOAT_TOL) -> bool:
        return all(other.contains(a, b, tol) for a, b in self.vectors())

    def witnesses_not_in(self, other: "PairSet", tol: float = FLOAT_TOL) -> list:
        out = []
        for k in sorted(self.entries):
            a, b = self.entries[k]
            if not other.contains(a, b, tol):
                out.append((tuple(a.tolist()), tuple(b.tolist())))
            if len(out) >= MAX_WITNESSES:
                break
        return out


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


def map_images(f: ReimplMap) -> np.ndarray:
    """(P, m+1) array of images of the domain lattice, in point order."""
    return np.asarray([f.evaluate(p) for p in f.domain.points], dtype=float)


def pullback(f: ReimplMap, S: Relation) -> Relation:
    """f*S = {(x, z): (f(x), z) in S}, an exact relation on f's domain lattice."""
    if not f.codomain.same_points(S.domain):
        raise InvalidArgument("pullback: f must land in S's domain")
    return Relation.from_mask(f.domain, S.codomain,
                              S.test(map_images(f), S.codomain.array))


def pushforward(f: ReimplMap, R: Relation) -> PairSet:
    """f_!R = {(f(x), z): (x, z) in R}, deduplicated at tolerance.

    The result may contain off-lattice first components, so it is a pair
    set rather than a lattice relation.
    """
    if not f.domain.same_points(R.domain):
        raise InvalidArgument("pushforward: f must start at R's domain")
    images = {p.coords: f.evaluate(p) for p in f.domain.points}
    return PairSet.from_pairs(
        (images[x.coords], z.to_array()) for x, z in R.pairs
    )


def pushforward_contains(f: ReimplMap, R: Relation, y, z,
                         tol: float = FLOAT_TOL) -> bool:
    """Membership (y, z) in f_!R: exists x with f(x) = y and (x, z) in R."""
    yv = np.asarray(y, dtype=float)
    zv = np.asarray(z if not isinstance(z, GridPoint) else z.to_array(), dtype=float)
    for x, w in R.pairs:
        if np.abs(w.to_array() - zv).max() > tol:
            continue
        if np.abs(np.asarray(f.evaluate(x)) - yv).max() <= tol:
            return True
    return False


def verify_adjunction(f: ReimplMap, R: Relation, S: Relation) -> LawReport:
    """R included in f*S  iff  f_!R included in S, checked independently."""
    pb = pullback(f, S)
    # R subset of f*S
    left = not (R.mask() & ~pb.test(R.domain.array, R.codomain.array)).any()
    push = pushforward(f, R)
    right = all(S.contains_vectors(a, b) for a, b in push.vectors())  # f_!R subset of S
    holds = left == right
    witnesses = ()
    if not holds:
        side = [(tuple(x.to_array().tolist()), tuple(z.to_array().tolist()))
                for x, z in R.pairs[:MAX_WITNESSES]]
        witnesses = tuple(side)
    return LawReport("adjunction", holds, len(R.pairs), len(push),
                     witnesses=witnesses,
                     detail={"hub_side": left, "spoke_side": right})


def verify_functoriality(f: ReimplMap, g: ReimplMap, R: Relation,
                         S: Optional[Relation] = None) -> LawReport:
    """(g . f)_! R  ==  g_! (f_! R); dually f*(g*S) == (g.f)*S when S given."""
    if not f.codomain.same_points(g.domain):
        raise InvalidArgument("functoriality: maps do not compose")
    from .optimize import compose_maps

    gf = compose_maps(g, f)
    direct = pushforward(gf, R)
    inner = pushforward(f, R)
    # Push the intermediate pair set through g (g must accept its vectors).
    staged = PairSet.from_pairs(
        (g.evaluate(a), b) for a, b in inner.vectors()
    )
    holds = direct.keys() == staged.keys()
    witnesses = tuple((direct.witnesses_not_in(staged)
                       + staged.witnesses_not_in(direct))[:MAX_WITNESSES])
    detail = {}
    if S is not None:
        lhs = pullback(f, pullback(g, S))
        rhs = pullback(gf, S)
        dual_ok = {p for p in lhs.pairs} == {p for p in rhs.pairs}
        detail["pullback_dual"] = dual_ok
        holds = holds and dual_ok
    return LawReport("functoriality", holds, len(direct), len(staged),
                     witnesses=() if holds else witnesses, detail=detail)


def verify_frobenius(f: ReimplMap, R: Relation, S: Relation) -> LawReport:
    """f_!(R intersect f*S) == f_!R intersect S, as identical pair sets."""
    from .relations import intersect

    pb = pullback(f, S)
    lhs = pushforward(f, intersect(R, pb))
    push = pushforward(f, R)
    rhs = PairSet.from_pairs(
        (a, b) for a, b in push.vectors() if S.contains_vectors(a, b)
    )
    holds = lhs.keys() == rhs.keys()
    witnesses = tuple((lhs.witnesses_not_in(rhs)
                       + rhs.witnesses_not_in(lhs))[:MAX_WITNESSES])
    return LawReport("frobenius", holds, len(lhs), len(rhs),
                     witnesses=() if holds else witnesses)


@dataclass(frozen=True)
class CommutingSquare:
    """g: K_A -> K_B, f': K_A -> K_C, f: K_B -> K_D, h: K_C -> K_D with f.g = h.f'."""

    g: ReimplMap
    fp: ReimplMap
    f: ReimplMap
    h: ReimplMap

    def __post_init__(self):
        if not self.g.domain.same_points(self.fp.domain):
            raise InvalidArgument("square: g and f' must share the hub K_A")
        worst = 0.0
        for x in self.g.domain.points:
            top = self.f.evaluate(self.g.evaluate(x))
            bottom = self.h.evaluate(self.fp.evaluate(x))
            worst = max(worst, float(np.abs(np.asarray(top) - np.asarray(bottom)).max()))
        if worst > FLOAT_TOL:
            raise InvalidArgument(
                f"square does not commute: max pointwise discrepancy {worst:.3e}"
            )


def _require_lattice_valued(square: CommutingSquare):
    """Beck-Chevalley transports are enumerated over lattices, so every map
    in the square must send lattice points to lattice points."""
    for m in (square.g, square.fp, square.f, square.h):
        if not m.is_lattice_valued():
            raise InvalidArgument(
                f"map {m.name} has off-lattice images; BC verification "
                "requires lattice-valued squares"
            )


def _late_audit_pairs(square: CommutingSquare, R: Relation) -> PairSet:
    """h*(f_! R) enumerated over K_C x Z (vectorized membership)."""
    f_img = map_images(square.f)                      # (|B|, d)
    R_mask = R.mask()                                 # (|B|, |Z|)
    K_C = square.h.domain
    h_img = map_images(square.h)                      # (|C|, d)
    # match[c, b]: h(y_c) equals f(y_b) within tolerance
    match = (np.abs(h_img[:, None, :] - f_img[None, :, :]).max(axis=2) <= FLOAT_TOL)
    member = (match.astype(np.float32) @ R_mask.astype(np.float32)) > 0  # (|C|, |Z|)
    return PairSet.from_pairs(
        (K_C.points[i].to_array(), R.codomain.points[j].to_array())
        for i, j in zip(*np.nonzero(member))
    )


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


def pointwise_cartesian(square: CommutingSquare, tol: float = FLOAT_TOL) -> tuple[bool, list]:
    """Witness search: every consistent (y, z) with f(y) = h(z) lifts to K_A."""
    K_B, K_C = square.g.codomain, square.fp.codomain
    g_img = map_images(square.g)
    fp_img = map_images(square.fp)
    f_img = map_images(square.f)
    h_img = map_images(square.h)
    consistent = (np.abs(f_img[:, None, :] - h_img[None, :, :]).max(axis=2) <= tol)
    g_hits = (np.abs(g_img[:, None, :] - K_B.array[None, :, :]).max(axis=2) <= tol)
    fp_hits = (np.abs(fp_img[:, None, :] - K_C.array[None, :, :]).max(axis=2) <= tol)
    lifted = (g_hits.astype(np.float32).T @ fp_hits.astype(np.float32)) > 0  # (|B|, |C|)
    failures = [
        (tuple(K_B.points[i].to_array().tolist()),
         tuple(K_C.points[j].to_array().tolist()))
        for i, j in zip(*np.nonzero(consistent & ~lifted))
    ][:MAX_WITNESSES]
    return not failures, failures


def verify_strict_bc(square: CommutingSquare, R: Relation) -> LawReport:
    """Strict equality f'_!(g* R) == h*(f_! R), plus the cartesianness test."""
    if not square.f.domain.same_points(R.domain):
        raise InvalidArgument("strict BC: R must live on K_B (f's domain)")
    _require_lattice_valued(square)
    cartesian, cart_failures = pointwise_cartesian(square)
    lhs = pushforward(square.fp, pullback(square.g, R))
    rhs = _late_audit_pairs(square, R)
    holds = lhs.keys() == rhs.keys()
    witnesses = tuple((lhs.witnesses_not_in(rhs)
                       + rhs.witnesses_not_in(lhs))[:MAX_WITNESSES])
    return LawReport("strict_bc", holds, len(lhs), len(rhs),
                     witnesses=() if holds else witnesses,
                     detail={"pointwise_cartesian": cartesian,
                             "cartesian_failures": cart_failures[:MAX_WITNESSES]})


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


def _endpoint_closure(pairs: PairSet, half: LatticeSpace, endpoint: GridPoint,
                      N: int) -> PairSet:
    """Topological-closure surrogate on the fixture: complete diagonal limits.

    A sequence marching up the removed endpoint exists exactly when the
    immediate-predecessor diagonal pair is present; its limit (1, 1) is
    then adjoined, mirroring cl(f_!R) in the continuous counterexample.
    """
    pred = GridPoint((N - 1, 1), N).to_array()
    ev = endpoint.to_array()
    out = dict(pairs.entries)
    if pairs.contains(pred, pred):
        out[(_key(ev), _key(ev))] = (ev, ev)
    return PairSet(out)


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
        pb = pullback(incl, S)
        filtered = [(x, z) for x, z in R.pairs if pb.contains(x, z)]
        lhs = _endpoint_closure(
            PairSet.from_pairs((incl.evaluate(x), z.to_array()) for x, z in filtered),
            hub, endpoint, N)
        closed_push = _endpoint_closure(pushforward(incl, R), hub, endpoint, N)
        rhs = PairSet.from_pairs(
            (a, b) for a, b in closed_push.vectors() if S.contains_vectors(a, b))
    elif which == "bc":
        # g = f' = inclusion, f = h = id; R lives on K_B = full.
        ident = identity_map(full)
        lhs = _endpoint_closure(
            pushforward(incl, pullback(incl, S)), hub, endpoint, N)
        push = _endpoint_closure(pushforward(ident, S), hub, endpoint, N)
        rhs_pairs = []
        for y in full.points:
            for z in full.points:
                if push.contains(y.to_array(), z.to_array()):
                    rhs_pairs.append((y, z))
        rhs = PairSet.from_pairs(rhs_pairs)
    else:
        raise InvalidArgument("which must be 'frobenius' or 'bc'")

    holds = lhs.keys() == rhs.keys()
    witnesses = tuple((rhs.witnesses_not_in(lhs)
                       + lhs.witnesses_not_in(rhs))[:MAX_WITNESSES])
    return LawReport(f"closure_fix_{which}", holds, len(lhs), len(rhs),
                     witnesses=() if holds else witnesses,
                     detail={"closed_hub": closed_hub,
                             "lhs": sorted(lhs.keys()), "rhs": sorted(rhs.keys())})
