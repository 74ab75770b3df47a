"""Closed alignment relations between lattice spaces and their algebra.

A relation is a set of pairs with one membership rule, `test(X, Y)`: for
(P, d) and (Q, d) arrays of weight vectors it returns the (P, Q) boolean
matrix of member pairs.  Tracking and turnover test at an absolute
tolerance of 1e-9, so off-lattice images of maps can be tested too.  A
projector's screen is a tuple of exact linear constraints: on every row
that denotes a lattice point (the rule of `lattice_rows`) it is decided
in integer arithmetic, the same verdict its mask gives, and only rows
that leave the lattice are tested within 1e-9.  Relations given by a
finite pair set are backed by their incidence mask (`Relation.from_mask`):
a vector off the lattice or off the space is never a member.  Single-pair
membership is derived from `test`, the pair set from the incidence mask.

The incidence rows of domain points i are read by index, `mask_rows(i)`:
the cached mask, else the stencil scatter below, else `test` on the points.
`mask`, determinization and `members(X, Y)`, the one membership rule of
the transport laws and the 2-cell test, read rows this way.

On the lattice, a translation-invariant relation -- tracking with
identity attributes, turnover, and the diagonal projectors -- is a
dilation: x relates to y iff y - x lies in a small integer offset stencil
D (in holdings units) and y passes the relation's screen, if any.  Its
incidence mask and menu actions scatter the domain holdings over D and
look the results up among the codomain points, at a cost of |hubs| x |D|
lookups instead of |hubs| x |codomain| float tests.  D is built on first
use, and only when its bounding box (2r+1)^n is no larger than the
codomain; otherwise they come from `test`, whose broadcast rules all run
in the row blocks of `geometry._row_blocks`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import geometry
from .geometry import (
    FLOAT_TOL,
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearConstraint,
    LinearFunctional,
    _row_blocks,
    lattice_rows,
)

# Guards on materialization: the boolean incidence mask is cheap (one byte
# per candidate pair), the tuple pair list is not.  The DOTS action path
# runs in row blocks and needs neither.
MASK_LIMIT = 50_000_000
PAIR_LIMIT = 5_000_000

# (hub, offset) pairs per block of the stencil scatter: the (pairs, d)
# int64 holdings block and its lookup temporaries stay a few MB.
_SCATTER_PAIRS = 1 << 16

Test = Callable[[np.ndarray, np.ndarray], np.ndarray]
# (r, keep): every offset of the stencil has |delta_i| <= r, and keep(D)
# selects the stencil's rows among (k, d) integer offsets D with sum 0.
StencilRule = tuple[int, Callable[[np.ndarray], np.ndarray]]

# The stencil {0} of the diagonal and the projectors.
_ORIGIN: StencilRule = (0, lambda D: np.ones(len(D), dtype=bool))


def _attr_matrix(g, dim: int) -> np.ndarray:
    """Normalize an attribute map to a (k, dim) matrix; None means identity."""
    if g is None:
        return np.eye(dim)
    m = np.asarray(g, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.shape[1] != dim:
        raise InvalidArgument(f"attribute map has {m.shape[1]} columns, expected {dim}")
    return m


def _by_rows(rule: Test, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(|X|, |Y|) bool: the broadcast rule(X, Y), applied to row blocks of X."""
    out = np.empty((len(X), len(Y)), dtype=bool)
    for s in _row_blocks(len(X), Y.size):
        out[s] = rule(X[s], Y)
    return out


def _same(X: np.ndarray, Y: np.ndarray, tol: float = FLOAT_TOL) -> np.ndarray:
    """(|X|, |Y|) bool: row pairs within tol in every coordinate."""
    if X.shape[1:] != Y.shape[1:]:
        return np.zeros((len(X), len(Y)), dtype=bool)
    return _by_rows(lambda A, B: np.abs(A[:, None, :] - B[None]).max(axis=2) <= tol, X, Y)


def _ball(A: np.ndarray, B: np.ndarray, bound: float) -> np.ndarray:
    """(|A|, |B|) bool: row pairs whose squared L2 distance is at most bound.

    The one L2 ball rule: tracking, erosion and the metric transports call
    it on their own row blocks."""
    return ((A[:, None, :] - B[None]) ** 2).sum(axis=2) <= bound


class Relation:
    """A closed alignment relation R between two lattice spaces.

    `kind` and `params` identify the defining formula.  `test(X, Y)` is the
    membership rule on weight-vector arrays (see the module docstring).
    `screen`, set on projectors and the diagonal, is the tuple of linear
    constraints (empty for the diagonal) whose closed region E gives a
    relation {(y, y): y in E}.  `mask`, when given, is the incidence
    matrix over the two point sets and agrees with `test` on them.
    `stencil_rule`, set on translation-invariant kinds, defines the integer
    offset stencil D with which, on the two point sets, (x, y) is a member
    iff y - x is in D and y passes `screen`; `stencil` builds D on first
    use, subject to the cost rule in the module docstring.
    """

    def __init__(self, domain: LatticeSpace, codomain: LatticeSpace,
                 kind: str, params: dict, test: Test,
                 screen: Optional[tuple[LinearConstraint, ...]] = None,
                 mask: Optional[np.ndarray] = None,
                 stencil_rule: Optional[StencilRule] = None):
        if domain.N != codomain.N:
            raise InvalidArgument(
                "relations require a shared resolution: "
                f"domain is 1/{domain.N}, codomain 1/{codomain.N}"
            )
        self.domain = domain
        self.codomain = codomain
        self.kind = kind
        self.params = params
        self.test = test
        self.screen = screen
        self.stencil_rule = stencil_rule
        self._mask = mask
        self._pairs: Optional[tuple[tuple[GridPoint, GridPoint], ...]] = None

    @classmethod
    def from_mask(cls, domain: LatticeSpace, codomain: LatticeSpace,
                  mask: np.ndarray, kind: str = "explicit",
                  params: Optional[dict] = None) -> "Relation":
        """The relation whose pairs are the true cells of an incidence mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(domain), len(codomain)):
            raise InvalidArgument(
                f"incidence mask has shape {mask.shape}, expected "
                f"({len(domain)}, {len(codomain)})"
            )
        def test(X, Y):
            i, j = domain.index_vectors(X), codomain.index_vectors(Y)
            rows, cols = i >= 0, j >= 0
            out = np.zeros((len(i), len(j)), dtype=bool)
            out[np.ix_(rows, cols)] = mask[np.ix_(i[rows], j[cols])]
            return out

        return cls(domain, codomain, kind, params or {}, test, mask=mask)

    @cached_property
    def _passes(self) -> np.ndarray:
        """(|codomain|,) bool: the screen's exact verdict on each codomain point."""
        out = np.ones(len(self.codomain), dtype=bool)
        for c in self.screen:
            out &= c.satisfied_by_holdings(self.codomain.holdings, self.codomain.N)
        return out

    # -- the integer stencil -------------------------------------------------

    @cached_property
    def stencil(self) -> Optional[np.ndarray]:
        """(k, d) int64 offsets D in holdings units, or None.

        None when the relation has no stencil rule, or when the rule's
        bounding box (2r+1)^n holds more offsets than the codomain has
        points, so scattering would cost more than streaming `test`.
        """
        if self.stencil_rule is None:
            return None
        r, keep = self.stencil_rule
        n = self.codomain.n
        if (2 * r + 1) ** n > len(self.codomain):
            return None
        box = np.indices((2 * r + 1,) * n).reshape(n, (2 * r + 1) ** n).T - r
        D = np.hstack([box, -box.sum(axis=1, keepdims=True)])
        return D[keep(D)]

    def _scatter(self, rows: np.ndarray):
        """Yield (k, j) index blocks: codomain point j is domain row rows[k]
        plus an offset of the stencil (the screen is not applied)."""
        H = self.domain.holdings[rows]
        D = self.stencil
        step = max(1, _SCATTER_PAIRS // max(len(H), 1))
        for start in range(0, len(D), step):
            # offset-major: the hubs are in key order, so each offset's
            # lookups arrive sorted
            T = D[start:start + step, None, :] + H[None, :, :]
            j = self.codomain.index_holdings(T.reshape(-1, T.shape[2])).reshape(T.shape[:2])
            m, k = np.nonzero(j >= 0)
            yield k, j[m, k]

    # -- materialization ---------------------------------------------------

    def mask_rows(self, i) -> np.ndarray:
        """(len(i), |codomain|) bool: the incidence rows of domain points i,
        from the cached mask, else the stencil scatter with the screen
        applied, else `test`; more than MASK_LIMIT cells are refused."""
        i = np.asarray(i, dtype=np.intp)
        size = len(i) * len(self.codomain)
        if size > MASK_LIMIT:
            raise InvalidArgument(f"refusing to materialize a {size}-cell incidence mask; "
                                  "use the action/menu path for large relations")
        if self._mask is not None:
            return self._mask[i]
        if self.stencil is None:
            return np.ascontiguousarray(self.test(self.domain.array[i], self.codomain.array))
        out = np.zeros((len(i), len(self.codomain)), dtype=bool)
        for k, j in self._scatter(i):
            out[k, j] = True
        return out & self._passes if self.screen else out

    def members(self, X: np.ndarray, Y: Optional[np.ndarray] = None,
                i: Optional[np.ndarray] = None) -> np.ndarray:
        """`test(X, Y)`, Y every codomain point by default.  When i and j, the
        point indices of X's and Y's rows (`index_vectors`; i may be given),
        are all >= 0, it is `mask_rows(i)[:, j]`, so a row near a point is
        decided there; j = every codomain point in order skips the gather."""
        i = self.domain.index_vectors(X) if i is None else i
        j = None if Y is None else self.codomain.index_vectors(Y)
        if (i < 0).any() or (j is not None and (j < 0).any()):
            return self.test(X, self.codomain.array if Y is None else Y)
        rows = self.mask_rows(i)
        every = j is None or np.array_equal(j, np.arange(len(self.codomain)))
        return rows if every else rows[:, j]

    def mask(self) -> np.ndarray:
        """Boolean (|domain|, |codomain|) incidence matrix (cached)."""
        if self._mask is None:
            self._mask = self.mask_rows(np.arange(len(self.domain)))
        return self._mask

    @property
    def pairs(self) -> tuple[tuple[GridPoint, GridPoint], ...]:
        """Enumerated pair set, duplicate-free, lexicographically ordered."""
        if self._pairs is None:
            mask = self.mask()
            present = int(mask.sum())
            if present > PAIR_LIMIT:
                raise InvalidArgument(
                    f"refusing to enumerate {present} pairs; work with the "
                    "incidence mask instead"
                )
            dp, cp = self.domain.points, self.codomain.points
            self._pairs = tuple(
                (dp[i], cp[j]) for i, j in zip(*np.nonzero(mask))
            )
        return self._pairs

    # -- membership ---------------------------------------------------------

    def contains_vectors(self, x: Sequence[float], y: Sequence[float]) -> bool:
        """Membership of one pair of (possibly off-lattice) weight vectors."""
        return bool(self.contains_rows([x], [y])[0])

    def contains_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Membership of each row pair (X[i], Y[i]): (M,) bool, the diagonal of
        `test` on row blocks of X and Y.  A block tests b x b pairs for b
        verdicts, so a row is charged BLOCK_CELLS / 64 cells: 64 rows a block."""
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        return np.concatenate([np.diagonal(self.test(X[s], Y[s])) for s in
                               _row_blocks(len(X), geometry.BLOCK_CELLS // 64)])

    def menu_mask(self, hub_mask: np.ndarray) -> np.ndarray:
        """For selected domain rows, which codomain points are hit by some hub.

        With no cached mask, a relation with a stencil hits the hub holdings
        plus each offset that are codomain points and pass the screen, if
        any.  Otherwise the hubs' `mask_rows` are OR-ed in row blocks, so big
        menus never materialize the full incidence mask.
        """
        i = np.flatnonzero(hub_mask)
        hit = np.zeros(len(self.codomain), dtype=bool)
        if self._mask is None and self.stencil is not None:
            for _, j in self._scatter(i):
                hit[j] = True
            return hit & self._passes if self.screen else hit
        for s in _row_blocks(len(i), self.codomain.holdings.size):
            hit |= self.mask_rows(i[s]).any(axis=0)
        return hit

    # -- misc ----------------------------------------------------------------

    def describe(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params.items()
                      if isinstance(v, (int, float, str, Fraction)))
        return f"{self.kind}({ps})"

    def __repr__(self):
        return f"Relation<{self.describe()}>"


# -- constructors -------------------------------------------------------------


def build_relation(domain: LatticeSpace, codomain: LatticeSpace,
                   kind: str, **params) -> Relation:
    """Build one of the named relation kinds.

    track(epsilon, gA, gB)      ||gA x - gB y||_2 <= epsilon
    fee_cap(tau, functional)    diagonal projector {(y,y): Fee(y) <= tau}
    turnover(kappa)             ||y - x||_1 <= kappa
    liquidity_cap(alpha, illiquid)   projector {(y,y): sum_{i in I} y_i <= alpha}
    position_caps(caps)         projector {(y,y): y_i <= c_i}
    maintenance(kappa, costs)   projector {(y,y): sum tau_i y_i <= kappa}
    custom(mask_fn)             mask_fn(X, Y) is the vectorized rule; `test`
                                applies it to row blocks of X

    A projector's screen is exact on lattice points (module docstring).
    """
    if kind == "track":
        eps = float(params["epsilon"])
        if not eps >= 0:
            raise InvalidArgument("tracking tolerance must be non-negative")
        gA = _attr_matrix(params.get("gA"), domain.n + 1)
        gB = _attr_matrix(params.get("gB"), codomain.n + 1)
        if gA.shape[0] != gB.shape[0]:
            raise InvalidArgument("attribute maps must target the same space")

        def test(X, Y, gA=gA, gB=gB, bound=(eps + FLOAT_TOL) ** 2):
            return _by_rows(lambda A, B: _ball(A, B, bound), X @ gA.T, Y @ gB.T)

        rule = None
        identity = np.eye(domain.n + 1)
        if np.array_equal(gA, identity) and np.array_equal(gB, identity):
            # ||delta||_2 <= reach in holdings units, so |delta_i| <= reach
            reach = (eps + FLOAT_TOL) * domain.N
            rule = (int(min(reach, domain.N)),
                    lambda D, bound=reach ** 2: (D * D).sum(axis=1) <= bound)
        return Relation(domain, codomain, "track",
                        {"epsilon": eps, "gA": gA, "gB": gB}, test,
                        stencil_rule=rule)

    if kind == "turnover":
        kappa = float(params["kappa"])
        if not kappa >= 0:
            raise InvalidArgument("turnover budget must be non-negative")
        if domain.n != codomain.n:
            raise InvalidArgument("turnover relates spaces over the same assets")

        def test(X, Y, bound=kappa + FLOAT_TOL):
            return _by_rows(lambda A, B: np.abs(A[:, None, :] - B[None]).sum(axis=2) <= bound,
                            X, Y)

        # ||delta||_1 <= reach in holdings units; delta sums to 0, so its
        # positive and negative parts each sum to at most reach / 2
        reach = (kappa + FLOAT_TOL) * domain.N
        rule = (int(min(reach / 2, domain.N)),
                lambda D, bound=reach: np.abs(D).sum(axis=1) <= bound)
        return Relation(domain, codomain, "turnover", {"kappa": kappa}, test,
                        stencil_rule=rule)

    if kind in ("fee_cap", "liquidity_cap", "position_caps", "maintenance"):
        return _projector(domain, codomain, kind, params)

    if kind == "custom":
        if params.get("mask_fn") is None:
            raise InvalidArgument("a custom relation needs a vectorized mask_fn(X, Y); "
                                  "per-pair predicates are not supported")
        return Relation(domain, codomain, "custom", params,
                        lambda X, Y, rule=params["mask_fn"]: _by_rows(rule, X, Y))

    raise InvalidArgument(f"unknown relation kind {kind!r}")


def _projector(domain: LatticeSpace, codomain: LatticeSpace,
               kind: str, params: dict) -> Relation:
    """Diagonal relations {(y, y): y in E} for a screen E of linear constraints."""
    if domain.n != codomain.n:
        raise InvalidArgument("projectors are diagonal: spaces must share assets")
    d = codomain.n + 1

    if kind == "fee_cap":
        tau = float(params["tau"])
        if not 0 <= tau < np.inf:
            raise InvalidArgument("fee cap must be finite and non-negative")
        fee: LinearFunctional = params["functional"]
        screen = (LinearConstraint(fee.coeffs, tau),)
        stored = {"tau": tau, "functional": fee}
    elif kind == "liquidity_cap":
        alpha = float(params["alpha"])
        if not 0 <= alpha < np.inf:
            raise InvalidArgument("liquidity cap must be finite and non-negative")
        illiquid = tuple(int(i) for i in params["illiquid"])
        if any(not 0 <= i < d for i in illiquid):
            raise InvalidArgument(f"illiquid indices {illiquid} out of range")
        # an index listed twice counts twice, as in sum_{i in I} y_i
        screen = (LinearConstraint(tuple(illiquid.count(i) for i in range(d)), alpha),)
        stored = {"alpha": alpha, "illiquid": illiquid}
    elif kind == "position_caps":
        caps = np.asarray(params["caps"], dtype=np.float64)
        if caps.shape != (d,):
            raise InvalidArgument(f"need one cap per asset ({d}), got {caps.shape}")
        if not np.all((caps >= 0) & (caps < np.inf)):
            raise InvalidArgument("position caps must be finite and non-negative")
        screen = tuple(LinearConstraint(tuple(int(j == i) for j in range(d)), cap)
                       for i, cap in enumerate(caps.tolist()))
        stored = {"caps": caps}
    else:  # maintenance
        kappa = float(params["kappa"])
        if not 0 <= kappa < np.inf:
            raise InvalidArgument("maintenance budget must be finite and non-negative")
        costs = np.asarray(params["costs"], dtype=np.float64)
        if costs.shape != (d,) or not np.isfinite(costs).all():
            raise InvalidArgument(f"need one finite cost per asset ({d}), got {costs}")
        screen = (LinearConstraint(tuple(costs.tolist()), kappa),)
        stored = {"kappa": kappa, "costs": costs}

    def test(X, Y, N=codomain.N):
        # exact on the rows that denote lattice holdings, within 1e-9 elsewhere
        H, on = lattice_rows(Y, N)
        passes = np.ones(len(Y), dtype=bool)
        for c in screen:
            passes &= np.where(on, c.satisfied_by_holdings(H, N), c.satisfied_by_rows(Y))
        return _same(X, Y) & passes[None, :]

    return Relation(domain, codomain, kind, stored, test, screen=screen,
                    stencil_rule=_ORIGIN)


def relation_from_dict(domain: LatticeSpace, codomain: LatticeSpace, d: dict) -> Relation:
    """The relation of a JSON definition {"kind": ..., "params": {...}}; a
    parameter its kind reads and the definition lacks is an InvalidArgument."""
    params = dict(d.get("params", {}))
    if "functional" in params and isinstance(params["functional"], dict):
        params["functional"] = LinearFunctional.from_dict(params["functional"])
    try:
        return build_relation(domain, codomain, d.get("kind"), **params)
    except KeyError as e:
        raise InvalidArgument(f"a {d.get('kind')} relation needs the parameter "
                              f"{e.args[0]!r}") from None


def diagonal(space: LatticeSpace) -> Relation:
    """The vertical identity Delta_K."""
    return Relation(space, space, "diagonal", {}, _same, screen=(),
                    stencil_rule=_ORIGIN)


def full_relation(domain: LatticeSpace, codomain: LatticeSpace) -> Relation:
    return Relation(domain, codomain, "full", {},
                    lambda X, Y: np.ones((len(X), len(Y)), dtype=bool))


def empty_relation(domain: LatticeSpace, codomain: LatticeSpace) -> Relation:
    return Relation(domain, codomain, "empty", {},
                    lambda X, Y: np.zeros((len(X), len(Y)), dtype=bool))


def explicit_relation(domain: LatticeSpace, codomain: LatticeSpace,
                      pairs: Iterable[tuple[GridPoint, GridPoint]]) -> Relation:
    """A relation given by an explicit finite pair set (closed, as finite)."""
    pairs = tuple(pairs)
    mask = np.zeros((len(domain), len(codomain)), dtype=bool)
    mask[domain.indices_of(x for x, _ in pairs), codomain.indices_of(y for _, y in pairs)] = True
    return Relation.from_mask(domain, codomain, mask)


# -- algebra -------------------------------------------------------------------


def compose_vertical(S: Relation, R: Relation) -> Relation:
    """Relational composite S . R = {(x,z): exists y, (x,y) in R, (y,z) in S}."""
    if R.codomain.N != S.domain.N or R.codomain.n != S.domain.n:
        raise InvalidArgument(
            f"cannot compose: R lands in ({R.codomain.n}, 1/{R.codomain.N}) "
            f"but S starts at ({S.domain.n}, 1/{S.domain.N})"
        )
    if not R.codomain.same_points(S.domain):
        raise InvalidArgument("cannot compose: intermediate spaces have different points")
    # float counts: a sum of non-negative terms is never rounded to 0
    m = (R.mask().astype(np.float32) @ S.mask().astype(np.float32)) > 0
    return Relation.from_mask(R.domain, S.codomain, m, kind="compose",
                              params={"outer": S.describe(), "inner": R.describe()})


def dagger(R: Relation) -> Relation:
    """Converse relation: pairs swapped, domain and codomain swapped.

    A stencil D becomes -D; a screen stays, as it screens a diagonal.
    """
    rule = None
    if R.stencil_rule is not None:
        r, keep = R.stencil_rule
        rule = (r, lambda D: keep(-D))
    return Relation(R.codomain, R.domain, f"dagger[{R.kind}]", R.params,
                    lambda X, Y: R.test(Y, X).T, screen=R.screen,
                    mask=None if R._mask is None else R._mask.T,
                    stencil_rule=rule)


def intersect(R: Relation, Rp: Relation) -> Relation:
    """Pairwise intersection; the test is the conjunction."""
    if not (R.domain.same_points(Rp.domain) and R.codomain.same_points(Rp.codomain)):
        raise InvalidArgument("intersection requires identical domain and codomain")
    both = None if R._mask is None or Rp._mask is None else R._mask & Rp._mask
    return Relation(R.domain, R.codomain, "intersect",
                    {"left": R.describe(), "right": Rp.describe()},
                    lambda X, Y: R.test(X, Y) & Rp.test(X, Y), mask=both)


def graph_of(f) -> Relation:
    """Graph(f) as a vertical morphism.

    Every image must satisfy the codomain's membership predicate within
    tolerance.  A pair (x, y) is a member when x is a point of f's domain
    and y is within tolerance of f(x).
    """
    domain: LatticeSpace = f.domain
    codomain: LatticeSpace = f.codomain
    images = f.images
    outside = np.flatnonzero(~codomain.contains_rows(images))
    if len(outside):
        i = int(outside[0])
        raise InvalidArgument(
            f"map is not into its codomain: f({domain.points[i]}) = {images[i].tolist()}"
        )
    def test(X, Y):
        i = domain.index_vectors(X)
        out = np.zeros((len(X), len(Y)), dtype=bool)
        out[i >= 0] = _same(images[i[i >= 0]], Y)
        return out

    return Relation(domain, codomain, "graph", {"map": getattr(f, "name", "f")}, test)


def two_cell_exists(f, g, R: Relation, S: Relation) -> bool:
    """Thin 2-cell test: Graph(g) . R included in S . Graph(f).

    f: K1 -> K2, g: K3 -> K4, R in K1 x K3, S in K2 x K4.  Down-then-right
    pairs (f is applied to the hub, g to the aligned partner) are checked
    against S's membership, `S.members(f.images, g.images)`.
    """
    for m, start, end, a, b in ((f, R.domain, S.domain, "f", "domain"),
                                (g, R.codomain, S.codomain, "g", "codomain")):
        if not (m.domain.same_points(start) and m.codomain.same_points(end)):
            raise InvalidArgument(f"{a} must map R's {b} to S's {b}")
    return not (R.mask() & ~S.members(f.images, g.images, i=f.img)).any()
