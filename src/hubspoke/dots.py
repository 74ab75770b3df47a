"""The menu calculus: actions K . R, action laws, determinization, templates.

A menu is a boolean mask over a lattice space, with the provenance of the
relations that produced it.  An action is one `menu_mask` of the hub mask,
a fiber F_R(x) is R's incidence row at x (`Relation.mask_rows`) and
determinization one masked argmax over the menu's rows: none builds a pair
set or a GridPoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import (
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    _row_blocks,
    enumerate_simplex,
    snap_rows,
)
from .optimize import Infeasible, ReimplMap, _over_fibers
from .relations import Relation, build_relation, compose_vertical, diagonal
from .transport import LawReport, MAX_WITNESSES

# Hard cap on the cells (core x satellite pairs x (n+1)) of one mix, checked
# before the scan: about 8 s at 70 ns a cell.
MAX_MIX_CELLS = 120_000_000


@dataclass(frozen=True, eq=False)
class Menu:
    """A reachable set of spoke portfolios, with its narrowing history:
    the points of `space` whose entries of the read-only bool `mask` are True."""

    space: LatticeSpace
    mask: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.array(self.mask)
        if m.dtype != bool or m.shape != (len(self.space),):
            raise InvalidArgument(f"a menu mask is a ({len(self.space)},) bool array, "
                                  f"got {m.dtype} {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    def __len__(self):
        return int(np.count_nonzero(self.mask))

    @property
    def points(self) -> tuple[GridPoint, ...]:
        """The menu's points as GridPoints, in the space's order."""
        return tuple(GridPoint(row, self.space.N)
                     for row in map(tuple, self.space.holdings[self.mask].tolist()))

    def mask_on(self, space: LatticeSpace) -> np.ndarray:
        """The menu as a mask over `space`; a point outside it is an error."""
        if space.same_points(self.space):
            return self.mask
        rows = self.space.holdings[self.mask]
        i = space.index_holdings(rows)
        if (i < 0).any():
            raise InvalidArgument(f"{rows[i < 0][0].tolist()} is not a point of this space")
        m = np.zeros(len(space), dtype=bool)
        m[i] = True
        return m


MenuLike = Union[Menu, LatticeSpace]


def _as_menu(K: MenuLike) -> Menu:
    if isinstance(K, Menu):
        return K
    return Menu(K, np.ones(len(K), dtype=bool), provenance=(K.describe(),))


def action(K: MenuLike, R: Relation) -> Menu:
    """K . R: all codomain points aligned with some point of K.

    The menu's points must all belong to the relation's domain lattice
    (a menu produced by a previous action, or any subset space, qualifies).
    """
    menu = _as_menu(K)
    try:
        hub_mask = menu.mask_on(R.domain)
    except InvalidArgument:
        raise InvalidArgument(
            "action: the menu holds points outside the relation's domain"
        ) from None
    return Menu(R.codomain, R.menu_mask(hub_mask),
                provenance=menu.provenance + (R.describe(),))


def verify_action_laws(K: MenuLike, R: Relation, S: Relation,
                       wide: Optional[LatticeSpace] = None,
                       projector: Optional[Relation] = None) -> LawReport:
    """Check the five action laws on concrete data, as exact set identities.

    (a) closedness/non-emptiness bookkeeping, (b) unitality with the
    diagonal, (c) associativity against vertical composition, (d)
    isotonicity against the wider space (default: the ambient lattice of
    K's space), (e) the projector law for a diagonal relation (default:
    the identity projector on R's codomain).
    """
    menu = _as_menu(K)
    results = {"closedness": True}  # finite point sets are closed by construction
    witnesses: list = []

    def law(name, holds, lhs, rhs):
        results[name] = bool(holds)
        if not holds:
            witnesses.append((name, lhs, rhs))

    menu_R = action(menu, R)
    unital = action(menu, diagonal(menu.space))
    law("unitality", np.array_equal(unital.mask, menu.mask), len(unital), len(menu))
    two_step = action(menu_R, S)
    composed = action(menu, compose_vertical(S, R))
    law("associativity", np.array_equal(two_step.mask, composed.mask),
        len(two_step), len(composed))
    if wide is None:
        wide = enumerate_simplex(menu.space.n, menu.space.N)
    wide_menu = action(wide, R)
    law("isotonicity", not (menu_R.mask & ~wide_menu.mask).any(),
        len(menu_R), len(wide_menu))
    proj = projector if projector is not None else diagonal(R.codomain)
    once = action(menu_R, proj)
    twice = action(once, proj)
    fixed = proj.contains_rows(proj.codomain.array, proj.codomain.array)
    screened = menu_R.mask_on(proj.codomain) & fixed
    law("projector", np.array_equal(once.mask, screened)
        and np.array_equal(twice.mask, once.mask), len(once), int(screened.sum()))

    # Non-emptiness is bookkeeping, not a law: the empty menu is a valid
    # (closed) outcome and must not fail the suite.
    holds = all(results.values())
    results["nonempty"] = len(menu_R) > 0
    return LawReport("action_laws", holds, len(menu_R), len(wide_menu),
                     witnesses=tuple(witnesses[:MAX_WITNESSES]) if not holds else (),
                     detail=results)


def determinize_relation(K: MenuLike, R: Relation, alpha: float) -> ReimplMap:
    """Select from each fiber F_R(x), x in K, the point minimizing alpha*||y||^2.

    One masked argmax over R's rows at the menu's hubs (`mask_rows`, so a
    small menu needs no full mask): the first best member is the
    lexicographically smallest.  alpha must be positive and finite (it
    is what makes the squared-norm penalty a strictly convex tie-splitter);
    a hub with an empty fiber is Infeasible.
    """
    menu = _as_menu(K)
    rows = np.flatnonzero(menu.mask_on(R.domain))
    mask = R.mask_rows(rows)
    if not 0 < alpha < np.inf:
        raise InvalidArgument("determinization requires a finite alpha > 0")
    empty = np.flatnonzero(~mask.any(axis=1))
    if len(empty):
        x = GridPoint(tuple(R.domain.holdings[rows[empty[0]]].tolist()), R.domain.N)
        raise Infeasible(f"empty fiber at hub {x}")
    domain = menu.space
    if not menu.mask.all():
        domain = LatticeSpace(domain.n, domain.N, (), domain.holdings[menu.mask],
                              explicit=True)
    penalty = -alpha * (R.codomain.array ** 2).sum(axis=1)
    return ReimplMap(domain, R.codomain, "lattice_argmin",
                     img=_over_fibers(np.argmax, mask, penalty), name="sel")


@dataclass(frozen=True)
class WiringTemplate:
    """A reusable multi-input wiring pattern producing a menu."""

    kind: str
    params: dict

    @classmethod
    def core_satellite(cls, w: float, output: LatticeSpace,
                       global_screen: Optional[Relation] = None) -> "WiringTemplate":
        if not 0.0 <= w <= 1.0:
            raise InvalidArgument("mixing weight w must lie in [0, 1]")
        return cls("core_satellite", {"w": w, "output": output,
                                      "global_screen": global_screen})

    @classmethod
    def liquidity_pipeline(cls, alpha: float, illiquid: Sequence[int],
                           caps: Sequence[float], kappa: float,
                           costs: Sequence[float]) -> "WiringTemplate":
        return cls("liquidity_pipeline", {
            "alpha": alpha, "illiquid": tuple(illiquid),
            "caps": tuple(caps), "kappa": kappa, "costs": tuple(costs),
        })


def apply_template(t: WiringTemplate, inputs: Sequence[MenuLike]) -> Menu:
    """Evaluate a wiring template on input spaces, returning the output menu."""
    if t.kind == "core_satellite":
        if len(inputs) != 2:
            raise InvalidArgument("core_satellite takes exactly two inputs")
        core, sat = (_as_menu(k) for k in inputs)
        out: LatticeSpace = t.params["output"]
        if core.space.n != out.n or sat.space.n != out.n:
            raise InvalidArgument("core/satellite universes must match the output")
        C, Sat = core.space.array[core.mask], sat.space.array[sat.mask]
        # the mixes of every core and satellite point, snapped into out
        w = t.params["w"]
        hit = np.zeros(len(out), dtype=bool)
        for s in _row_blocks(len(C), Sat.size, MAX_MIX_CELLS,
                             f"core-satellite mix of {len(C)} x {len(Sat)} points"):
            mix = w * C[s, None, :] + (1.0 - w) * Sat[None, :, :]
            i = out.index_holdings(snap_rows(mix.reshape(-1, out.n + 1), out.N))
            hit[i[i >= 0]] = True
        menu = Menu(out, hit, provenance=(f"mix(w={w})",))
        screen = t.params.get("global_screen")
        if screen is not None:
            menu = action(menu, screen)
        return menu

    if t.kind == "liquidity_pipeline":
        if len(inputs) != 1:
            raise InvalidArgument("liquidity_pipeline takes one input")
        menu = _as_menu(inputs[0])
        space = menu.space
        liq = build_relation(space, space, "liquidity_cap",
                             alpha=t.params["alpha"], illiquid=t.params["illiquid"])
        caps = build_relation(space, space, "position_caps", caps=t.params["caps"])
        maint = build_relation(space, space, "maintenance",
                               kappa=t.params["kappa"], costs=t.params["costs"])
        for screen in (liq, caps, maint):
            menu = action(menu, screen)
        return menu

    raise InvalidArgument(f"unknown template kind {t.kind!r}")
