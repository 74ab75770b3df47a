"""The menu calculus: actions K . R, action laws, determinization, templates.

A menu is a finite point set on a codomain lattice together with the
provenance of the relations that produced it.  Actions never materialize
pair sets, so desk-scale menus (thousands of points) stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import (
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    snap_to_lattice,
)
from .optimize import Infeasible, ReimplMap
from .relations import Relation, build_relation, compose_vertical, diagonal
from .transport import LawReport, MAX_WITNESSES


@dataclass(frozen=True)
class Menu:
    """A reachable set of spoke portfolios, with its narrowing history."""

    space: LatticeSpace
    points: tuple[GridPoint, ...]
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        # GridPoint's field order, by key: the dataclass __lt__ would be one
        # Python call per comparison
        object.__setattr__(self, "points", tuple(sorted(
            set(self.points), key=lambda p: (p.coords, p.resolution))))

    def __len__(self):
        return len(self.points)

    def mask_on(self, space: LatticeSpace) -> np.ndarray:
        m = np.zeros(len(space), dtype=bool)
        m[space.indices_of(self.points)] = True
        return m

    def point_set(self) -> frozenset:
        return frozenset(p.coords for p in self.points)


MenuLike = Union[Menu, LatticeSpace]


def _as_menu(K: MenuLike) -> Menu:
    if isinstance(K, Menu):
        return K
    return Menu(space=K, points=K.points, provenance=(K.describe(),))


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
    hit = R.menu_mask(hub_mask)
    pts = tuple(R.codomain.points[i] for i in np.nonzero(hit)[0])
    return Menu(space=R.codomain, points=pts,
                provenance=menu.provenance + (R.describe(),))


def fibers_of(K: MenuLike, R: Relation) -> dict[GridPoint, tuple[GridPoint, ...]]:
    """Per-hub fiber sets F_R(x) for x in K (materializes R's mask)."""
    menu = _as_menu(K)
    mask = R.mask()
    out = {}
    for p, i in zip(menu.points, R.domain.indices_of(menu.points)):
        out[p] = tuple(R.codomain.points[j] for j in np.nonzero(mask[i])[0])
    return out


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
    results: dict[str, bool] = {}
    witnesses: list = []

    menu_R = action(menu, R)
    results["closedness"] = True  # finite point sets are closed by construction
    results["nonempty"] = len(menu_R) > 0

    ident = diagonal(menu.space)
    unital = action(menu, ident)
    results["unitality"] = unital.point_set() == menu.point_set()
    if not results["unitality"]:
        witnesses.append(("unitality", len(unital), len(menu)))

    two_step = action(menu_R, S)
    composed = action(menu, compose_vertical(S, R))
    results["associativity"] = two_step.point_set() == composed.point_set()
    if not results["associativity"]:
        witnesses.append(("associativity", len(two_step), len(composed)))

    if wide is None:
        from .geometry import enumerate_simplex

        wide = enumerate_simplex(menu.space.n, menu.space.N)
    wide_menu = action(Menu(wide, wide.points), R)
    results["isotonicity"] = menu_R.point_set() <= wide_menu.point_set()
    if not results["isotonicity"]:
        witnesses.append(("isotonicity", len(menu_R), len(wide_menu)))

    proj = projector if projector is not None else diagonal(R.codomain)
    once = action(menu_R, proj)
    twice = action(once, proj)
    screened = menu_R.point_set() & {p.coords for p in proj.codomain.points
                                     if proj.contains(p, p)}
    results["projector"] = (once.point_set() == screened
                            and twice.point_set() == once.point_set())
    if not results["projector"]:
        witnesses.append(("projector", len(once), len(screened)))

    # Non-emptiness is bookkeeping, not a law: the empty menu is a valid
    # (closed) outcome and must not fail the suite.
    results.pop("nonempty")
    holds = all(results.values())
    results["nonempty"] = len(menu_R) > 0
    return LawReport("action_laws", holds, len(menu_R), len(wide_menu),
                     witnesses=tuple(witnesses[:MAX_WITNESSES]) if not holds else (),
                     detail=results)


def determinize(domain: LatticeSpace, codomain: LatticeSpace,
                fibers: dict[GridPoint, Sequence[GridPoint]],
                alpha: float, name: str = "sel") -> ReimplMap:
    """Select from each fiber the point minimizing alpha*||y||^2.

    alpha must be positive (it is what makes the squared-norm penalty a
    strictly convex tie-splitter); residual ties break lexicographically.
    """
    if alpha <= 0:
        raise InvalidArgument("determinization requires alpha > 0")
    chosen = []
    for x in domain.points:
        fiber_pts = sorted(fibers.get(x, ()))
        if not fiber_pts:
            raise Infeasible(f"empty fiber at hub {x}")
        norms = [alpha * float((p.to_array() ** 2).sum()) for p in fiber_pts]
        chosen.append(fiber_pts[int(np.argmin(norms))])
    return ReimplMap(domain, codomain, "lattice_argmin",
                     img=codomain.indices_of(chosen), name=name)


def determinize_relation(K: MenuLike, R: Relation, alpha: float) -> ReimplMap:
    menu = _as_menu(K)
    fib = fibers_of(menu, R)
    domain = LatticeSpace.from_points(menu.space.n, menu.space.N, menu.points)
    domain = menu.space if domain.same_points(menu.space) else domain
    return determinize(domain, R.codomain, fib, alpha)


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
        w = t.params["w"]
        mixed = set()
        for xc in core.points:
            vc = xc.to_array()
            for xs in sat.points:
                mix = w * vc + (1.0 - w) * xs.to_array()
                mixed.add(snap_to_lattice(mix, out.N))
        menu = Menu(out, tuple(mixed),
                    provenance=(f"mix(w={w})",))
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
