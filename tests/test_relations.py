import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubspoke.dots import Menu, action
from hubspoke.geometry import (
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearFunctional,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.optimize import ReimplMap, identity_map
from hubspoke.relations import (
    Relation,
    build_relation,
    compose_vertical,
    dagger,
    diagonal,
    empty_relation,
    explicit_relation,
    full_relation,
    graph_of,
    intersect,
    two_cell_exists,
)

FEE = LinearFunctional((10, 5, 0), units="bps")


def random_explicit(rng, K1, K3, p=0.3):
    pairs = [(x, z) for x in K1.points for z in K3.points if rng.random() < p]
    return explicit_relation(K1, K3, pairs)


def brute_compose(S, R):
    """Triple-loop oracle for relational composition."""
    out = set()
    for x, y in R.pairs:
        for y2, z in S.pairs:
            if y == y2:
                out.add((x, z))
    return out


class TestBuild:
    def test_track_menu_size_published(self):
        amb = enumerate_simplex(2, 100)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        track = build_relation(hub, amb, "track", epsilon=0.05)
        hit = track.menu_mask(np.ones(len(hub), dtype=bool))
        assert int(hit.sum()) == 4485

    def test_fee_cap_is_diagonal(self):
        amb = enumerate_simplex(2, 10)
        cap = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
        for x, y in cap.pairs:
            assert x == y
            assert 10 * x.coords[0] + 5 * x.coords[1] <= 60

    def test_turnover_zero_is_diagonal(self):
        amb = enumerate_simplex(2, 6)
        t0 = build_relation(amb, amb, "turnover", kappa=0.0)
        diag = diagonal(amb)
        assert set(t0.pairs) == set(diag.pairs)

    def test_negative_tolerance_rejected(self):
        amb = enumerate_simplex(2, 5)
        with pytest.raises(InvalidArgument):
            build_relation(amb, amb, "track", epsilon=-0.1)
        with pytest.raises(InvalidArgument):
            build_relation(amb, amb, "turnover", kappa=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("kind, params", [
        ("fee_cap", lambda v: {"tau": v, "functional": FEE}),
        ("liquidity_cap", lambda v: {"alpha": v, "illiquid": (2,)}),
        ("position_caps", lambda v: {"caps": (1.0, v, 1.0)}),
        ("maintenance", lambda v: {"kappa": v, "costs": (1.0, 1.0, 1.0)}),
        ("maintenance", lambda v: {"kappa": 1.0, "costs": (1.0, v, 1.0)}),
    ], ids=["tau", "alpha", "caps", "kappa", "costs"])
    def test_projector_parameters_must_be_finite(self, kind, params, bad):
        # an infinite cap is refused, not read as no cap
        amb = enumerate_simplex(2, 5)
        with pytest.raises(InvalidArgument, match="finite"):
            build_relation(amb, amb, kind, **params(bad))

    def test_resolution_mismatch_rejected(self):
        a, b = enumerate_simplex(1, 5), enumerate_simplex(1, 10)
        with pytest.raises(InvalidArgument):
            build_relation(a, b, "track", epsilon=0.1)

    def test_liquidity_and_caps_screens(self):
        amb = enumerate_simplex(2, 10)
        liq = build_relation(amb, amb, "liquidity_cap", alpha=0.3, illiquid=(2,))
        assert all(y.coords[2] <= 3 for _, y in liq.pairs)
        caps = build_relation(amb, amb, "position_caps", caps=(1.0, 0.5, 1.0))
        assert all(y.coords[1] <= 5 for _, y in caps.pairs)
        maint = build_relation(amb, amb, "maintenance", kappa=4.0, costs=(10, 2, 0))
        assert all(10 * y.coords[0] + 2 * y.coords[1] <= 40 for _, y in maint.pairs)


class TestComposition:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        K = enumerate_simplex(1, 4)
        R = random_explicit(rng, K, K)
        S = random_explicit(rng, K, K)
        assert set(compose_vertical(S, R).pairs) == brute_compose(S, R)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        K = enumerate_simplex(1, 4)
        R = random_explicit(rng, K, K)
        S = random_explicit(rng, K, K)
        T = random_explicit(rng, K, K)
        left = compose_vertical(T, compose_vertical(S, R))
        right = compose_vertical(compose_vertical(T, S), R)
        assert set(left.pairs) == set(right.pairs)

    def test_diagonal_is_unit(self):
        K = enumerate_simplex(1, 5)
        rng = np.random.default_rng(3)
        S = random_explicit(rng, K, K)
        assert set(compose_vertical(S, diagonal(K)).pairs) == set(S.pairs)
        assert set(compose_vertical(diagonal(K), S).pairs) == set(S.pairs)

    def test_track_then_turnover_against_oracle(self):
        amb = enumerate_simplex(1, 10)
        track = build_relation(amb, amb, "track", epsilon=0.10)
        turn = build_relation(amb, amb, "turnover", kappa=0.3)
        composed = compose_vertical(turn, track)
        assert set(composed.pairs) == brute_compose(turn, track)

    def test_counts_past_a_byte(self):
        # 256 shared intermediates per pair: a uint8 product would wrap to 0
        K = enumerate_simplex(2, 22)
        mid = LatticeSpace.from_points(2, 22, K.points[:256])
        composed = compose_vertical(full_relation(mid, K), full_relation(K, mid))
        assert composed.mask().all()

    def test_projector_idempotent(self):
        amb = enumerate_simplex(2, 8)
        cap = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
        assert set(compose_vertical(cap, cap).pairs) == set(cap.pairs)

    def test_space_mismatch(self):
        a = enumerate_simplex(1, 5)
        b = enumerate_simplex(2, 5)
        R = full_relation(a, a)
        S = full_relation(b, b)
        with pytest.raises(InvalidArgument):
            compose_vertical(S, R)


class TestDagger:
    def test_involution_and_diagonal(self):
        K = enumerate_simplex(1, 6)
        rng = np.random.default_rng(9)
        R = random_explicit(rng, K, K)
        assert set(dagger(dagger(R)).pairs) == set(R.pairs)
        assert set(dagger(diagonal(K)).pairs) == set(diagonal(K).pairs)

    def test_swaps_graph_pairs(self):
        K = enumerate_simplex(1, 5)
        g = graph_of(identity_map(K))
        swapped = dagger(g)
        assert set(swapped.pairs) == {(y, x) for x, y in g.pairs}

    def test_antihomomorphism(self):
        # (S . R)+ == R+ . S+
        K = enumerate_simplex(1, 4)
        rng = np.random.default_rng(4)
        R = random_explicit(rng, K, K)
        S = random_explicit(rng, K, K)
        lhs = dagger(compose_vertical(S, R))
        rhs = compose_vertical(dagger(R), dagger(S))
        assert set(lhs.pairs) == set(rhs.pairs)


class TestIntersect:
    def test_idempotent_and_top(self):
        K = enumerate_simplex(1, 6)
        rng = np.random.default_rng(1)
        R = random_explicit(rng, K, K)
        assert set(intersect(R, R).pairs) == set(R.pairs)
        assert set(intersect(R, full_relation(K, K)).pairs) == set(R.pairs)

    def test_mismatch(self):
        K1, K2 = enumerate_simplex(1, 5), enumerate_simplex(2, 5)
        with pytest.raises(InvalidArgument):
            intersect(full_relation(K1, K1), full_relation(K2, K2))


class TestFiber:
    """A fiber F_R(x) is the row of R's mask at x's domain index."""

    @staticmethod
    def fiber(R, x):
        row = R.mask()[R.domain.indices_of([x])[0]]
        return tuple(R.codomain.points[j] for j in np.flatnonzero(row))

    def test_diagonal_singleton(self):
        K = enumerate_simplex(1, 5)
        p = K.points[2]
        assert self.fiber(diagonal(K), p) == (p,)

    def test_turnover_is_l1_ball(self):
        K = enumerate_simplex(2, 10)
        kappa = 2 / 10
        R = build_relation(K, K, "turnover", kappa=kappa)
        x = GridPoint((3, 3, 4), 10)
        got = set(self.fiber(R, x))
        oracle = {y for y in K.points
                  if sum(abs(a - b) for a, b in zip(x.coords, y.coords)) <= 2}
        assert got == oracle

    def test_empty_relation(self):
        K = enumerate_simplex(1, 5)
        assert self.fiber(empty_relation(K, K), K.points[0]) == ()

    def test_outside_domain(self):
        K = restrict(enumerate_simplex(1, 5), [parse_constraint("x1<=0.4", 2)])
        R = diagonal(K)
        with pytest.raises(InvalidArgument):
            self.fiber(R, GridPoint((5, 0), 5))


class TestGraph:
    def test_identity_graph_is_diagonal(self):
        K = enumerate_simplex(1, 6)
        assert set(graph_of(identity_map(K)).pairs) == set(diagonal(K).pairs)

    def test_aggregation_graph_published_count(self):
        hub = enumerate_simplex(2, 10)
        spoke = enumerate_simplex(1, 10)
        f = ReimplMap(hub, spoke, "affine",
                      matrix=np.array([[1, 1, 0], [0, 0, 1]], float), name="agg")
        g = graph_of(f)
        assert len(g.pairs) == 66
        firsts = [x for x, _ in g.pairs]
        assert len(set(firsts)) == 66  # one pair per hub point

    def test_constant_map_shares_second_component(self):
        K = enumerate_simplex(2, 6)
        bary = ReimplMap(K, K, "affine", matrix=np.zeros((3, 3)),
                         offset=np.full(3, 1 / 3), name="const")
        g = graph_of(bary)
        seconds = {tuple(np.round(img, 9)) for _, img in zip(g.domain.points, bary.images)}
        assert len(seconds) == 1

    def test_map_not_into_codomain(self):
        K = enumerate_simplex(1, 4)
        sub = restrict(K, [parse_constraint("x1<=0.5", 2)])
        with pytest.raises(InvalidArgument):
            graph_of(identity_map_into(K, sub))


def identity_map_into(domain, codomain):
    return ReimplMap(domain, codomain, "affine", matrix=np.eye(domain.n + 1),
                     name="bad", check_into=False)


class TestTwoCell:
    def test_identity_square_reduces_to_inclusion(self):
        K = enumerate_simplex(1, 5)
        rng = np.random.default_rng(7)
        R = random_explicit(rng, K, K, p=0.4)
        idm = identity_map(K)
        assert two_cell_exists(idm, idm, R, R)
        assert two_cell_exists(idm, idm, R, full_relation(K, K))

    def test_witness_when_not_included(self):
        K = enumerate_simplex(1, 5)
        R = full_relation(K, K)
        S = empty_relation(K, K)
        idm = identity_map(K)
        assert not two_cell_exists(idm, idm, R, S)

    def test_monotone_in_s_antitone_in_r(self):
        K = enumerate_simplex(1, 6)
        idm = identity_map(K)
        R_small = build_relation(K, K, "turnover", kappa=0.2)
        R_big = build_relation(K, K, "turnover", kappa=0.5)
        S = build_relation(K, K, "turnover", kappa=0.5)
        S_big = build_relation(K, K, "turnover", kappa=0.9)
        assert two_cell_exists(idm, idm, R_small, S)
        assert two_cell_exists(idm, idm, R_small, S_big)   # enlarging S keeps truth
        if two_cell_exists(idm, idm, R_big, S):
            assert two_cell_exists(idm, idm, R_small, S)   # shrinking R keeps truth

    def test_maps_must_land_in_the_spaces_of_s(self):
        K = enumerate_simplex(1, 4)
        half = restrict(K, [parse_constraint("x1<=0.5", 2)])
        R, idm = full_relation(K, K), identity_map(K)
        with pytest.raises(InvalidArgument, match="f must map R's domain to S's domain"):
            two_cell_exists(idm, idm, R, full_relation(half, K))
        with pytest.raises(InvalidArgument, match="g must map R's codomain to S's codomain"):
            two_cell_exists(idm, idm, R, full_relation(K, half))

    def test_nudged_images_are_decided_at_their_points(self):
        # f and g move the images 7e-10 apart in opposite directions: the
        # float rule x0 >= y0 - 1e-9 fails on the diagonal, the points pass
        K = enumerate_simplex(1, 4)
        S = build_relation(K, K, "custom",
                           mask_fn=lambda X, Y: X[:, [0]] >= Y[None, :, 0] - 1e-9)
        f = ReimplMap(K, K, "affine", matrix=np.eye(2), offset=[-7e-10, 7e-10])
        g = ReimplMap(K, K, "affine", matrix=np.eye(2), offset=[7e-10, -7e-10])
        assert not np.diagonal(S.test(f.images, g.images)).any()
        assert two_cell_exists(f, g, diagonal(K), S)

    def test_fund_etf_square_with_loose_factor_tolerance(self):
        # funds -> ETFs and benchmarks -> factors are both shrink maps; the
        # square has a 2-cell when the downstream factor tolerance is looser
        # than the upstream tracking tolerance, and loses it when tightened
        K = enumerate_simplex(2, 10)
        f = ReimplMap(K, K, "affine", matrix=0.9 * np.eye(3),
                      offset=np.full(3, 0.1 / 3), name="etf")
        g = ReimplMap(K, K, "affine", matrix=0.8 * np.eye(3),
                      offset=np.full(3, 0.2 / 3), name="factor")
        R = build_relation(K, K, "track", epsilon=0.15)
        S_loose = build_relation(K, K, "track", epsilon=0.50)
        S_tight = build_relation(K, K, "track", epsilon=0.02)
        assert two_cell_exists(f, g, R, S_loose)
        assert not two_cell_exists(f, g, R, S_tight)


# -- differential tests of the single membership rule --------------------------

FEE_COEFFS = (Fraction(10), Fraction(5), Fraction(0))


def _projector_case(kind, k):
    """Relation parameters for a projector kind, and its screen in exact
    rationals on integer holdings c at resolution N."""
    if kind == "fee_cap":
        tau = Fraction(k, 2)
        return ({"tau": float(tau), "functional": FEE},
                lambda c, N: sum(a * h for a, h in zip(FEE_COEFFS, c)) <= tau * N)
    if kind == "liquidity_cap":
        alpha = Fraction(k, 10)
        return ({"alpha": float(alpha), "illiquid": (0, 2)},
                lambda c, N: c[0] + c[2] <= alpha * N)
    if kind == "position_caps":
        caps = (Fraction(k, 10), Fraction(1), Fraction(10 - k, 10))
        return ({"caps": tuple(float(x) for x in caps)},
                lambda c, N: all(h <= x * N for h, x in zip(c, caps)))
    if kind == "maintenance":
        costs, kappa = (3, 0, 7), Fraction(k, 3)
        return ({"kappa": float(kappa), "costs": costs},
                lambda c, N: sum(a * h for a, h in zip(costs, c)) <= kappa * N)
    return {}, lambda c, N: True


def _spaces(shape, N, cap, n=2):
    """(domain, codomain) on Delta^n at 1/N: equal, or a restricted hub on
    one side and the ambient lattice on the other."""
    amb = enumerate_simplex(n, N)
    hub = restrict(amb, [parse_constraint(f"x1<={cap}/10", n + 1)])
    return {"same": (amb, amb), "hub_to_amb": (hub, amb),
            "amb_to_hub": (amb, hub)}[shape]


def _streamed(R):
    """R with its membership rule alone: no stencil, screen or mask."""
    return Relation(R.domain, R.codomain, R.kind, R.params, R.test)


def _menu_of(R, menu):
    hub_mask = np.zeros(len(R.domain), dtype=bool)
    hub_mask[R.domain.indices_of(menu.points)] = True
    return R.menu_mask(hub_mask)


class TestStencilDifferential:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["track", "turnover"]),
           shape=st.sampled_from(["same", "hub_to_amb", "amb_to_hub"]),
           n=st.integers(1, 3), N=st.integers(1, 20), cap=st.integers(0, 10),
           below=st.sampled_from([None, 0.0, 0.5, 2.0]), a=st.integers(0, 4),
           b=st.integers(0, 4), u=st.floats(0.0, 0.6), converse=st.booleans(),
           seed=st.integers(0, 10_000))
    def test_stencil_path_matches_streamed_test(self, kind, shape, n, N, cap,
                                                below, a, b, u, converse, seed):
        domain, codomain = _spaces(shape, N, cap, n)
        # below=None draws the bound uniformly; otherwise the bound is the
        # norm of the lattice offset delta, less `below` x 1e-9: offsets of
        # that norm lie on the bound, inside the 1e-9 tolerance, or past it
        delta = np.array([a + b, -(a + b)] if n == 1 else [a, b, -(a + b)])
        if kind == "track":
            bound = np.sqrt((delta ** 2).sum()) / N
        else:
            bound = np.abs(delta).sum() / N
        if below is None:
            bound = u
        else:
            bound = max(bound - below * 1e-9, 0.0)
        R = build_relation(domain, codomain, kind,
                           **{"epsilon" if kind == "track" else "kappa": bound})
        if converse:
            R = dagger(R)
        ref = _streamed(R)
        rng = np.random.default_rng(seed)
        menu = Menu(R.domain, rng.random(len(R.domain)) < 0.3)
        stencil = R.stencil
        if stencil is not None:
            assert not stencil.sum(axis=1).any()
        assert np.array_equal(_menu_of(R, menu), _menu_of(ref, menu))
        assert np.array_equal(R.mask(), ref.mask())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_offsets_match_integer_oracle(self, n):
        # a reach of 6.2 units admits offsets such as (5, -2, -3), whose
        # largest holding change is 0.81 of the reach
        N = 30
        K = enumerate_simplex(n, N)
        box = [d + (-sum(d),) for d in itertools.product(range(-N, N + 1), repeat=n)]
        for epsilon in (0.0, 0.15, 6.2 / N):
            reach = (epsilon + 1e-9) * N
            want = {d for d in box if sum(x * x for x in d) <= reach ** 2}
            R = build_relation(K, K, "track", epsilon=epsilon)
            assert R.stencil is not None
            assert set(map(tuple, R.stencil.tolist())) == want
            assert set(map(tuple, dagger(R).stencil.tolist())) == want
        for kappa in (0.0, 0.2, 0.3):
            reach = (kappa + 1e-9) * N
            want = {d for d in box if sum(map(abs, d)) <= reach}
            R = build_relation(K, K, "turnover", kappa=kappa)
            assert R.stencil is not None
            assert set(map(tuple, R.stencil.tolist())) == want
            assert set(map(tuple, dagger(R).stencil.tolist())) == want

    def test_published_stencil_and_non_identity_attributes(self):
        K = enumerate_simplex(2, 100)
        assert len(build_relation(K, K, "track", epsilon=0.05).stencil) == 43
        assert build_relation(K, K, "track", epsilon=0.05,
                              gA=np.ones((1, 3)), gB=np.ones((1, 3))).stencil is None

    def test_box_larger_than_codomain_streams(self):
        # r = 5 at 1/5: an 11^2 box against 21 codomain points
        K = enumerate_simplex(2, 5)
        R = build_relation(K, K, "track", epsilon=1.5)
        assert R.stencil_rule is not None and R.stencil is None
        hub = Menu(K, np.arange(len(K)) < 3)
        assert np.array_equal(_menu_of(R, hub), _menu_of(_streamed(R), hub))
        assert R.mask().all()
        small = restrict(K, [parse_constraint("x1>=1", 3)])
        tight = build_relation(K, small, "turnover", kappa=0.4)
        assert tight.stencil is None     # r = 1: a 3^2 box against 1 point
        assert np.array_equal(tight.mask(), _streamed(tight).mask())


class TestScreenDifferential:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["fee_cap", "liquidity_cap", "position_caps",
                                 "maintenance", "diagonal"]),
           shape=st.sampled_from(["same", "hub_to_amb", "amb_to_hub"]),
           N=st.integers(1, 10), k=st.integers(0, 10), cap=st.integers(0, 10),
           seed=st.integers(0, 10_000))
    def test_screen_path_matches_mask_and_exact_oracle(self, kind, shape, N, k,
                                                       cap, seed):
        domain, codomain = _spaces(shape, N, cap)
        params, exact = _projector_case(kind, k)
        if kind == "diagonal":
            codomain = domain
            build = lambda: diagonal(domain)  # noqa: E731
        else:
            build = lambda: build_relation(domain, codomain, kind, **params)  # noqa: E731
        rng = np.random.default_rng(seed)
        menu = Menu(domain, rng.random(len(domain)) < 0.5)

        screened = build()
        assert screened.screen is not None and screened._mask is None
        via_screen = action(menu, screened)
        masked = build()
        masked.mask()
        via_mask = action(menu, masked)
        via_test = action(menu, _streamed(screened))
        in_codomain = set(map(tuple, codomain.holdings.tolist()))
        oracle = {p.coords for p in menu.points
                  if p.coords in in_codomain and exact(p.coords, N)}
        assert ({p.coords for p in via_screen.points} == {p.coords for p in via_mask.points}
                == {p.coords for p in via_test.points} == oracle)
        assert np.array_equal(masked.mask(), _streamed(screened).mask())


class TestFromMask:
    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 10), cap=st.integers(0, 9), seed=st.integers(0, 10_000))
    def test_contains_vectors_agrees_with_mask(self, N, cap, seed):
        amb = enumerate_simplex(2, N)
        hub = restrict(amb, [parse_constraint(f"x1<={cap}/10", 3)])
        rng = np.random.default_rng(seed)
        mask = rng.random((len(hub), len(amb))) < 0.4
        R = Relation.from_mask(hub, amb, mask)
        assert np.array_equal(R.mask(), mask)
        for i, x in enumerate(hub.array):
            for j, y in enumerate(amb.array):
                assert R.contains_vectors(x, y) == mask[i, j]
        # off the lattice by half a step, or a lattice vector off the
        # simplex whose holdings alias a point's: never a member
        shift = np.array([1, -1, 0]) / (2 * N)
        alias = np.array([0, 1, -(N + 1)]) / N
        for i, j in zip(*np.nonzero(mask)):
            x, y = hub.array[i], amb.array[j]
            assert not R.contains_vectors(x + shift, y)
            assert not R.contains_vectors(x, y - shift)
            assert not R.contains_vectors(x + alias, y)
        # lattice points outside the hub: never a member
        full = Relation.from_mask(hub, amb, np.ones_like(mask))
        outside = amb.array[hub.index_holdings(amb.holdings) < 0]
        for y in outside:
            assert not full.contains_vectors(y, amb.array[0])
        assert len(outside) or len(hub) == len(amb)

    def test_shape_checked(self):
        K = enumerate_simplex(1, 3)
        with pytest.raises(InvalidArgument):
            Relation.from_mask(K, K, np.zeros((3, 4), dtype=bool))


class TestCustom:
    def test_predicate_alone_is_refused(self):
        K = enumerate_simplex(1, 3)
        with pytest.raises(InvalidArgument, match="mask_fn"):
            build_relation(K, K, "custom", predicate=lambda x, y: True)


# -- exact projector screens ---------------------------------------------------


def _float_screen(kind, params):
    """A projector's screen as a float rule with a 1e-9 slack: the oracle
    off the lattice, and on it wherever no lattice value lies within 1e-9
    above the bound."""
    if kind == "fee_cap":
        coeffs, tau = params["functional"].coeff_array(), params["tau"]
        return lambda Y: Y @ coeffs <= tau + 1e-9
    if kind == "liquidity_cap":
        idx, alpha = list(params["illiquid"]), params["alpha"]
        return lambda Y: Y[:, idx].sum(axis=1) <= alpha + 1e-9
    if kind == "position_caps":
        caps = np.asarray(params["caps"], dtype=np.float64)
        return lambda Y: (Y <= caps + 1e-9).all(axis=1)
    costs, kappa = np.asarray(params["costs"], dtype=np.float64), params["kappa"]
    return lambda Y: Y @ costs <= kappa + 1e-9


def _diagonal_test(R, Y):
    """R.test on the pairs (y, y) of the rows of Y, in blocks."""
    return np.concatenate([R.test(Y[s:s + 128], Y[s:s + 128]).diagonal()
                           for s in range(0, len(Y), 128)])


class TestExactScreen:
    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["fee_cap", "liquidity_cap", "position_caps",
                                 "maintenance"]),
           n=st.integers(1, 3), N=st.integers(1, 30), data=st.data())
    def test_exact_screen_matches_float_oracle(self, kind, n, N, data):
        # Bounds on a lattice value, or one step 1/N to either side of it:
        # every lattice value is then on the bound or at least 1/(N q) from
        # it, so the float oracle's 1e-9 slack decides as exactly.
        if n == 3:
            N = min(N, 16)
        d = n + 1
        K = enumerate_simplex(n, N)
        h = K.holdings[data.draw(st.integers(0, len(K) - 1))]
        steps = data.draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))

        def through(value, step):
            return float(max(value + Fraction(step, N), 0))

        if kind == "fee_cap":
            coeffs = tuple(Fraction(a, q) for a, q in data.draw(st.lists(
                st.tuples(st.integers(0, 20), st.sampled_from([1, 2, 3, 4])),
                min_size=d, max_size=d)))
            value = sum(c * x for c, x in zip(coeffs, h)) / N
            params = {"tau": through(value, steps[0]),
                      "functional": LinearFunctional(coeffs)}
        elif kind == "liquidity_cap":
            idx = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=d))
            params = {"alpha": through(Fraction(sum(int(h[i]) for i in idx), N), steps[0]),
                      "illiquid": idx}
        elif kind == "position_caps":
            params = {"caps": [through(Fraction(int(x), N), s) for x, s in zip(h, steps)]}
        else:
            costs = [Fraction(a, q) for a, q in data.draw(st.lists(
                st.tuples(st.integers(0, 10), st.sampled_from([1, 2, 5, 10])),
                min_size=d, max_size=d))]
            value = sum(c * x for c, x in zip(costs, h)) / N
            params = {"kappa": through(value, steps[0]),
                      "costs": [float(c) for c in costs]}
        R = build_relation(K, K, kind, **params)
        oracle = _float_screen(kind, params)
        want = oracle(K.array)
        assert np.array_equal(R.mask().diagonal(), want)
        assert np.array_equal(R.menu_mask(np.ones(len(K), dtype=bool)), want)
        assert np.array_equal(_diagonal_test(R, K.array), want)
        # rows that leave the lattice keep the float rule
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        shift = rng.uniform(1e-6, 1 / (4 * N), size=K.array.shape)
        off = K.array + shift * rng.choice([-1, 1], size=K.array.shape)
        assert np.array_equal(_diagonal_test(R, off), oracle(off))

    @pytest.mark.parametrize("kind, params, holdings", [
        ("fee_cap", lambda e: {"tau": 6.05 - e, "functional": FEE}, (21, 79, 0)),
        ("liquidity_cap", lambda e: {"alpha": 0.35 - e, "illiquid": (0, 2)}, (20, 65, 15)),
        ("position_caps", lambda e: {"caps": (1.0, 0.35 - e, 1.0)}, (40, 35, 25)),
        ("maintenance", lambda e: {"kappa": 0.456 - e, "costs": (0.3, 0.7, 0.1)},
         (28, 50, 22)),
    ], ids=["fee_cap", "liquidity_cap", "position_caps", "maintenance"])
    def test_bound_just_below_a_lattice_value_rejects_it(self, kind, params, holdings):
        # The point's value equals the bound at e = 0.  At e = 1e-10 a 1e-9
        # float slack would still admit the point; the exact screen rejects
        # it in mask, menu_mask and contains_vectors alike.
        K = enumerate_simplex(2, 100)
        i = K.index_holdings([holdings])[0]
        y = K.array[i]
        one = np.arange(len(K)) == i
        for e, admitted in ((0.0, True), (1e-10, False)):
            R = build_relation(K, K, kind, **params(e))
            assert R.contains_vectors(y, y) is admitted
            assert R.menu_mask(one)[i] == admitted
            assert R.mask()[i, i] == admitted
        assert _float_screen(kind, params(1e-10))(y[None])[0]


# -- row-wise membership -------------------------------------------------------


class TestContainsRows:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), N=st.integers(2, 10),
           block=st.sampled_from([1, 5, 64, 2**20]),
           kind=st.sampled_from(["track", "track_attr", "turnover", "fee_cap",
                                 "position_caps", "diagonal", "explicit", "custom",
                                 "dagger", "intersect"]))
    def test_matches_the_per_pair_loop(self, seed, N, block, kind):
        from hubspoke import geometry

        rng = np.random.default_rng(seed)
        amb = enumerate_simplex(2, N)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        eps = float(rng.uniform(0, 0.5))
        R = {
            "track": lambda: build_relation(hub, amb, "track", epsilon=eps),
            "track_attr": lambda: build_relation(hub, amb, "track", epsilon=eps,
                                                 gA=rng.normal(size=(2, 3)),
                                                 gB=rng.normal(size=(2, 3))),
            "turnover": lambda: build_relation(hub, amb, "turnover", kappa=eps),
            "fee_cap": lambda: build_relation(amb, amb, "fee_cap", tau=10 * eps,
                                              functional=FEE),
            "position_caps": lambda: build_relation(amb, amb, "position_caps",
                                                    caps=rng.random(3)),
            "diagonal": lambda: diagonal(amb),
            "explicit": lambda: Relation.from_mask(hub, amb,
                                                   rng.random((len(hub), len(amb))) < 0.3),
            "custom": lambda: build_relation(hub, amb, "custom",
                                             mask_fn=lambda X, Y: X[:, [1]] >= Y[None, :, 0]),
            "dagger": lambda: dagger(build_relation(hub, amb, "track", epsilon=eps)),
            "intersect": lambda: intersect(build_relation(hub, amb, "track", epsilon=eps),
                                           build_relation(hub, amb, "turnover", kappa=eps)),
        }[kind]()
        M = int(rng.integers(0, 60))
        X = R.domain.array[rng.integers(0, len(R.domain), M)]
        Y = R.codomain.array[rng.integers(0, len(R.codomain), M)]
        if kind in ("fee_cap", "position_caps", "diagonal"):
            Y = X.copy()
        off = rng.random(M) < 0.3           # some rows leave the lattice
        X[off] += rng.normal(scale=1e-3, size=(int(off.sum()), 3))
        Y[off] += rng.normal(scale=1e-3, size=(int(off.sum()), 3))
        want = np.array([R.test(x[None], y[None])[0, 0] for x, y in zip(X, Y)], dtype=bool)
        old = geometry.BLOCK_CELLS
        geometry.BLOCK_CELLS = block
        try:
            got = R.contains_rows(X, Y)
        finally:
            geometry.BLOCK_CELLS = old
        assert got.dtype == bool and np.array_equal(got, want)
        assert [R.contains_vectors(x, y) for x, y in zip(X, Y)] == want.tolist()


MASK_ROW_KINDS = ["track", "turnover", "dagger_track", "dagger_turnover", "wide_box",
                  "fee_cap", "liquidity_cap", "position_caps", "maintenance", "diagonal",
                  "from_mask", "compose", "intersect", "custom", "full", "track_attr"]


def _relation_for_rows(kind, domain, codomain, rng):
    """A relation of the named kind between the two spaces (a projector or
    the diagonal lives on the codomain)."""
    eps = float(rng.uniform(0, 0.6))
    d = codomain.n + 1
    if kind in ("fee_cap", "liquidity_cap", "position_caps", "maintenance"):
        params = {"fee_cap": {"tau": 10 * eps,
                              "functional": LinearFunctional(tuple(range(d, 0, -1)))},
                  "liquidity_cap": {"alpha": eps, "illiquid": (0, d - 1)},
                  "position_caps": {"caps": rng.random(d)},
                  "maintenance": {"kappa": eps, "costs": rng.random(d)}}[kind]
        return build_relation(codomain, codomain, kind, **params)
    if kind == "diagonal":
        return diagonal(codomain)
    if kind == "track":
        return build_relation(domain, codomain, "track", epsilon=eps)
    if kind == "turnover":
        return build_relation(domain, codomain, "turnover", kappa=eps)
    if kind == "dagger_track":
        return dagger(build_relation(codomain, domain, "track", epsilon=eps))
    if kind == "dagger_turnover":
        return dagger(build_relation(codomain, domain, "turnover", kappa=eps))
    if kind == "wide_box":
        R = build_relation(domain, codomain, "track", epsilon=1.5)
        assert R.stencil_rule is not None and R.stencil is None
        return R
    if kind == "from_mask":
        return Relation.from_mask(domain, codomain,
                                  rng.random((len(domain), len(codomain))) < 0.3)
    if kind == "compose":
        return compose_vertical(build_relation(codomain, codomain, "turnover", kappa=eps),
                                Relation.from_mask(domain, codomain,
                                                   rng.random((len(domain), len(codomain))) < 0.2))
    if kind == "intersect":
        return intersect(build_relation(domain, codomain, "track", epsilon=eps),
                         build_relation(domain, codomain, "turnover", kappa=eps))
    if kind == "custom":
        return build_relation(domain, codomain, "custom",
                              mask_fn=lambda X, Y: X[:, [0]] >= Y[None, :, 0] - 1e-9)
    if kind == "full":
        return full_relation(domain, codomain)
    return build_relation(domain, codomain, "track", epsilon=eps,
                          gA=rng.integers(-2, 3, size=(2, d)), gB=rng.integers(-2, 3, size=(2, d)))


def _map_within(kind, K, sign):
    """A map of K to itself: images that are points of the lattice bitwise
    ("identity", or "perm", which leaves a restricted K), within 7e-10 of
    K's points ("nudged"), or off the lattice (the fund/ETF "shrink")."""
    d = K.n + 1
    if kind == "identity":
        return identity_map(K)
    matrix, offset = {"perm": (np.eye(d)[::-1], None),
                      "nudged": (np.eye(d), sign * (-1.0) ** np.arange(d)),
                      "shrink": (0.8 * np.eye(d), np.full(d, 0.2 / d))}[kind]
    return ReimplMap(K, K, "affine", matrix=matrix, offset=offset, check_into=False)


class TestMaskRows:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(MASK_ROW_KINDS),
           shape=st.sampled_from(["same", "hub_to_amb", "amb_to_hub"]),
           n=st.integers(1, 2), N=st.integers(1, 10), cap=st.integers(0, 10),
           seed=st.integers(0, 2**16), data=st.data())
    def test_rows_match_test_on_the_points(self, kind, shape, n, N, cap, seed, data):
        rng = np.random.default_rng(seed)
        R = _relation_for_rows(kind, *_spaces(shape, N, cap, n), rng)
        # unsorted and repeated point indices
        i = np.asarray(data.draw(st.lists(st.integers(0, len(R.domain) - 1), max_size=20)),
                       dtype=np.intp)
        want = R.test(R.domain.array[i], R.codomain.array)
        got = R.mask_rows(i)
        assert got.dtype == bool and np.array_equal(got, want)
        assert np.array_equal(R.mask()[i], want)
        assert np.array_equal(R.mask_rows(i), want)     # now from the cached mask

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(MASK_ROW_KINDS),
           shape=st.sampled_from(["same", "hub_to_amb", "amb_to_hub"]),
           n=st.integers(1, 2), N=st.integers(1, 10), cap=st.integers(0, 10),
           seed=st.integers(0, 2**16), cached=st.booleans(),
           maps=st.tuples(*[st.sampled_from(["identity", "perm", "nudged", "shrink"])] * 2),
           signs=st.tuples(*[st.sampled_from([7e-10, -7e-10])] * 2))
    def test_members_and_two_cell_match_the_float_rule(self, kind, shape, n, N, cap, seed,
                                                       cached, maps, signs):
        rng = np.random.default_rng(seed)
        S = _relation_for_rows(kind, *_spaces(shape, N, cap, n), rng)
        if cached:
            S.mask()
        f, g = (_map_within(k, K, sign)
                for k, K, sign in zip(maps, (S.domain, S.codomain), signs))
        got = S.members(f.images, g.images)
        # the float rule, at the points the images denote when every one does
        on = f.is_lattice_valued() and g.is_lattice_valued()
        want = S.test(*((m.codomain.array[m.img] if on else m.images) for m in (f, g)))
        assert got.dtype == bool and np.array_equal(got, want)
        if "nudged" not in maps:
            assert np.array_equal(got, S.test(f.images, g.images))
        R = Relation.from_mask(S.domain, S.codomain,
                               rng.random((len(S.domain), len(S.codomain))) < 0.3)
        assert two_cell_exists(f, g, R, S) == (not (R.mask() & ~want).any())
        assert two_cell_exists(f, g, Relation.from_mask(S.domain, S.codomain, want), S)

    def test_refuses_past_the_mask_limit(self, monkeypatch):
        from hubspoke import relations

        K = enumerate_simplex(2, 4)         # 15 points
        monkeypatch.setattr(relations, "MASK_LIMIT", 2 * len(K))
        for R in (build_relation(K, K, "track", epsilon=0.3),          # stencil
                  build_relation(K, K, "track", epsilon=0.3, gA=np.ones((1, 3)),
                                 gB=np.ones((1, 3))),                   # test
                  Relation.from_mask(K, K, np.eye(len(K), dtype=bool))):   # cached mask
            assert R.mask_rows([3, 0]).shape == (2, len(K))
            with pytest.raises(InvalidArgument,
                               match="refusing to materialize a 45-cell incidence mask"):
                R.mask_rows([0, 1, 0])
        with pytest.raises(InvalidArgument, match="225-cell"):
            build_relation(K, K, "turnover", kappa=0.5).mask()
