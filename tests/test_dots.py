import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubspoke.geometry import (
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    LinearFunctional,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.optimize import Infeasible, ObjectiveSpec, build_metric_reimpl
from hubspoke.relations import (
    build_relation,
    diagonal,
    empty_relation,
    graph_of,
)
from hubspoke.dots import (
    Menu,
    WiringTemplate,
    action,
    apply_template,
    determinize,
    determinize_relation,
    fibers_of,
    verify_action_laws,
)

FEE = LinearFunctional((10, 5, 0), units="bps")


class TestAction:
    def test_unitality_published_count(self):
        amb = enumerate_simplex(2, 20)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        menu = action(hub, diagonal(amb))
        assert len(menu) == len(hub) == 195

    def test_worked_example_menu_counts(self):
        amb = enumerate_simplex(2, 100)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        m1 = action(hub, build_relation(hub, amb, "track", epsilon=0.05))
        assert len(m1) == 4485
        m2 = action(m1, build_relation(amb, amb, "fee_cap", tau=6, functional=FEE))
        assert len(m2) == 3511
        assert m2.provenance[-2:] == ("track(epsilon=0.05)", "fee_cap(tau=6.0)")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 3), N=st.integers(1, 8))
    def test_menu_points_in_gridpoint_order(self, seed, n, N):
        K = enumerate_simplex(n, N)
        rng = np.random.default_rng(seed)
        m = np.zeros(len(K), dtype=bool)
        m[rng.integers(0, len(K), size=2 * len(K))] = True
        menu = Menu(K, m)
        assert menu.points == tuple(sorted({K.points[i] for i in np.flatnonzero(m)}))
        assert len(menu) == len(menu.points)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 3), N=st.integers(1, 8),
           cap=st.integers(0, 8), p=st.floats(0.0, 1.0))
    def test_mask_on_matches_dict_oracle(self, seed, n, N, cap, p):
        amb = enumerate_simplex(n, N)
        sub = restrict(amb, [parse_constraint(f"x1<={min(cap, N)}/{N}", n + 1)])
        copy = LatticeSpace.from_points(n, N, sub.points)
        rng = np.random.default_rng(seed)
        for src, dst in itertools.product((amb, sub, copy), repeat=2):
            m = rng.random(len(src)) < p
            menu = Menu(src, m)
            index = {q.coords: i for i, q in enumerate(dst.points)}
            picked = [q.coords for q, keep in zip(src.points, m) if keep]
            if all(c in index for c in picked):
                want = np.zeros(len(dst), dtype=bool)
                want[[index[c] for c in picked]] = True
                assert np.array_equal(menu.mask_on(dst), want)
            else:
                with pytest.raises(InvalidArgument, match="not a point of this space"):
                    menu.mask_on(dst)

    def test_mask_is_a_read_only_copy_of_the_space_shape(self):
        K = enumerate_simplex(2, 4)
        m = np.zeros(len(K), dtype=bool)
        menu = Menu(K, m)
        m[0] = True
        assert len(menu) == 0 and not menu.mask.flags.writeable
        for bad in (np.ones(len(K) - 1, dtype=bool), np.ones(len(K)),
                    list(K.points), np.ones((len(K), 1), dtype=bool)):
            with pytest.raises(InvalidArgument):
                Menu(K, bad)

    def test_empty_relation_gives_empty_menu(self):
        K = enumerate_simplex(1, 6)
        menu = action(K, empty_relation(K, K))
        assert len(menu) == 0

    def test_action_of_graph_is_image(self):
        K = enumerate_simplex(2, 8)
        f = build_metric_reimpl(
            K, K, ObjectiveSpec(gA=np.array([[1.0, 0, 0]]),
                                gB=np.array([[1.0, 0, 0]]), p=2))
        menu = action(K, graph_of(f))
        assert {p.coords for p in menu.points} == {p.coords for p in f.image_points()}

    def test_space_mismatch(self):
        K1 = enumerate_simplex(1, 5)
        K2 = enumerate_simplex(2, 5)
        with pytest.raises(InvalidArgument):
            action(K2, diagonal(K1))


class TestActionLaws:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_laws_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(4, 11))
        amb = enumerate_simplex(1, N)
        bound = float(rng.choice([0.4, 0.6, 0.8]))
        hub = restrict(amb, [parse_constraint(f"x1<={bound}", 2)])
        R = build_relation(amb, amb, "track", epsilon=float(rng.uniform(0.1, 0.5)))
        S = build_relation(amb, amb, "turnover", kappa=float(rng.uniform(0.1, 0.6)))
        rep = verify_action_laws(hub, R, S, wide=amb)
        assert rep.holds, rep.detail

    def test_projector_screens_commute(self):
        amb = enumerate_simplex(2, 12)
        cap = build_relation(amb, amb, "fee_cap", tau=7, functional=FEE)
        liq = build_relation(amb, amb, "liquidity_cap", alpha=0.5, illiquid=(0,))
        everything = Menu(amb, np.ones(len(amb), dtype=bool))
        lhs = action(action(everything, cap), liq)
        rhs = action(action(everything, liq), cap)
        assert {p.coords for p in lhs.points} == {p.coords for p in rhs.points}

    def test_projector_double_application(self):
        amb = enumerate_simplex(2, 14)
        hub = restrict(amb, [parse_constraint("x1<=0.5", 3)])
        cap = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
        once = action(hub, cap)
        twice = action(once, cap)
        assert {p.coords for p in once.points} == {p.coords for p in twice.points}


class TestDeterminize:
    def test_singleton_fibers_forced(self):
        K = enumerate_simplex(1, 4)
        fibers = {p: (p,) for p in K.points}
        f = determinize(K, K, fibers, alpha=1.0)
        for p in K.points:
            assert np.allclose(f.evaluate(p), p.to_array())

    def test_symmetric_tie_breaks_to_lex_smallest(self):
        K = enumerate_simplex(2, 1)   # the three vertices
        verts = K.points
        fibers = {p: tuple(verts) for p in verts}
        f = determinize(K, K, fibers, alpha=2.5)
        for p in verts:
            assert np.allclose(f.evaluate(p), GridPoint((0, 0, 1), 1).to_array())

    def test_min_norm_selection_oracle(self):
        amb = enumerate_simplex(2, 20)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        track = build_relation(amb, amb, "track", epsilon=0.05)
        f = determinize_relation(hub, track, alpha=1.0)
        fibers = fibers_of(hub, track)
        for p in hub.points[::17]:
            y = f.evaluate(p)
            norms = [float((q.to_array() ** 2).sum()) for q in fibers[p]]
            assert float((y ** 2).sum()) == pytest.approx(min(norms))

    def test_alpha_must_be_positive(self):
        K = enumerate_simplex(1, 3)
        with pytest.raises(InvalidArgument):
            determinize(K, K, {p: (p,) for p in K.points}, alpha=0.0)

    def test_empty_fiber_infeasible(self):
        K = enumerate_simplex(1, 3)
        fibers = {p: () for p in K.points}
        with pytest.raises(Infeasible):
            determinize(K, K, fibers, alpha=1.0)

    def test_graph_stays_inside_relation(self):
        amb = enumerate_simplex(1, 10)
        R = build_relation(amb, amb, "turnover", kappa=0.3)
        f = determinize_relation(amb, R, alpha=1.0)
        for x, img in zip(f.domain.points, f.images):
            assert R.contains_vectors(x.to_array(), img)


class TestTemplates:
    def test_core_satellite_degenerate_weight(self):
        amb = enumerate_simplex(2, 10)
        core = restrict(amb, [parse_constraint("x1<=0.5", 3)])
        sat = restrict(amb, [parse_constraint("x2<=0.3", 3)])
        t = WiringTemplate.core_satellite(1.0, amb)
        menu = apply_template(t, [core, sat])
        assert {p.coords for p in menu.points} == {p.coords for p in core.points}

    def test_half_mix_matches_double_loop_oracle(self):
        amb = enumerate_simplex(2, 10)
        t = WiringTemplate.core_satellite(0.5, amb)
        menu = apply_template(t, [amb, amb])
        oracle = set()
        for a in amb.points:
            for b in amb.points:
                mix = 0.5 * a.to_array() + 0.5 * b.to_array()
                scaled = np.rint(mix * 10)
                if abs((mix * 10 - scaled)).max() < 1e-9:
                    oracle.add(tuple(int(v) for v in scaled))
        assert {p.coords for p in menu.points} == oracle

    def test_restricted_output_keeps_only_its_points(self):
        # the mixes of x1 <= 0.6 and x2 <= 0.5 at 1/10 reach 7 points with
        # x1 > 0.6; an output space of x1 <= 0.6 keeps the other 53
        amb = enumerate_simplex(2, 10)
        core = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        sat = restrict(amb, [parse_constraint("x2<=0.5", 3)])
        full = apply_template(WiringTemplate.core_satellite(0.5, amb), [core, sat])
        kept = apply_template(WiringTemplate.core_satellite(0.5, core), [core, sat])
        assert len(full) == 60 and sum(p.coords[0] > 6 for p in full.points) == 7
        assert kept.space is core
        assert ({p.coords for p in kept.points}
                == {p.coords for p in full.points if p.coords[0] <= 6})

    def test_global_screen_applies(self):
        amb = enumerate_simplex(2, 10)
        cap = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
        t = WiringTemplate.core_satellite(1.0, amb, global_screen=cap)
        menu = apply_template(t, [amb, amb])
        assert all(10 * p.coords[0] + 5 * p.coords[1] <= 60 for p in menu.points)

    def test_weight_validation(self):
        amb = enumerate_simplex(2, 5)
        with pytest.raises(InvalidArgument):
            WiringTemplate.core_satellite(1.2, amb)

    def test_arity_validation(self):
        amb = enumerate_simplex(2, 5)
        t = WiringTemplate.core_satellite(0.5, amb)
        with pytest.raises(InvalidArgument):
            apply_template(t, [amb])

    def test_liquidity_pipeline_zero_cap_gives_liquid_face(self):
        amb = enumerate_simplex(2, 10)
        t = WiringTemplate.liquidity_pipeline(
            alpha=0.0, illiquid=(2,), caps=(1.0, 1.0, 1.0), kappa=100.0,
            costs=(1.0, 1.0, 50.0))
        menu = apply_template(t, [amb])
        assert all(p.coords[2] == 0 for p in menu.points)
        assert len(menu) == 11

    def test_liquidity_pipeline_narrowing_provenance(self):
        amb = enumerate_simplex(2, 10)
        t = WiringTemplate.liquidity_pipeline(
            alpha=0.4, illiquid=(2,), caps=(0.8, 0.8, 0.3), kappa=6.0,
            costs=(10.0, 2.0, 30.0))
        menu = apply_template(t, [amb])
        assert len(menu.provenance) == 4  # input + three screens
        for p in menu.points:
            w = p.to_array()
            assert w[2] <= 0.4 + 1e-9 and w[2] <= 0.3 + 1e-9
            assert 10 * w[0] + 2 * w[1] + 30 * w[2] <= 6.0 + 1e-9


class TestDotsTransportBridge:
    def test_intersection_with_fee_lift_narrows_to_3511(self):
        # intersecting tracking with the fee condition lifted along the
        # spoke leg gives one relation whose single action reproduces the
        # two-step menu count
        amb = enumerate_simplex(2, 100)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        track = build_relation(hub, amb, "track", epsilon=0.05)
        coeffs = FEE.coeff_array()
        fee_lift = build_relation(
            hub, amb, "custom",
            mask_fn=lambda X, Y: np.broadcast_to((Y @ coeffs <= 6 + 1e-9)[None, :],
                                                 (len(X), len(Y))).copy())
        from hubspoke.relations import intersect

        menu = action(hub, intersect(track, fee_lift))
        assert len(menu) == 3511

    def test_frobenius_on_dots_relations(self):
        # the transport-module Frobenius verifier on DOTS-built relations:
        # tracking as the hub constraint, the fee projector as the screen;
        # a lattice-valued map keeps the diagonal screen non-vacuous
        from hubspoke.transport import verify_frobenius

        amb = enumerate_simplex(2, 10)
        f = build_metric_reimpl(
            amb, amb, ObjectiveSpec(gA=np.array([[1.0, 1.0, 0.0]]),
                                    gB=np.array([[1.0, 1.0, 0.0]]), p=2),
            name="sleeve")
        R = build_relation(amb, amb, "track", epsilon=0.15)
        S = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
        rep = verify_frobenius(f, R, S)
        assert rep.holds and rep.lhs_count > 0
