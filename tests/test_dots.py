import hashlib
import itertools
import re
import runpy
from pathlib import Path

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
    Relation,
    build_relation,
    diagonal,
    empty_relation,
    explicit_relation,
    full_relation,
    graph_of,
)
from hubspoke.dots import (
    Menu,
    WiringTemplate,
    action,
    apply_template,
    determinize_relation,
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


def per_hub_determinize(K, R, alpha):
    """The per-hub selection loop, kept as the oracle: sort each hub's
    fiber, take alpha*||y||^2 per point, keep the first minimum."""
    menu = K if isinstance(K, Menu) else Menu(K, np.ones(len(K), dtype=bool))
    mask = R.mask()
    chosen = []
    for x in menu.points:
        fiber_pts = sorted(R.codomain.points[j]
                           for j in np.flatnonzero(mask[R.domain.indices_of([x])[0]]))
        if not fiber_pts:
            raise Infeasible(f"empty fiber at hub {x}")
        norms = [alpha * float((p.to_array() ** 2).sum()) for p in fiber_pts]
        chosen.append(fiber_pts[int(np.argmin(norms))])
    return R.codomain.indices_of(chosen)


class TestDeterminize:
    def test_singleton_fibers_forced(self):
        K = enumerate_simplex(1, 4)
        f = determinize_relation(K, diagonal(K), alpha=1.0)
        for p in K.points:
            assert np.allclose(f.evaluate(p), p.to_array())

    def test_symmetric_tie_breaks_to_lex_smallest(self):
        K = enumerate_simplex(2, 1)   # the three vertices, all of norm 1
        f = determinize_relation(K, full_relation(K, K), alpha=2.5)
        for p in K.points:
            assert np.allclose(f.evaluate(p), GridPoint((0, 0, 1), 1).to_array())

    def test_min_norm_selection_oracle(self):
        amb = enumerate_simplex(2, 20)
        hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
        track = build_relation(amb, amb, "track", epsilon=0.05)
        f = determinize_relation(hub, track, alpha=1.0)
        mask = track.mask()
        for p in hub.points[::17]:
            fiber = amb.array[mask[amb.index_holdings([p.coords])[0]]]
            assert float((f.evaluate(p) ** 2).sum()) == pytest.approx(
                float((fiber ** 2).sum(axis=1).min()))

    def test_alpha_must_be_positive(self):
        K = enumerate_simplex(1, 3)
        for alpha in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidArgument):
                determinize_relation(K, diagonal(K), alpha=alpha)

    def test_empty_fiber_infeasible(self):
        K = enumerate_simplex(1, 3)
        with pytest.raises(Infeasible, match=r"empty fiber at hub \(0/3, 3/3\)"):
            determinize_relation(K, empty_relation(K, K), alpha=1.0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3),
           alpha=st.sampled_from([0.3, 1.0, 2.5, 1e-6]))
    def test_matches_per_hub_loop(self, data, n, alpha):
        amb = enumerate_simplex(n, data.draw(st.integers(1, 20 if n < 3 else 8)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["track", "turnover", "full", "dense", "sparse"]))
        if kind == "track":
            R = build_relation(amb, amb, "track", epsilon=data.draw(st.floats(0.0, 0.5)))
        elif kind == "turnover":
            R = build_relation(amb, amb, "turnover", kappa=data.draw(st.floats(0.0, 1.0)))
        elif kind == "full":      # fibers tie on the norm across permuted points
            R = full_relation(amb, amb)
        else:                     # random incidences; sparse ones leave fibers empty
            keep = rng.random((len(amb), len(amb))) < (0.5 if kind == "dense" else 0.05)
            R = explicit_relation(amb, amb, [(amb.points[i], amb.points[j])
                                             for i, j in zip(*np.nonzero(keep))])
        hubs = np.ones(len(amb), dtype=bool)
        menu = amb
        if data.draw(st.booleans()):   # a restricted menu: a subset of the hubs
            hubs = rng.random(len(amb)) < 0.4
            menu = Menu(amb, hubs)
        try:
            want = per_hub_determinize(menu, R, alpha)
        except Infeasible as e:
            with pytest.raises(Infeasible, match=re.escape(str(e))):
                determinize_relation(menu, R, alpha)
            return
        f = determinize_relation(menu, R, alpha)
        assert np.array_equal(f.img, want)
        assert np.array_equal(f.domain.holdings, amb.holdings[hubs])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2), N=st.integers(1, 10),
           alpha=st.sampled_from([0.3, 1.0, 2.5]))
    def test_rows_match_the_dense_mask_path(self, data, n, N, alpha):
        amb = enumerate_simplex(n, N)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["track", "turnover", "fee_cap", "explicit"]))
        eps = data.draw(st.floats(0.0, 0.6))
        pairs = rng.random((len(amb), len(amb))) < 0.3

        def make():
            return {"track": lambda: build_relation(amb, amb, "track", epsilon=eps),
                    "turnover": lambda: build_relation(amb, amb, "turnover", kappa=eps),
                    "fee_cap": lambda: build_relation(
                        amb, amb, "fee_cap", tau=10 * eps,
                        functional=LinearFunctional((1,) * (n + 1))),
                    "explicit": lambda: Relation.from_mask(amb, amb, pairs)}[kind]()

        menu = Menu(amb, rng.random(len(amb)) < data.draw(st.sampled_from([0.1, 0.5, 1.0])))
        # the dense path: the menu's rows of the full incidence mask
        rows = np.flatnonzero(menu.mask)
        cached = make()
        mask = cached.mask()[rows]
        for R in (make(), cached):
            if not mask.any(axis=1).all():
                with pytest.raises(Infeasible, match="empty fiber"):
                    determinize_relation(menu, R, alpha)
                continue
            f = determinize_relation(menu, R, alpha)
            penalty = -alpha * (amb.array ** 2).sum(axis=1)
            assert np.array_equal(f.img, np.argmax(np.where(mask, penalty, -np.inf), axis=1))
            assert np.array_equal(f.domain.holdings, amb.holdings[rows])

    def test_small_menu_past_the_mask_limit(self, monkeypatch):
        from hubspoke import relations

        K = enumerate_simplex(2, 10)                        # 66 points
        monkeypatch.setattr(relations, "MASK_LIMIT", 2 * len(K))
        R = build_relation(K, K, "track", epsilon=0.2)
        with pytest.raises(InvalidArgument, match="incidence mask"):
            R.mask()
        hubs = np.zeros(len(K), dtype=bool)
        hubs[[7, 40]] = True
        f = determinize_relation(Menu(K, hubs), R, alpha=1.0)
        for x, j in zip(K.array[hubs], f.img):
            fiber = R.test(x[None], K.array)[0]
            norms = np.where(fiber, (K.array ** 2).sum(axis=1), np.inf)
            assert j == np.argmin(norms)

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


def test_worked_example_stdout_pinned(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "worked_example.py"
    runpy.run_path(str(script))["main"]()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "319951978fa3ee20f7109ded99e53cd89aebd965c9d40cfb8bc899ebdf48f670")
