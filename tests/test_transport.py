import itertools
import runpy
from pathlib import Path

import numpy as np
import pytest

from hubspoke.geometry import (
    InvalidArgument,
    LatticeSpace,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.optimize import (
    ObjectiveSpec,
    ReimplMap,
    build_metric_reimpl,
    compose_maps,
    identity_map,
    inclusion_map,
)
from hubspoke.relations import (
    build_relation,
    compose_vertical,
    dagger,
    empty_relation,
    explicit_relation,
    full_relation,
    graph_of,
    intersect,
)
from hubspoke.transport import (
    CommutingSquare,
    closure_fix_demo,
    pullback,
    pushforward,
    verify_adjunction,
    verify_frobenius,
    verify_functoriality,
    verify_lax_bc,
    verify_strict_bc,
)


def agg_map(domain, codomain):
    """(x0, x1, x2) -> (x0 + x1, x2)."""
    return ReimplMap(domain, codomain, "affine",
                     matrix=np.array([[1, 1, 0], [0, 0, 1]], float), name="agg")


class TestPullback:
    def test_identity_law(self):
        K = enumerate_simplex(1, 6)
        S = build_relation(K, K, "turnover", kappa=0.4)
        pb = pullback(identity_map(K), S)
        assert set(pb.pairs) == set(S.pairs)

    def test_worked_aggregation_formula(self):
        # f(x) = (x0+x1, x2), S = {y0 <= 2 z0}  ==>  f*S = {x0+x1 <= 2 z0}
        hub = restrict(enumerate_simplex(2, 10), [parse_constraint("x1<=0.5", 3)])
        spoke = enumerate_simplex(1, 10)
        f = agg_map(hub, spoke)
        S = build_relation(spoke, spoke, "custom",
                           mask_fn=lambda Y, Z: Y[:, [0]] <= 2 * Z[None, :, 0] + 1e-9)
        pb = pullback(f, S)
        for x in hub.points:
            for z in spoke.points:
                want = (x.coords[0] + x.coords[1]) / 10 <= 2 * z.coords[0] / 10 + 1e-9
                assert pb.contains_vectors(x.to_array(), z.to_array()) == want

    def test_pullback_of_empty(self):
        K = enumerate_simplex(1, 5)
        pb = pullback(identity_map(K), empty_relation(K, K))
        assert len(pb.pairs) == 0

    def test_preserves_intersections(self):
        K = enumerate_simplex(2, 6)
        f = ReimplMap(K, K, "affine", matrix=0.8 * np.eye(3),
                      offset=np.full(3, 0.2 / 3))
        S1 = build_relation(K, K, "track", epsilon=0.3)
        S2 = build_relation(K, K, "turnover", kappa=0.5)
        lhs = pullback(f, intersect(S1, S2))
        rhs = intersect(pullback(f, S1), pullback(f, S2))
        assert set(lhs.pairs) == set(rhs.pairs)


class TestPushforward:
    def test_identity_law(self):
        K = enumerate_simplex(1, 6)
        R = build_relation(K, K, "turnover", kappa=0.4)
        ps = pushforward(identity_map(K), R)
        assert ps.keys() == {(tuple(np.round(x.to_array(), 9)),
                              tuple(np.round(z.to_array(), 9)))
                             for x, z in R.pairs}

    def test_worked_membership_spot_checks(self):
        # membership of (y, z) iff max(0, z0) <= min(0.5, y0)
        hub = restrict(enumerate_simplex(2, 10), [parse_constraint("x1<=0.5", 3)])
        spoke = enumerate_simplex(1, 10)
        f = agg_map(hub, spoke)
        R = build_relation(hub, spoke, "custom",
                           mask_fn=lambda X, Z: X[:, [0]] >= Z[None, :, 0] - 1e-9)
        ps = pushforward(f, R)
        assert ps.test(np.array([[0.6, 0.4]]), np.array([[0.4, 0.6]]))[0, 0]
        assert not ps.test(np.array([[0.3, 0.7]]), np.array([[0.4, 0.6]]))[0, 0]
        # full membership agrees with the closed-form condition
        for y in spoke.points:
            for z in spoke.points:
                y0, z0 = y.coords[0] / 10, z.coords[0] / 10
                want = max(0.0, z0) <= min(0.5, y0) + 1e-9
                got = ps.test(y.to_array()[None], z.to_array()[None])[0, 0]
                assert got == want

    def test_constant_map_collapses_first_components(self):
        K = enumerate_simplex(2, 5)
        const = ReimplMap(K, K, "affine", matrix=np.zeros((3, 3)),
                          offset=np.full(3, 1 / 3), name="const")
        R = build_relation(K, K, "turnover", kappa=0.4)
        ps = pushforward(const, R)
        firsts = {a for a, _ in ps.keys()}
        assert len(firsts) == 1

    def test_agrees_with_graph_dagger_composition(self):
        # f_! R == R . Graph(f)+ for lattice-valued f, exactly
        K = enumerate_simplex(1, 8)
        f = build_metric_reimpl(K, K, ObjectiveSpec(
            gA=np.array([[1.0, 0.0]]), gB=np.array([[1.0, 0.0]]), p=2))
        R = build_relation(K, K, "turnover", kappa=0.3)
        ps = pushforward(f, R)
        via_graph = compose_vertical(R, dagger(graph_of(f)))
        assert ps.keys() == {(tuple(np.round(a.to_array(), 9)),
                              tuple(np.round(b.to_array(), 9)))
                             for a, b in via_graph.pairs}


class TestAdjunction:
    def test_exhaustive_smallest_grid(self):
        # all subsets of the 3x3 pair grid at 1/2, fixed f: 2^9 R-S pairs
        K = enumerate_simplex(1, 2)
        f = build_metric_reimpl(K, K, ObjectiveSpec(
            gA=np.array([[1.0, 0.0]]), gB=np.array([[1.0, 0.0]]), p=2))
        cells = list(itertools.product(K.points, K.points))
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(cells, k) for k in range(4)))
        relations = [explicit_relation(K, K, pairs) for pairs in subsets]
        for R in relations:
            for S in relations:
                assert verify_adjunction(f, R, S).holds

    def test_dense_random_5x5_grid(self):
        rng = np.random.default_rng(0)
        K = enumerate_simplex(1, 4)
        f = build_metric_reimpl(K, K, ObjectiveSpec(
            gA=np.array([[1.0, 0.0]]), gB=np.array([[0.5, 1.0]]), p=2))
        cells = [(x, z) for x in K.points for z in K.points]
        for _ in range(300):
            R = explicit_relation(K, K, [c for c in cells if rng.random() < 0.35])
            S = explicit_relation(K, K, [c for c in cells if rng.random() < 0.5])
            assert verify_adjunction(f, R, S).holds

    def test_unit_and_counit_directions(self):
        K = enumerate_simplex(2, 6)
        f = ReimplMap(K, K, "affine", matrix=0.8 * np.eye(3),
                      offset=np.full(3, 0.2 / 3))
        S = build_relation(K, K, "turnover", kappa=0.4)
        R = pullback(f, S)
        rep = verify_adjunction(f, R, S)
        assert rep.holds and rep.detail["hub_side"] and rep.detail["spoke_side"]


class TestFrobenius:
    def test_reference_fixture_identical_sets(self):
        amb = enumerate_simplex(2, 10)
        f = ReimplMap(amb, amb, "affine", matrix=0.8 * np.eye(3),
                      offset=np.full(3, 0.2 / 3), name="shrink")
        R = build_relation(amb, amb, "track", epsilon=0.10)
        S = build_relation(amb, amb, "turnover", kappa=0.3)
        rep = verify_frobenius(f, R, S)
        assert rep.holds and rep.lhs_count == rep.rhs_count > 0

    def test_full_spoke_constraint(self):
        K = enumerate_simplex(1, 6)
        f = identity_map(K)
        R = build_relation(K, K, "turnover", kappa=0.3)
        rep = verify_frobenius(f, R, full_relation(K, K))
        assert rep.holds
        assert rep.lhs_count == len(pushforward(f, R))

    def test_empty_hub_constraint(self):
        K = enumerate_simplex(1, 6)
        rep = verify_frobenius(identity_map(K), empty_relation(K, K),
                               full_relation(K, K))
        assert rep.holds and rep.lhs_count == rep.rhs_count == 0


class TestFunctoriality:
    def test_identity_chain(self):
        K = enumerate_simplex(1, 5)
        R = build_relation(K, K, "turnover", kappa=0.4)
        assert verify_functoriality(identity_map(K), identity_map(K), R).holds

    def test_aggregation_then_swap(self):
        hub = enumerate_simplex(2, 10)
        mid = enumerate_simplex(1, 10)
        f = agg_map(hub, mid)
        g = ReimplMap(mid, mid, "affine",
                      matrix=np.array([[0, 1], [1, 0]], float), name="swap")
        Z = enumerate_simplex(1, 10)
        R = build_relation(hub, Z, "custom",
                           mask_fn=lambda X, Zz: X[:, [2]] >= Zz[None, :, 0] - 1e-9)
        S = build_relation(mid, Z, "track", epsilon=0.5)
        assert verify_functoriality(f, g, R, S=S).holds

    def test_random_affine_contractions(self):
        rng = np.random.default_rng(5)
        K = enumerate_simplex(2, 10)
        for _ in range(5):
            a, b = rng.uniform(0.5, 0.95, size=2)
            f = ReimplMap(K, K, "affine", matrix=a * np.eye(3),
                          offset=np.full(3, (1 - a) / 3))
            g = ReimplMap(K, K, "affine", matrix=b * np.eye(3),
                          offset=np.full(3, (1 - b) / 3))
            R = build_relation(K, K, "track", epsilon=float(rng.uniform(0.1, 0.4)))
            assert verify_functoriality(f, g, R).holds


class TestBeckChevalley:
    def test_identity_square_is_equality(self):
        K = enumerate_simplex(1, 6)
        i = identity_map(K)
        square = CommutingSquare(g=i, fp=i, f=i, h=i)
        R = build_relation(K, K, "turnover", kappa=0.3)
        lax = verify_lax_bc(square, R)
        strict = verify_strict_bc(square, R)
        assert lax.holds and strict.holds and strict.detail["pointwise_cartesian"]

    def test_aggregation_chain_equality(self):
        KA = enumerate_simplex(3, 10)
        KB = enumerate_simplex(2, 10)
        KD = enumerate_simplex(1, 10)
        g = ReimplMap(KA, KB, "affine",
                      matrix=np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                                      float), name="sectors")
        f = ReimplMap(KB, KD, "affine",
                      matrix=np.array([[1, 1, 0], [0, 0, 1]], float), name="classes")
        fp = compose_maps(f, g, name="direct")
        square = CommutingSquare(g=g, fp=fp, f=f, h=identity_map(KD))
        Z = enumerate_simplex(1, 10)
        R = build_relation(KB, Z, "custom",
                           mask_fn=lambda Y, Zz: Y[:, [0]] <= 2 * Zz[:, 0][None, :] + 1e-9)
        lax = verify_lax_bc(square, R)
        strict = verify_strict_bc(square, R)
        assert lax.holds
        assert strict.detail["pointwise_cartesian"] and strict.holds
        assert lax.lhs_count == lax.rhs_count  # inclusion is equality here

    def test_hole_square_fails_cartesian_and_equality(self):
        KB = enumerate_simplex(2, 10)
        hole = LatticeSpace.from_points(
            2, 10, [p for p in KB.points if not 3 <= p.coords[0] <= 7])
        incl = inclusion_map(hole, KB)
        i = identity_map(KB)
        square = CommutingSquare(g=incl, fp=incl, f=i, h=i)
        Z = enumerate_simplex(1, 10)
        R = build_relation(KB, Z, "custom",
                           mask_fn=lambda Y, Zz: Y[:, [0]] >= Zz[:, 0][None, :] - 1e-9)
        strict = verify_strict_bc(square, R)
        assert not strict.detail["pointwise_cartesian"]
        assert not strict.holds and strict.witnesses
        # the lax inclusion must still hold on the failing square
        assert verify_lax_bc(square, R).holds

    def test_lax_holds_on_random_commuting_squares(self):
        rng = np.random.default_rng(12)
        N = 8
        KB = enumerate_simplex(1, N)
        KD = enumerate_simplex(1, N)
        Z = enumerate_simplex(1, N)
        for _ in range(10):
            KA = enumerate_simplex(1, N)
            gA = rng.uniform(-1, 1, size=(2, 2))
            g = build_metric_reimpl(KA, KB, ObjectiveSpec(
                gA=gA, gB=rng.uniform(-1, 1, size=(2, 2)), p=2), name="g")
            f = build_metric_reimpl(KB, KD, ObjectiveSpec(
                gA=rng.uniform(-1, 1, size=(2, 2)),
                gB=rng.uniform(-1, 1, size=(2, 2)), p=2), name="f")
            square = CommutingSquare(g=g, fp=compose_maps(f, g), f=f,
                                     h=identity_map(KD))
            pairs = [(x, z) for x in KB.points for z in Z.points
                     if rng.random() < 0.3]
            R = explicit_relation(KB, Z, pairs)
            assert verify_lax_bc(square, R).holds

    def test_counts_past_a_byte(self):
        # 256 hubs share one image pair and 256 points of K_B share one
        # image: a uint8 product of the incidence counts would wrap to 0
        K = LatticeSpace.from_points(2, 22, enumerate_simplex(2, 22).points[:256])
        KD = enumerate_simplex(1, 22)

        def const(dom, cod, p):
            return ReimplMap(dom, cod, "affine", matrix=np.zeros((cod.n + 1, dom.n + 1)),
                             offset=p.to_array(), name="const")

        p0, d0 = K.points[0], KD.points[0]
        square = CommutingSquare(g=const(K, K, p0), fp=const(K, K, p0),
                                 f=const(K, KD, d0), h=const(K, KD, d0))
        R = full_relation(K, KD)
        assert verify_lax_bc(square, R).holds
        failures = verify_strict_bc(square, R).detail["cartesian_failures"]
        lifted = tuple(p0.to_array().tolist())
        assert failures and (lifted, lifted) not in failures

    def test_non_commuting_square_rejected(self):
        K = enumerate_simplex(1, 4)
        i = identity_map(K)
        swap = ReimplMap(K, K, "affine",
                         matrix=np.array([[0, 1], [1, 0]], float), name="swap")
        with pytest.raises(InvalidArgument, match="does not commute"):
            CommutingSquare(g=i, fp=i, f=i, h=swap)


class TestClosureFixDemo:
    def test_frobenius_counterexample(self):
        rep = closure_fix_demo("frobenius")
        assert not rep.holds
        assert rep.detail["lhs"] == []
        assert rep.detail["rhs"] == [((1.0, 0.0), (1.0, 0.0))]

    def test_bc_counterexample(self):
        rep = closure_fix_demo("bc")
        assert not rep.holds
        assert rep.lhs_count == 0 and rep.rhs_count == 1

    def test_closed_hub_restores_both_laws(self):
        assert closure_fix_demo("frobenius", closed_hub=True).holds
        assert closure_fix_demo("bc", closed_hub=True).holds

    def test_unknown_law(self):
        with pytest.raises(InvalidArgument):
            closure_fix_demo("adjunction")


class TestLawReport:
    def test_holding_report_carries_no_witnesses(self):
        from hubspoke.transport import LawReport

        with pytest.raises(InvalidArgument):
            LawReport("adjunction", True, 1, 1, witnesses=((1, 2),))

    def test_to_dict_roundtrips_json(self):
        import json

        K = enumerate_simplex(1, 4)
        rep = verify_adjunction(identity_map(K),
                                build_relation(K, K, "turnover", kappa=0.2),
                                build_relation(K, K, "turnover", kappa=0.4))
        json.dumps(rep.to_dict())


# The sha256 prefixes `scripts/desk_laws.py` prints at Delta^2 @ 1/50: the
# pullback mask and the JSON of each law report.  A change to the transport
# code must leave these bytes as they are.
DESK_LAWS_AT_50 = [("pullback", "a01631e1"), ("adjunction", "a953c9ab"),
                   ("frobenius", "ebaa0992"), ("functoriality", "ff05a9d5"),
                   ("lax_bc", "f65d023c"), ("strict_bc", "40d4c1b1")]


@pytest.mark.parametrize("case,digest", DESK_LAWS_AT_50)
def test_desk_laws_digests_pinned(case, digest):
    script = Path(__file__).resolve().parents[1] / "scripts" / "desk_laws.py"
    assert runpy.run_path(str(script))["probe"](50, case)[3] == digest
