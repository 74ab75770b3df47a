import numpy as np
import pytest

from hubspoke.geometry import (
    GridPoint,
    InvalidArgument,
    LinearFunctional,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.optimize import (
    Infeasible,
    ObjectiveSpec,
    ReimplMap,
    ValueFunction,
    bellman_lift,
    build_constrained_reimpl,
    build_metric_reimpl,
    check_square_commutes,
    compose_maps,
    identity_map,
    lipschitz_probe,
    objective_function,
)
from hubspoke.relations import (
    build_relation,
    compose_vertical,
    diagonal,
    full_relation,
    graph_of,
)

FEE = LinearFunctional((10, 5, 0), units="bps")


class TestMetricReimpl:
    def test_identity_when_codomain_contains_domain(self):
        K = enumerate_simplex(2, 8)
        f = build_metric_reimpl(K, K, ObjectiveSpec(p=2))
        for p in K.points:
            assert np.allclose(f.evaluate(p), p.to_array())

    def test_first_coordinate_match_on_coarser_lattice(self):
        # gA = gB = first coordinate; hub weight 0.3 lands on 0.25, the
        # nearest of the five 1/4-grid candidates (brute-force oracle)
        K1 = enumerate_simplex(1, 10)
        K2 = enumerate_simplex(1, 4)
        g = np.array([[1.0, 0.0]])
        f = build_metric_reimpl(K1, K2, ObjectiveSpec(gA=g, gB=g, p=2))
        img = f.evaluate(GridPoint((3, 7), 10))
        candidates = [p.to_array() for p in K2.points]
        oracle = min(candidates, key=lambda y: (abs(y[0] - 0.3), tuple(y)))
        assert np.allclose(img, [0.25, 0.75])
        assert np.allclose(img, oracle)

    def test_fee_penalized_constant(self):
        amb = enumerate_simplex(2, 10)
        u = objective_function({"kind": "neg_fee", "functional": FEE})
        spec = ObjectiveSpec(u=u, p=2, lam=1000.0)
        f = build_metric_reimpl(amb, amb, spec)
        cheapest = amb.points[int(np.argmin([10 * p.coords[0] + 5 * p.coords[1]
                                             for p in amb.points]))]
        for p in amb.points[::7]:
            assert np.allclose(f.evaluate(p), cheapest.to_array())

    def test_determinism_and_canonical_order(self):
        K = enumerate_simplex(2, 6)
        spec = ObjectiveSpec(p=2)
        f1 = build_metric_reimpl(K, K, spec)
        f2 = build_metric_reimpl(K, K, spec)
        for p in K.points:
            assert np.array_equal(f1.evaluate(p), f2.evaluate(p))

    def test_empty_codomain_infeasible(self):
        K = enumerate_simplex(1, 4)
        empty = restrict(K, [parse_constraint("x1<=-1", 2)])
        with pytest.raises(Infeasible):
            build_metric_reimpl(K, empty, ObjectiveSpec())


class TestConstrainedReimpl:
    def test_diagonal_gives_identity(self):
        K = enumerate_simplex(2, 6)
        u = ValueFunction.from_callable(K, lambda w: -w[0])
        f = build_constrained_reimpl(K, K, diagonal(K), u)
        for p in K.points:
            assert np.allclose(f.evaluate(p), p.to_array())

    def test_full_relation_gives_global_argmax(self):
        K = enumerate_simplex(2, 8)
        u = ValueFunction.from_callable(K, lambda w: -(10 * w[0] + 5 * w[1]))
        f = build_constrained_reimpl(K, K, full_relation(K, K), u)
        best = K.points[int(np.argmax(u.values()))]
        for p in K.points[::5]:
            assert np.allclose(f.evaluate(p), best.to_array())

    def test_turnover_fiber_feasibility_and_optimality(self):
        K = enumerate_simplex(2, 10)
        R = build_relation(K, K, "turnover", kappa=0.3)
        u = ValueFunction.from_callable(K, lambda w: -(10 * w[0] + 5 * w[1]))
        f = build_constrained_reimpl(K, K, R, u)
        mask = R.mask()
        for i, p in enumerate(K.points[::9]):
            y = f.evaluate(p)
            row = np.nonzero(mask[K.index_of(p)])[0]
            fiber_vals = u.values()[row]
            chosen = u.values()[K.index_of(
                GridPoint(tuple(int(round(c * 10)) for c in y), 10))]
            assert abs(chosen - fiber_vals.max()) < 1e-12
            assert float(np.abs(p.to_array() - y).sum()) <= 0.3 + 1e-9

    def test_graph_inside_generating_relation(self):
        K = enumerate_simplex(2, 8)
        R = build_relation(K, K, "turnover", kappa=0.25)
        u = ValueFunction.from_callable(K, lambda w: w[2])
        f = build_constrained_reimpl(K, K, R, u)
        g = graph_of(f)
        assert all(R.contains(x, y) for x, y in g.pairs)

    def test_domain_shrinks_to_dom_R(self):
        K = enumerate_simplex(1, 6)
        half = restrict(K, [parse_constraint("x1<=0.5", 2)])
        pairs = [(x, x) for x in half.points]
        from hubspoke.relations import explicit_relation

        R = explicit_relation(K, K, pairs)
        u = ValueFunction.from_callable(K, lambda w: w[0])
        f = build_constrained_reimpl(K, K, R, u)
        assert set(f.domain.points) == set(half.points)

    def test_empty_relation_infeasible(self):
        K = enumerate_simplex(1, 5)
        from hubspoke.relations import empty_relation

        u = ValueFunction.from_callable(K, lambda w: w[0])
        with pytest.raises(Infeasible):
            build_constrained_reimpl(K, K, empty_relation(K, K), u)


class TestSquares:
    def test_identity_square_commutes(self):
        K = enumerate_simplex(2, 6)
        i = identity_map(K)
        rep = check_square_commutes(i, i, i, i)
        assert rep.commutes and rep.max_discrepancy == 0.0

    def test_bellman_constant_u4(self):
        K = enumerate_simplex(1, 4)
        R = build_relation(K, K, "turnover", kappa=0.5)
        u4 = ValueFunction.from_callable(K, lambda w: 1.0)
        u2, u3 = bellman_lift(u4, R, R)
        assert set(u2.values()) == {1.0}
        assert set(u3.values()) == {1.0}

    def test_bellman_empty_forward_fiber(self):
        K = enumerate_simplex(1, 4)
        from hubspoke.relations import empty_relation

        u4 = ValueFunction.from_callable(K, lambda w: w[0])
        with pytest.raises(Infeasible):
            bellman_lift(u4, empty_relation(K, K), empty_relation(K, K))

    def test_bellman_lifted_square_commutes_two_path_oracle(self):
        K = enumerate_simplex(1, 4)
        R_f = build_relation(K, K, "turnover", kappa=0.5)
        R_g = build_relation(K, K, "turnover", kappa=0.5)
        R_gp = build_relation(K, K, "turnover", kappa=0.25)
        R_fp = build_relation(K, K, "turnover", kappa=0.25)
        assert set(compose_vertical(R_fp, R_g).pairs) \
            == set(compose_vertical(R_gp, R_f).pairs)
        u4 = ValueFunction.from_callable(K, lambda w: -(w[0] - 0.5) ** 2)
        u2, u3 = bellman_lift(u4, R_gp, R_fp)
        f = build_constrained_reimpl(K, K, R_f, u2)
        g = build_constrained_reimpl(K, K, R_g, u3)
        gp = build_constrained_reimpl(K, K, R_gp, u4)
        fp = build_constrained_reimpl(K, K, R_fp, u4)
        for x in K.points:  # two-path oracle, every hub point
            assert np.allclose(fp.evaluate(g.evaluate(x)),
                               gp.evaluate(f.evaluate(x)))

    def test_lipschitz_probe_identity(self):
        K = enumerate_simplex(2, 8)
        assert lipschitz_probe(identity_map(K)) == pytest.approx(1.0)

    @pytest.mark.parametrize("cap", ["x1<=1", "x1<=0.5", "x2>=0.3"])
    def test_lipschitz_probe_matches_pointwise_oracle(self, cap):
        # the per-point neighbor walk over a coords dict that the index replaced
        K = restrict(enumerate_simplex(2, 8), [parse_constraint(cap, 3)])
        rng = np.random.default_rng(0)
        M = rng.dirichlet(np.ones(3), size=3).T
        f = ReimplMap(K, enumerate_simplex(2, 8), "affine", matrix=M,
                      check_into=False)
        index = {p.coords: p for p in K.points}
        worst = 0.0
        for p in K.points:
            for i in range(3):
                for j in range(3):
                    q = list(p.coords)
                    q[i] -= 1
                    q[j] += 1
                    nb = index.get(tuple(q))
                    if i != j and nb is not None:
                        num = np.linalg.norm(f.evaluate(nb) - f.evaluate(p))
                        worst = max(worst, num / np.linalg.norm(nb.to_array() - p.to_array()))
        assert lipschitz_probe(f) == pytest.approx(worst, rel=1e-12)


class TestMapMechanics:
    def test_affine_shape_validation(self):
        K = enumerate_simplex(2, 4)
        with pytest.raises(InvalidArgument):
            ReimplMap(K, K, "affine", matrix=np.eye(2))

    def test_map_must_stay_in_codomain(self):
        K = enumerate_simplex(1, 4)
        half = restrict(K, [parse_constraint("x1<=0.5", 2)])
        with pytest.raises(InvalidArgument):
            ReimplMap(K, half, "affine", matrix=np.eye(2), name="esc")

    def test_compose_maps(self):
        K = enumerate_simplex(2, 6)
        f = ReimplMap(K, K, "affine", matrix=0.8 * np.eye(3),
                      offset=np.full(3, 0.2 / 3))
        g = ReimplMap(K, K, "affine", matrix=0.5 * np.eye(3),
                      offset=np.full(3, 0.5 / 3))
        gf = compose_maps(g, f)
        x = K.points[7]
        assert np.allclose(gf.evaluate(x), g.evaluate(f.evaluate(x)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_value_function_rejects_non_finite_values(self, bad):
        K = enumerate_simplex(1, 4)
        with pytest.raises(InvalidArgument, match="not finite at"):
            ValueFunction.from_callable(K, lambda w: bad if w[0] == 0.5 else 0.0)

    @pytest.mark.parametrize("kw", [{"p": float("nan")}, {"p": float("inf")},
                                    {"lam": float("nan")}, {"gA": [[float("nan"), 1.0]]}])
    def test_objective_spec_rejects_non_finite(self, kw):
        with pytest.raises(InvalidArgument, match="finite"):
            ObjectiveSpec(**kw)

    def test_lattice_argmin_rejects_outside_domain(self):
        K = enumerate_simplex(1, 4)
        f = build_metric_reimpl(K, K, ObjectiveSpec())
        with pytest.raises(InvalidArgument):
            f.evaluate(GridPoint((1, 4), 5))
