import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubspoke.geometry import (
    GridPoint,
    InvalidArgument,
    LatticeSpace,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.optimize import ReimplMap, identity_map
from hubspoke.relations import Relation, build_relation, explicit_relation
from hubspoke import stochastic
from hubspoke.stochastic import (
    KDE_BLOCK,
    MAX_SAMPLES,
    ComparisonRow,
    KernelSpec,
    SampleCloud,
    _lattice_cure,
    builtin_scenarios,
    compose_radius,
    comparison_table,
    gaussian_radius_oracle,
    hdr,
    hdr_pullback_check,
    hdr_regions,
    kde_density,
    lattice_components,
    metric_pullback,
    metric_pullback_check,
    metric_pushforward,
    project_to_simplex,
    sample_chain,
    sample_kernel,
    safety_radius,
    three_way_compare,
    wasserstein_cure,
)

HUB = (0.45, 0.30, 0.25)


def components_oracle(points):
    """The GridPoint-set neighbor walk the index-based components replaced."""
    remaining, comps = set(points), []
    while remaining:
        frontier = [remaining.pop()]
        comp = set(frontier)
        while frontier:
            c = frontier.pop().coords
            for i, j in itertools.permutations(range(len(c)), 2):
                if c[i] == 0:
                    continue
                q = list(c)
                q[i] -= 1
                q[j] += 1
                gp = GridPoint(tuple(q), sum(c))
                if gp in remaining:
                    remaining.discard(gp)
                    comp.add(gp)
                    frontier.append(gp)
        comps.append(comp)
    return comps


def test_stochastic_sets_build_no_grid_point(monkeypatch):
    built = []
    real = GridPoint.__post_init__
    monkeypatch.setattr(GridPoint, "__post_init__",
                        lambda self: built.append(self.coords) or real(self))
    amb = enumerate_simplex(2, 50)
    S = restrict(amb, [parse_constraint("x1<=0.4", 3)])
    check = metric_pullback_check(S, 0.0737, (0.3, 0.35, 0.35), ambient=amb)
    sc = builtin_scenarios(n_samples=1000)["split_peak"]
    cloud = sample_kernel(sc.spec, sc.hub)
    lattice = enumerate_simplex(2, 80)
    r20, _ = hdr_regions(cloud, 0.03, (0.20, 0.05), lattice)
    comps = lattice_components(lattice, r20.region)
    point = SampleCloud(hub=np.asarray(HUB), samples=np.tile(np.asarray(HUB), (100, 1)),
                        spec=KernelSpec(n_samples=100))
    (mass,) = hdr_regions(point, 0.03, (0.1,), lattice)
    robust = hdr_pullback_check(cloud, S, 0.20, eval_lattice=lattice)
    assert check.eroded.sum() == 798 and len(comps) >= 2
    assert mass.point_mass and robust.region_size > 0
    assert not any(m.flags.writeable for m in (check.eroded, r20.region, mass.region, *comps))
    assert built == []
    GridPoint((1, 0, 0), 1)
    assert built == [(1, 0, 0)]


class TestProjection:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1, 2), min_size=2, max_size=5))
    def test_output_on_simplex(self, raw):
        w = project_to_simplex(np.asarray(raw))[0]
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 1), min_size=3, max_size=3))
    def test_fixed_points(self, raw):
        v = np.asarray(raw) / sum(raw)
        assert np.allclose(project_to_simplex(v)[0], v, atol=1e-12)

    def test_projection_is_euclidean_nearest(self):
        # against a fine grid search on the 2-simplex
        rng = np.random.default_rng(0)
        grid = enumerate_simplex(2, 100).array
        for _ in range(10):
            v = rng.normal(0.3, 0.4, size=3)
            w = project_to_simplex(v)[0]
            d_grid = ((grid - v) ** 2).sum(axis=1).min()
            assert ((w - v) ** 2).sum() <= d_grid + 1e-9


class TestSampling:
    def test_determinism(self):
        spec = KernelSpec(shape="gaussian", sigma=0.03, n_samples=500, seed=7)
        a = sample_kernel(spec, HUB)
        b = sample_kernel(spec, HUB)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_samples(self):
        a = sample_kernel(KernelSpec(n_samples=500, seed=1), HUB)
        b = sample_kernel(KernelSpec(n_samples=500, seed=2), HUB)
        assert not np.array_equal(a.samples, b.samples)

    def test_vanishing_noise_limit(self):
        spec = KernelSpec(shape="gaussian", sigma=1e-9, n_samples=200, seed=3)
        cloud = sample_kernel(spec, HUB)
        assert np.max(np.abs(cloud.samples - np.asarray(HUB))) < 1e-6

    def test_gaussian_per_coordinate_std_oracle(self):
        # projection of iid noise: per-coordinate std = sigma * sqrt(1 - 1/d)
        spec = KernelSpec(shape="gaussian", sigma=0.03, n_samples=20000, seed=5)
        cloud = sample_kernel(spec, (0.4, 0.35, 0.25))
        want = 0.03 * math.sqrt(2 / 3)
        got = cloud.samples.std(axis=0)
        assert np.all(np.abs(got - want) < 0.08 * want)

    def test_bimodal_mode_separation(self):
        spec = KernelSpec(shape="bimodal", sigma=0.02, n_samples=20000,
                          seed=11, delta1=0.05)
        cloud = sample_kernel(spec, (0.4, 0.32, 0.28))
        first = cloud.samples[:, 0]
        upper = first[first > 0.4].mean()
        lower = first[first < 0.4].mean()
        assert abs((upper - lower) - 2 * spec.delta1) < 0.01

    def test_off_simplex_hub_rejected(self):
        with pytest.raises(InvalidArgument):
            sample_kernel(KernelSpec(n_samples=200), (0.5, 0.6, 0.2))

    def test_small_cloud_rejected(self):
        with pytest.raises(InvalidArgument):
            KernelSpec(n_samples=50)

    def test_sample_budget(self):
        assert KernelSpec(n_samples=MAX_SAMPLES).n_samples == MAX_SAMPLES
        with pytest.raises(InvalidArgument, match="samples exceed"):
            KernelSpec(n_samples=MAX_SAMPLES + 1)

    def test_cloud_invariant_enforced(self):
        with pytest.raises(InvalidArgument):
            SampleCloud(hub=np.asarray(HUB),
                        samples=np.array([[0.5, 0.6, 0.1]]),
                        spec=KernelSpec(n_samples=100))

    @pytest.mark.parametrize("sigma", [0.0, -0.03, math.nan, math.inf])
    def test_sigma_must_be_finite_positive(self, sigma):
        with pytest.raises(InvalidArgument):
            KernelSpec(sigma=sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cloud_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            SampleCloud(hub=np.asarray(HUB),
                        samples=np.array([[0.5, 0.5, 0.0], [bad, 0.5, 0.5]]),
                        spec=KernelSpec(n_samples=100))
        with pytest.raises(InvalidArgument):
            sample_kernel(KernelSpec(n_samples=100), (bad, 0.5, 0.5))


class TestSafetyRadius:
    def test_gaussian_band_and_oracle(self):
        spec = KernelSpec(shape="gaussian", sigma=0.03, n_samples=10000, seed=42)
        cloud = sample_kernel(spec, HUB)
        r = safety_radius(cloud, HUB, 0.05).r
        assert 0.063 <= r <= 0.085
        oracle = gaussian_radius_oracle(0.03, 0.05)
        assert abs(r - oracle) / oracle < 0.05

    def test_bimodal_band(self):
        sc = builtin_scenarios()["split_peak"]
        r = safety_radius(sample_kernel(sc.spec, sc.hub), sc.hub, 0.05).r
        assert abs(r - 0.098) <= 0.2 * 0.098

    def test_nearest_rank_definition(self):
        spec = KernelSpec(n_samples=100, seed=9)
        cloud = sample_kernel(spec, HUB)
        dist = np.sort(np.linalg.norm(cloud.samples - np.asarray(HUB), axis=1))
        r = safety_radius(cloud, HUB, 0.05).r
        assert r == dist[math.ceil(0.95 * 100) - 1]
        at_least = (dist <= r + 1e-15).sum()
        assert at_least >= math.ceil(0.95 * 100)

    def test_epsilon_validation(self):
        cloud = sample_kernel(KernelSpec(n_samples=100, seed=1), HUB)
        with pytest.raises(InvalidArgument):
            safety_radius(cloud, HUB, 0.0)


class TestErosionDilation:
    def test_zero_radius_is_identity(self):
        S = restrict(enumerate_simplex(2, 20), [parse_constraint("x1<=0.4", 3)])
        check = metric_pullback_check(S, 0.0, (0.2, 0.4, 0.4))
        assert check.eroded.shape == (len(S),) and check.eroded.all()
        assert check.accepted

    def test_published_erosion_counts(self):
        S = restrict(enumerate_simplex(2, 50), [parse_constraint("x1<=0.4", 3)])
        assert metric_pullback_check(S, 0.0737, (0.3, 0.35, 0.35)).eroded.sum() == 798
        assert metric_pullback_check(S, 0.1330, (0.3, 0.35, 0.35)).eroded.sum() == 698

    def test_scan_budget_counts_cells(self, monkeypatch):
        amb = enumerate_simplex(2, 20)
        S = restrict(amb, [parse_constraint("x1<=0.4", 3)])
        cells = len(S) * (len(amb) - len(S)) * 3
        monkeypatch.setattr(stochastic, "MAX_EROSION_CELLS", cells)
        assert metric_pullback_check(S, 0.1, (0.3, 0.35, 0.35)).eroded.sum() > 0
        monkeypatch.setattr(stochastic, "MAX_EROSION_CELLS", cells - 1)
        with pytest.raises(InvalidArgument, match=f"supported {cells - 1} cells"):
            metric_pullback_check(S, 0.1, (0.3, 0.35, 0.35))

    def test_banana_hub_rejected(self):
        sc = builtin_scenarios()["banana"]
        r = safety_radius(sample_kernel(sc.spec, sc.hub), sc.hub, 0.05).r
        S = sc.constraint_space(50)
        assert not metric_pullback_check(S, r, sc.hub).accepted

    def test_given_ambient_matches_enumerated(self):
        amb = enumerate_simplex(2, 20)
        S = restrict(amb, [parse_constraint("x1<=0.4", 3)])
        for r in (0.0, 0.05, 0.2):
            a = metric_pullback_check(S, r, (0.3, 0.35, 0.35))
            b = metric_pullback_check(S, r, (0.3, 0.35, 0.35), ambient=amb)
            assert np.array_equal(a.eroded, b.eroded) and a.accepted == b.accepted

    def test_ambient_must_be_the_full_lattice(self):
        S = restrict(enumerate_simplex(2, 20), [parse_constraint("x1<=0.4", 3)])
        for wrong in (enumerate_simplex(2, 10), enumerate_simplex(3, 20), S):
            with pytest.raises(InvalidArgument):
                metric_pullback_check(S, 0.05, (0.3, 0.35, 0.35), ambient=wrong)

    def test_dilation_contains_deterministic_image(self):
        K = enumerate_simplex(1, 10)
        f = identity_map(K)
        pairs = [(K.points[2], K.points[5]), (K.points[7], K.points[1])]
        R = explicit_relation(K, K, pairs)
        dilated = metric_pushforward(f, R, 0.15)
        for x, z in pairs:
            assert dilated.contains_vectors(x.to_array(), z.to_array())
        assert len(dilated.pairs) > len(pairs)

    def test_zero_radius_dilation_is_lattice_pushforward(self):
        K = enumerate_simplex(1, 8)
        f = identity_map(K)
        R = build_relation(K, K, "turnover", kappa=0.25)
        dilated = metric_pushforward(f, R, 0.0)
        assert set(dilated.pairs) == set(R.pairs)

    def test_one_way_adjunction_exhaustive(self):
        # dilated pushforward inside S forces every hub through the eroded check
        K = enumerate_simplex(1, 10)
        f = identity_map(K)
        R = build_relation(K, K, "turnover", kappa=0.2)
        S = build_relation(K, K, "track", epsilon=0.45)
        r = 0.1
        dilated = metric_pushforward(f, R, r)
        if all(S.contains_vectors(y.to_array(), z.to_array()) for y, z in dilated.pairs):
            for x, z in R.pairs:
                bad = [y for y in K.points
                       if not S.contains_vectors(y.to_array(), z.to_array())]
                if bad:
                    dmin = min(np.linalg.norm(x.to_array() - y.to_array())
                               for y in bad)
                    assert dmin > r


def eroded_pullback_oracle(f, S, r):
    """The eroded pullback column by column: x passes z when no point y of
    S's domain with (y, z) outside S lies within r of f(x)."""
    Y, F, S_mask = S.domain.array, f.images, S.mask()
    pull = np.zeros((len(f.domain), len(S.codomain)), dtype=bool)
    for zi in range(len(S.codomain)):
        viol = Y[~S_mask[:, zi]]
        if len(viol) == 0:
            pull[:, zi] = True
            continue
        d2 = ((F[:, None, :] - viol[None, :, :]) ** 2).sum(axis=2)
        pull[:, zi] = d2.min(axis=1) > r * r
    return pull


class TestMetricTransport:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 2), m=st.integers(1, 2), N=st.integers(1, 10),
           affine=st.booleans(), k=st.integers(0, 8), ulp=st.sampled_from([-1, 0, 1]),
           seed=st.integers(0, 2**16))
    def test_pullback_matches_the_column_loop(self, n, m, N, affine, k, ulp, seed):
        rng = np.random.default_rng(seed)
        K1, K2, Z = enumerate_simplex(n, N), enumerate_simplex(m, N), enumerate_simplex(1, N)
        if affine:      # column-stochastic: images off the lattice, inside the simplex
            f = ReimplMap(K1, K2, "affine", matrix=rng.dirichlet(np.ones(m + 1), n + 1).T)
        else:
            f = ReimplMap(K1, K2, "lattice_argmin", img=rng.integers(0, len(K2), len(K1)))
        mask = rng.random((len(K2), len(Z))) < rng.random()
        mask[:, 0], mask[:, -1] = False, True       # an empty and a full column
        S = Relation.from_mask(K2, Z, mask)
        # a squared lattice distance is an even number of squared steps
        r = math.sqrt(2 * k) / N
        if k and ulp:
            r = float(np.nextafter(r, ulp * math.inf))
        pull = metric_pullback(f, S, r)
        assert pull.domain is K1 and pull.codomain is Z
        assert np.array_equal(pull.mask(), eroded_pullback_oracle(f, S, r))

    def test_transport_refuses_a_map_off_the_relation(self):
        K = enumerate_simplex(2, 4)
        A, B = (LatticeSpace.from_points(2, 4, pts) for pts in (K.points[1:], K.points[:-1]))
        Z = enumerate_simplex(1, 4)
        R = build_relation(A, Z, "track", epsilon=0.5, gA=np.ones((1, 3)),
                           gB=np.ones((1, 2)))
        for f in (identity_map(K), identity_map(B)):     # another length, other points
            with pytest.raises(InvalidArgument, match="f must start at R's domain"):
                metric_pushforward(f, R, 0.1)
            with pytest.raises(InvalidArgument, match="f must land in S's domain"):
                metric_pullback(f, R, 0.1)
        for transport in (metric_pushforward, metric_pullback):
            assert np.array_equal(transport(identity_map(A), R, 0.0).mask(), R.mask())


class TestRadiusComposition:
    def test_published_values(self):
        assert compose_radius(0.060, 0.049, 1.0, "linear") == pytest.approx(0.109)
        assert compose_radius(0.060, 0.049, 1.0, "quadratic") == pytest.approx(
            math.hypot(0.060, 0.049))
        assert compose_radius(0.060, 0.049, 1.0, "quadratic") == pytest.approx(
            0.078, abs=6e-4)

    def test_zero_second_stage(self):
        assert compose_radius(0.06, 0.0, 2.0, "linear") == 0.12
        assert compose_radius(0.06, 0.0, 2.0, "quadratic") == 0.12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 0.5), st.floats(0, 0.5), st.floats(0.1, 3))
    def test_linear_dominates_quadratic(self, rP, rQ, L):
        assert compose_radius(rP, rQ, L, "linear") \
            >= compose_radius(rP, rQ, L, "quadratic") - 1e-15

    def test_chain_measured_radius(self):
        P = KernelSpec(shape="gaussian", sigma=0.025, n_samples=4000, seed=42)
        Q = KernelSpec(shape="gaussian", sigma=0.020, n_samples=4000, seed=1042)
        rP = safety_radius(sample_kernel(P, HUB), HUB, 0.05).r
        rQ = safety_radius(sample_kernel(Q, HUB), HUB, 0.05).r
        chained = sample_chain(P, Q, HUB)
        r_meas = safety_radius(chained, HUB, 0.05).r
        assert abs(r_meas - 0.080) <= 0.008
        assert compose_radius(rP, rQ, 1.0, "linear") >= r_meas


def kde_oracle(samples, queries, bandwidth):
    """The broadcast formula kde_density replaced, kept as the oracle."""
    norm = 1.0 / (len(samples) * (2.0 * math.pi * bandwidth**2))
    out = np.empty(len(queries))
    h2 = 2.0 * bandwidth * bandwidth
    for start in range(0, len(queries), 512):
        block = queries[start:start + 512]
        d2 = ((block[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2)
        out[start:start + 512] = np.exp(-d2 / h2).sum(axis=1) * norm
    return out


class TestKde:
    # The sampled larger clouds make blocks of 63, 64 and 65 queries.
    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 4),
           m=st.one_of(st.integers(1, 300),
                       st.sampled_from([KDE_BLOCK // r for r in (63, 64, 65)])),
           q=st.sampled_from([0, 1, 63, 64, 65, 129, 600]),
           bandwidth=st.floats(0.005, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_broadcast_formula(self, d, m, q, bandwidth, seed):
        rng = np.random.default_rng(seed)
        samples = project_to_simplex(rng.normal(0.0, 0.5, (m, d)))
        # Queries include sample points, as in the density at the cloud.
        queries = np.vstack([samples[:q // 2], rng.random((q - min(q // 2, m), d))])
        assert np.array_equal(kde_density(samples, queries, bandwidth),
                              kde_oracle(samples, queries, bandwidth))

    @pytest.mark.parametrize("bandwidth", [0.0, -0.1, math.nan, math.inf])
    def test_bandwidth_must_be_finite_positive(self, bandwidth):
        samples = np.array([[0.5, 0.5]])
        with pytest.raises(InvalidArgument):
            kde_density(samples, samples, bandwidth)


class TestHdr:
    def test_nesting_exact(self):
        sc = builtin_scenarios()["split_peak"]
        cloud = sample_kernel(sc.spec, sc.hub)
        lattice = enumerate_simplex(2, 50)
        r05 = hdr(cloud, 0.03, 0.05, lattice)
        r20 = hdr(cloud, 0.03, 0.20, lattice)
        assert not (r05.region & ~r20.region).any()
        assert r05.lambda_eps >= r20.lambda_eps

    def test_bimodal_splits_into_components(self):
        sc = builtin_scenarios()["split_peak"]
        cloud = sample_kernel(sc.spec, sc.hub)
        lattice = enumerate_simplex(2, 160)
        region = hdr(cloud, 0.03, 0.20, lattice).region
        assert len(lattice_components(lattice, region)) >= 2

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 3), N=st.integers(1, 8), data=st.data())
    def test_components_match_neighbor_walk_oracle(self, n, N, data):
        amb = enumerate_simplex(n, N)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(amb),
                                           max_size=len(amb))), dtype=bool)
        got = lattice_components(amb, keep)
        assert all(m.dtype == bool and m.shape == (len(amb),) and not m.flags.writeable
                   for m in got)
        as_sets = {frozenset(amb.points[i] for i in np.flatnonzero(m)) for m in got}
        oracle = components_oracle([p for p, k in zip(amb.points, keep) if k])
        assert len(got) == len(as_sets) and as_sets == {frozenset(c) for c in oracle}
        first = [int(np.argmax(m)) for m in got]
        assert first == sorted(first)

    def test_components_take_a_bool_mask_over_the_space(self):
        amb = enumerate_simplex(2, 4)
        assert lattice_components(amb, np.zeros(len(amb), dtype=bool)) == []
        for bad in (np.ones(len(amb) - 1, dtype=bool), np.ones(len(amb), dtype=int)):
            with pytest.raises(InvalidArgument):
                lattice_components(amb, bad)

    def test_degenerate_cloud_point_mass(self):
        spec = KernelSpec(sigma=1e-12, n_samples=100, seed=1)
        samples = np.tile(np.asarray(HUB), (100, 1))
        cloud = SampleCloud(hub=np.asarray(HUB), samples=samples, spec=spec)
        lattice = enumerate_simplex(2, 20)
        res = hdr(cloud, 0.03, 0.1, lattice)
        nearest = np.argmin(((lattice.array - np.asarray(HUB)) ** 2).sum(axis=1))
        assert res.point_mass and np.flatnonzero(res.region).tolist() == [nearest]
        assert not res.region.flags.writeable

    @pytest.mark.parametrize("seed", [42, 3])
    def test_shared_densities_match_separate_calls(self, seed):
        sc = builtin_scenarios(seed=seed, n_samples=1000)["split_peak"]
        cloud = sample_kernel(sc.spec, sc.hub)
        lattice = enumerate_simplex(2, 80)
        shared = hdr_regions(cloud, 0.03, (0.20, 0.05), lattice)
        separate = [hdr(cloud, 0.03, eps, lattice) for eps in (0.20, 0.05)]
        # the threshold rule written out on the two density arrays
        at_samples = kde_density(cloud.samples, cloud.samples, 0.03)
        at_grid = kde_density(cloud.samples, lattice.array, 0.03)
        for eps, a, b in zip((0.20, 0.05), shared, separate):
            lam = np.sort(at_samples)[math.ceil((1 - eps) * len(at_samples)) - 1]
            assert a.lambda_eps.hex() == b.lambda_eps.hex() == float(lam).hex()
            assert a.mass.hex() == b.mass.hex()
            assert np.array_equal(a.region, b.region)
            assert np.array_equal(a.region, at_grid >= lam) and not a.region.flags.writeable

    def test_shared_path_checks_every_epsilon(self):
        cloud = sample_kernel(KernelSpec(n_samples=200, seed=1), HUB)
        with pytest.raises(InvalidArgument):
            hdr_regions(cloud, 0.03, (0.2, 1.0), enumerate_simplex(2, 10))

    def test_mass_tracks_epsilon(self):
        sc = builtin_scenarios()["gaussian"]
        cloud = sample_kernel(sc.spec, sc.hub)
        res = hdr(cloud, 0.03, 0.20, enumerate_simplex(2, 50))
        assert res.mass == pytest.approx(0.20, abs=0.02)


class TestHdrPullback:
    def test_full_simplex_accepts(self):
        cloud = sample_kernel(KernelSpec(n_samples=500, seed=2), HUB)
        S = enumerate_simplex(2, 20)
        check = hdr_pullback_check(cloud, S, 0.05)
        assert check.mass == 1.0 and check.verdict and check.robust_verdict

    def test_deep_interior_accepts(self):
        # boundary more than 10 sigma away: Gaussian tail is negligible
        cloud = sample_kernel(KernelSpec(sigma=0.03, n_samples=4000, seed=4),
                              (0.3, 0.4, 0.3))
        S = restrict(enumerate_simplex(2, 20), [parse_constraint("x1<=0.9", 3)])
        check = hdr_pullback_check(cloud, S, 0.05)
        assert check.verdict and check.mass > 0.999

    def test_robust_verdict_matches_per_point_oracle(self):
        sc = builtin_scenarios(n_samples=1000)["gaussian"]
        cloud = sample_kernel(sc.spec, sc.hub)
        lattice = enumerate_simplex(2, 100)
        region = hdr(cloud, 0.03, 0.5, lattice).region
        pts = [p for p, k in zip(lattice.points, region) if k]
        # the gathered rows are the bits of the per-point weight vectors
        assert lattice.array[region].tobytes() == np.array([p.to_array() for p in pts]).tobytes()
        verdicts = set()
        for cap in ("x1<=0.5", "x1<=0.45", "x1<=0.4"):
            S = restrict(lattice, [parse_constraint(cap, 3)])
            check = hdr_pullback_check(cloud, S, 0.5, eval_lattice=lattice)
            assert check.region_size == len(pts)
            want = all(S.contains_vector(p.to_array()) for p in pts)
            assert check.robust_verdict == want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_empty_region_is_not_robust(self):
        # no 1/50 point reaches the 95% density quantile of this cloud, and
        # an empty region certifies nothing
        sc = builtin_scenarios(seed=42, n_samples=1000)["split_peak"]
        S = restrict(enumerate_simplex(2, 50), [parse_constraint("x1<=0.4", 3)])
        check = hdr_pullback_check(sample_kernel(sc.spec, sc.hub), S, 0.05)
        assert check.region_size == 0 and not check.verdict
        assert not check.robust_verdict

    def test_budget_composition_on_sampled_chain(self):
        # two-stage acceptance at (delta, eps) implies composite acceptance
        # at delta + eps, up to Monte Carlo slack
        delta = eps = 0.05
        P = KernelSpec(sigma=0.02, n_samples=400, seed=6)
        Q = KernelSpec(sigma=0.015, n_samples=400, seed=7)
        S = restrict(enumerate_simplex(2, 20), [parse_constraint("x1<=0.55", 3)])
        hub = (0.42, 0.33, 0.25)
        first = sample_kernel(P, hub)
        inner_ok = 0
        for y in first.samples[:200]:
            qc = sample_kernel(KernelSpec(sigma=0.015, n_samples=200, seed=8), tuple(y))
            if np.mean([S.contains_vector(s) for s in qc.samples]) >= 1 - eps:
                inner_ok += 1
        if inner_ok / 200 >= 1 - delta:
            chained = sample_chain(P, Q, hub)
            mass = np.mean([S.contains_vector(s) for s in chained.samples])
            assert mass >= 1 - (delta + eps) - 0.03  # 3 sigma MC slack


class TestCure:
    def test_all_inside_costs_zero(self):
        cloud = sample_kernel(KernelSpec(sigma=0.02, n_samples=1000, seed=3),
                              (0.3, 0.4, 0.3))
        S = restrict(enumerate_simplex(2, 50), [parse_constraint("x1<=0.9", 3)])
        cure = wasserstein_cure(cloud, S)
        assert cure.mean_cost == 0.0 and cure.violation_rate == 0.0

    def test_calibrated_scenario_bands(self):
        sc = builtin_scenarios()["gaussian"]
        cloud = sample_kernel(sc.spec, sc.hub)
        cure = wasserstein_cure(cloud, sc.constraint_space(100))
        assert 0.015 <= cure.violation_rate <= 0.045
        assert 0.008 <= cure.mean_violation_cost <= 0.023

    def test_unit_weights_equal_unweighted(self):
        sc = builtin_scenarios()["gaussian"]
        cloud = sample_kernel(sc.spec, sc.hub)
        S = sc.constraint_space(100)
        plain = wasserstein_cure(cloud, S)
        weighted = wasserstein_cure(cloud, S, tau=(1, 1, 1))
        assert np.max(np.abs(plain.per_sample - weighted.per_sample)) <= 1e-12

    def test_analytic_agrees_with_lattice_scan(self):
        sc = builtin_scenarios()["gaussian"]
        spec = KernelSpec(sigma=0.03, n_samples=400, seed=5)
        cloud = sample_kernel(spec, sc.hub)
        S = sc.constraint_space(100)
        fast = wasserstein_cure(cloud, S)
        viol = fast.per_sample > 0
        slow = _lattice_cure(cloud.samples[viol], S, np.ones(3))
        # lattice quantization adds at most one L1 grid step (2/N)
        assert np.all(np.abs(fast.per_sample[viol] - slow) <= 2 / 100 + 1e-9)

    def test_lipschitz_in_constraint_bound(self):
        # relaxing x1 <= b to b + h cannot reduce the mean cost by more than
        # (tau_1 + sum tau_i) * h
        sc = builtin_scenarios()["gaussian"]
        cloud = sample_kernel(sc.spec, sc.hub)
        amb = enumerate_simplex(2, 100)
        h = 0.02
        tight = wasserstein_cure(cloud, restrict(amb, [parse_constraint("x1<=0.5", 3)]))
        loose = wasserstein_cure(cloud, restrict(amb, [parse_constraint("x1<=0.52", 3)]))
        assert tight.mean_cost >= loose.mean_cost
        assert tight.mean_cost - loose.mean_cost <= (1 + 3) * h

    @pytest.mark.parametrize("tau", [(1, 1), (1, 1, 1, 1), (math.nan, 1, 1),
                                     (1, math.inf, 1), ((1, 1, 1),)])
    def test_weights_one_finite_per_asset(self, tau):
        cloud = sample_kernel(KernelSpec(n_samples=200, seed=1), HUB)
        S = restrict(enumerate_simplex(2, 20), [parse_constraint("x1<=0.5", 3)])
        with pytest.raises(InvalidArgument):
            wasserstein_cure(cloud, S, tau=tau)

    def test_empty_target_infeasible(self):
        from hubspoke.optimize import Infeasible

        cloud = sample_kernel(KernelSpec(n_samples=200, seed=1), HUB)
        amb = enumerate_simplex(2, 10)
        empty = restrict(amb, [parse_constraint("x1<=-1", 3)])
        with pytest.raises(Infeasible):
            wasserstein_cure(cloud, empty)


def compare_oracle(scenario):
    """The full-path row: the erosion set and the robust HDR region are
    computed, then only the verdicts kept.  The hub verdict and the mass
    are checked against point-by-point membership on the way."""
    cloud = sample_kernel(scenario.spec, scenario.hub)
    rad = safety_radius(cloud, scenario.hub, scenario.epsilon)
    S_erosion = scenario.constraint_space(scenario.erosion_N)
    erosion = metric_pullback_check(S_erosion, rad.r, scenario.hub)
    amb = enumerate_simplex(S_erosion.n, S_erosion.N).array
    outside = amb[[not S_erosion.contains_vector(p) for p in amb]]
    d2 = ((outside - np.asarray(scenario.hub)) ** 2).sum(axis=1)
    assert erosion.accepted == bool(d2.size == 0 or d2.min() > rad.r ** 2)
    S_cure = scenario.constraint_space(scenario.cure_N)
    check = hdr_pullback_check(cloud, S_cure, scenario.epsilon)
    assert check.mass == np.mean([S_cure.contains_vector(s) for s in cloud.samples])
    cure = wasserstein_cure(cloud, S_cure)
    return ComparisonRow(
        scenario=scenario.name, radius=rad.r,
        radius_verdict="Safe" if erosion.accepted else "Rejected",
        hdr_mass=check.mass, hdr_verdict="Safe" if check.verdict else "Rejected",
        cure_mean=cure.mean_cost,
        cure_verdict="Approved" if cure.mean_cost <= scenario.cure_budget else "Denied")


class TestThreeWay:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["gaussian", "split_peak", "banana"]),
           seed=st.integers(0, 2**31 - 1), n=st.integers(100, 400),
           epsilon=st.floats(0.01, 0.5), i=st.integers(1, 3), shift=st.integers(-8, 12))
    def test_verdict_path_matches_full_path(self, name, seed, n, epsilon, i, shift):
        from dataclasses import replace

        # caps a few sigma either side of the hub put both verdicts in reach
        scen = builtin_scenarios(seed=seed, n_samples=n)[name]
        b = round(scen.hub[i - 1] + shift / 100, 2)
        scen = replace(scen, constraint=f"x{i}<={b}", epsilon=epsilon)
        assert three_way_compare(scen) == compare_oracle(scen)

    def test_enumerates_each_lattice_once(self, monkeypatch):
        import hubspoke.stochastic as stochastic

        calls = []
        real = stochastic.enumerate_simplex
        monkeypatch.setattr(stochastic, "enumerate_simplex",
                            lambda *a: calls.append(a) or real(*a))
        three_way_compare(builtin_scenarios(n_samples=200)["banana"])
        assert calls == [(2, 50), (2, 100)]

    def test_default_table_pattern(self):
        rows = comparison_table(seed=42, n_samples=4000)
        verdicts = {r.scenario: (r.radius_verdict, r.hdr_verdict, r.cure_verdict)
                    for r in rows}
        assert verdicts["gaussian"] == ("Safe", "Safe", "Approved")
        assert verdicts["split_peak"] == ("Safe", "Safe", "Approved")
        assert verdicts["banana"] == ("Rejected", "Safe", "Approved")

    def test_radius_ordering_across_shapes(self):
        rows = {r.scenario: r.radius for r in comparison_table(seed=3, n_samples=2000)}
        assert rows["gaussian"] < rows["split_peak"] < rows["banana"]

    def test_scenario_serialization(self):
        import json

        for s in builtin_scenarios().values():
            json.dumps(s.to_dict())
