"""The acceptance suite: one function per criterion, at pinned tolerances.

Every criterion prints a single PASS/FAIL line through `run_all`; the
pytest wrapper asserts each one.  Stochastic criteria run at fixed seeds,
so the whole suite is reproducible.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .dots import action, verify_action_laws
from .fixtures import _reference
from .geometry import (
    LatticeSpace,
    LinearFunctional,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from .optimize import (
    ReimplMap,
    ValueFunction,
    bellman_lift,
    build_constrained_reimpl,
    build_metric_reimpl,
    check_square_commutes,
    compose_maps,
    identity_map,
    ObjectiveSpec,
)
from .relations import (
    Relation,
    build_relation,
    compose_vertical,
    diagonal,
    explicit_relation,
    full_relation,
)
from .stochastic import (
    KernelSpec,
    builtin_scenarios,
    comparison_table,
    gaussian_radius_oracle,
    hdr_regions,
    lattice_components,
    metric_pullback_check,
    metric_pushforward,
    compose_radius,
    sample_chain,
    sample_kernel,
    safety_radius,
    wasserstein_cure,
)
from .transport import (
    CommutingSquare,
    closure_fix_demo,
    verify_adjunction,
    verify_frobenius,
    verify_functoriality,
    verify_lax_bc,
    verify_strict_bc,
)

FEE = LinearFunctional((10, 5, 0), units="bps")


def criterion_1():
    """Exact lattice counts."""
    checks = []
    amb100 = enumerate_simplex(2, 100)
    checks.append(("|Delta^2 @ 1/100|", len(amb100), 5151))
    hub = restrict(amb100, [parse_constraint("x1<=0.6", 3)])
    checks.append(("x1<=0.6 @ 1/100", len(hub), 4331))
    amb50 = enumerate_simplex(2, 50)
    checks.append(("|Delta^2 @ 1/50|", len(amb50), 1326))
    checks.append(("x1<=0.4 @ 1/50",
                   len(restrict(amb50, [parse_constraint("x1<=0.4", 3)])), 861))
    amb20 = enumerate_simplex(2, 20)
    checks.append(("x1<=0.6 @ 1/20",
                   len(restrict(amb20, [parse_constraint("x1<=0.6", 3)])), 195))
    ok = all(got == want for _, got, want in checks)
    return ok, "; ".join(f"{name}={got} (want {want})" for name, got, want in checks)


def criterion_2():
    """DOTS worked example: tracking menu 4485, after fee cap 3511; laws at 1/20."""
    amb = enumerate_simplex(2, 100)
    hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
    track = build_relation(hub, amb, "track", epsilon=0.05)
    m1 = action(hub, track)
    cap = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
    m2 = action(m1, cap)

    amb20 = enumerate_simplex(2, 20)
    hub20 = restrict(amb20, [parse_constraint("x1<=0.6", 3)])
    unital = action(hub20, diagonal(hub20))
    laws = verify_action_laws(
        hub20,
        build_relation(amb20, amb20, "track", epsilon=0.10),
        build_relation(amb20, amb20, "turnover", kappa=0.3),
        wide=amb20,
        projector=build_relation(amb20, amb20, "fee_cap", tau=6, functional=FEE))
    ok = (len(m1) == 4485 and len(m2) == 3511
          and len(unital) == 195 and len(hub20) == 195 and laws.holds)
    return ok, (f"menu={len(m1)} (want 4485); fee-capped={len(m2)} (want 3511); "
                f"unitality at 1/20: {len(unital)}={len(hub20)} (want 195); "
                f"action laws: {laws.detail}")


# -- random instance generation for the law sweeps ------------------------------


def _random_space(rng, n, N) -> LatticeSpace:
    amb = enumerate_simplex(n, N)
    if rng.random() < 0.5:
        return amb
    for _ in range(8):
        i = int(rng.integers(0, n + 1))
        bound = rng.choice([0.4, 0.5, 0.6, 0.7, 0.8])
        cons = parse_constraint(f"x{i + 1}<={bound}", n + 1)
        sub = restrict(amb, [cons])
        if len(sub) > 1:
            return sub
    return amb


def _random_lattice_map(rng, K1: LatticeSpace, K2: LatticeSpace) -> ReimplMap:
    """A lattice-valued map K1 -> K2: nearest-point under a random attribute."""
    k = int(rng.integers(1, 3))
    gA = rng.uniform(-1, 1, size=(k, K1.n + 1))
    gB = rng.uniform(-1, 1, size=(k, K2.n + 1))
    return build_metric_reimpl(K1, K2, ObjectiveSpec(gA=gA, gB=gB, p=2), name="rand")


def _random_relation(rng, K1: LatticeSpace, K3: LatticeSpace) -> Relation:
    roll = rng.random()
    if roll < 0.3 and K1.n == K3.n:
        return build_relation(K1, K3, "turnover", kappa=float(rng.uniform(0.1, 0.8)))
    if roll < 0.6:
        gA = gB = None
        if K1.n != K3.n:
            k = int(rng.integers(1, 3))
            gA = rng.uniform(0, 1, size=(k, K1.n + 1))
            gB = rng.uniform(0, 1, size=(k, K3.n + 1))
        return build_relation(K1, K3, "track", epsilon=float(rng.uniform(0.1, 0.6)),
                              gA=gA, gB=gB)
    if roll < 0.7:
        return full_relation(K1, K3)
    p = rng.uniform(0.05, 0.5)
    pairs = [(x, z) for x in K1.points for z in K3.points if rng.random() < p]
    return explicit_relation(K1, K3, pairs)


def _random_commuting_square(rng):
    """Either an aggregation rectangle or a composite-closing square."""
    N = int(rng.choice([4, 6, 8]))
    KB, KD, Z = (enumerate_simplex(1, N) for _ in range(3))
    if rng.random() < 0.5:
        KA = enumerate_simplex(2, N)
        merges = [np.array([[1, 1, 0], [0, 0, 1]], float),
                  np.array([[1, 0, 1], [0, 1, 0]], float),
                  np.array([[0, 1, 1], [1, 0, 0]], float)]
        g = ReimplMap(KA, KB, "affine", matrix=merges[int(rng.integers(0, 3))], name="g")
        perms = [np.eye(2), np.array([[0, 1], [1, 0]], float)]
        f = ReimplMap(KB, KD, "affine", matrix=perms[int(rng.integers(0, 2))], name="f")
    else:
        KA = _random_space(rng, 1, N)
        g = _random_lattice_map(rng, KA, KB)
        f = _random_lattice_map(rng, KB, KD)
    fp = compose_maps(f, g, name="fp")
    square = CommutingSquare(g=g, fp=fp, f=f, h=identity_map(KD))
    return square, _random_relation(rng, KB, Z)


def criterion_3(instances: int = 510, seed: int = 7):
    """Coherence law sweep plus the reference Frobenius fixture."""
    rng = np.random.default_rng(seed)
    violations = []
    strict_checked = 0
    per_law = max(1, instances // 3)
    for i in range(per_law):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(3, 11))
        K1 = _random_space(rng, n, N)
        K2 = _random_space(rng, n, N)
        K3 = _random_space(rng, 1, N)
        if min(len(K1), len(K2), len(K3)) == 0:
            continue
        f = _random_lattice_map(rng, K1, K2)
        R = _random_relation(rng, K1, K3)
        S = _random_relation(rng, K2, K3)
        if not verify_adjunction(f, R, S).holds:
            violations.append(("adjunction", i))
        if not verify_frobenius(f, R, S).holds:
            violations.append(("frobenius", i))
    for i in range(per_law):
        N = int(rng.integers(3, 11))
        K1 = _random_space(rng, 2, N)
        K2 = _random_space(rng, 2, N)
        K3 = _random_space(rng, 1, N)
        Z = enumerate_simplex(1, N)
        if min(len(K1), len(K2), len(K3)) == 0:
            continue
        f = _random_lattice_map(rng, K1, K2)
        g = _random_lattice_map(rng, K2, K3)
        R = _random_relation(rng, K1, Z)
        S = _random_relation(rng, K3, Z)
        if not verify_functoriality(f, g, R, S=S).holds:
            violations.append(("functoriality", i))
    for i in range(per_law):
        square, R = _random_commuting_square(rng)
        if not verify_lax_bc(square, R).holds:
            violations.append(("lax_bc", i))
        strict = verify_strict_bc(square, R)
        if strict.detail["pointwise_cartesian"]:
            strict_checked += 1
            if not strict.holds:
                violations.append(("strict_bc", i))

    maps, relations = _reference("frobenius")
    fixture = verify_frobenius(maps["f"], relations["R"], relations["S"])
    ok = not violations and fixture.holds and strict_checked > 0
    return ok, (f"{3 * per_law} instances, {len(violations)} violations; "
                f"strict BC verified on {strict_checked} cartesian squares; "
                f"reference Frobenius fixture holds={fixture.holds} "
                f"({fixture.lhs_count} = {fixture.rhs_count} pairs)")


def criterion_4():
    """Closure-fix counterexamples reproduce LHS empty vs RHS {(1,1)}."""
    details = []
    ok = True
    for which in ("frobenius", "bc"):
        rep = closure_fix_demo(which)
        want_rhs = [((1.0, 0.0), (1.0, 0.0))]
        good = (not rep.holds and rep.detail["lhs"] == []
                and [tuple(map(tuple, k)) for k in rep.detail["rhs"]] == want_rhs)
        fixed = closure_fix_demo(which, closed_hub=True).holds
        ok = ok and good and fixed
        details.append(f"{which}: lhs={rep.detail['lhs']} rhs={rep.detail['rhs']} "
                       f"closed-hub holds={fixed}")
    return ok, "; ".join(details)


def criterion_5():
    """Bellman-lifted square commutes; greedy square does not."""
    K = enumerate_simplex(1, 6)
    R_f = build_relation(K, K, "turnover", kappa=0.5)
    R_g = build_relation(K, K, "turnover", kappa=1.0 / 3)
    R_gp = build_relation(K, K, "turnover", kappa=1.0 / 3)
    R_fp = build_relation(K, K, "turnover", kappa=0.5)
    left = compose_vertical(R_fp, R_g)
    right = compose_vertical(R_gp, R_f)
    square_commutes = np.array_equal(left.mask(), right.mask())
    u4 = ValueFunction.from_callable(K, lambda w: -(w[0] - 0.5) ** 2)
    u2, u3 = bellman_lift(u4, R_gp, R_fp)
    f = build_constrained_reimpl(K, K, R_f, u2, name="f")
    g = build_constrained_reimpl(K, K, R_g, u3, name="g")
    gp = build_constrained_reimpl(K, K, R_gp, u4, name="gp")
    fp = build_constrained_reimpl(K, K, R_fp, u4, name="fp")
    lifted = check_square_commutes(f, g, fp, gp)

    K8 = enumerate_simplex(1, 8)
    Rf8 = build_relation(K8, K8, "turnover", kappa=0.25)
    Rg8 = build_relation(K8, K8, "turnover", kappa=0.25)
    Rgp8 = build_relation(K8, K8, "turnover", kappa=0.125)
    Rfp8 = build_relation(K8, K8, "turnover", kappa=0.125)
    fg = build_constrained_reimpl(K8, K8, Rf8,
                                  ValueFunction.from_callable(K8, lambda w: w[0]), name="f")
    gg = build_constrained_reimpl(K8, K8, Rg8,
                                  ValueFunction.from_callable(K8, lambda w: -w[0]), name="g")
    u4g = ValueFunction.from_callable(K8, lambda w: -(w[0] - 0.5) ** 2)
    gpg = build_constrained_reimpl(K8, K8, Rgp8, u4g, name="gp")
    fpg = build_constrained_reimpl(K8, K8, Rfp8, u4g, name="fp")
    greedy = check_square_commutes(fg, gg, fpg, gpg)

    ok = (square_commutes and lifted.commutes and lifted.max_discrepancy == 0.0
          and not greedy.commutes and greedy.max_discrepancy > 1e-6)
    return ok, (f"relation square commutes={square_commutes}; lifted square "
                f"gap={lifted.max_discrepancy}; greedy gap={greedy.max_discrepancy:.4f} "
                f"at {greedy.witness}")


def criterion_6():
    """Safety radius: band, analytic oracle, strict shape ordering per seed."""
    sc = builtin_scenarios()["gaussian"]
    r = safety_radius(sample_kernel(sc.spec, sc.hub), sc.hub, 0.05).r
    band = 0.063 <= r <= 0.085
    big = KernelSpec(shape="gaussian", sigma=0.03, n_samples=10_000, seed=42)
    r10k = safety_radius(sample_kernel(big, sc.hub), sc.hub, 0.05).r
    oracle = gaussian_radius_oracle(0.03, 0.05)
    oracle_ok = abs(r10k - oracle) / oracle <= 0.05
    order_ok = True
    for seed in range(1, 11):
        radii = {}
        for name, scen in builtin_scenarios(seed=seed).items():
            radii[name] = safety_radius(sample_kernel(scen.spec, scen.hub),
                                        scen.hub, 0.05).r
        if not radii["gaussian"] < radii["split_peak"] < radii["banana"]:
            order_ok = False
    ok = band and oracle_ok and order_ok
    return ok, (f"r={r:.4f} in [0.063, 0.085]={band}; N=1e4 r={r10k:.4f} vs "
                f"oracle {oracle:.4f} (within 5%={oracle_ok}); "
                f"ordering gaussian<bimodal<banana over 10 seeds={order_ok}")


def criterion_7():
    """Erosion counts 798 and 700 +- 5; banana hub rejected for every seed."""
    scen = builtin_scenarios()
    S = scen["banana"].constraint_space(50)
    g = scen["gaussian"]
    r_g = safety_radius(sample_kernel(g.spec, g.hub), g.hub, 0.05).r
    b = scen["banana"]
    r_b = safety_radius(sample_kernel(b.spec, b.hub), b.hub, 0.05).r
    eg = metric_pullback_check(S, r_g, b.hub)
    eb = metric_pullback_check(S, r_b, b.hub)
    rejected_every_seed = True
    for seed in range(1, 11):
        bs = builtin_scenarios(seed=seed)["banana"]
        rb = safety_radius(sample_kernel(bs.spec, bs.hub), bs.hub, 0.05).r
        if metric_pullback_check(S, rb, bs.hub).accepted:
            rejected_every_seed = False
    n_g, n_b = int(eg.eroded.sum()), int(eb.eroded.sum())
    ok = abs(n_g - 798) <= 5 and abs(n_b - 700) <= 5 and not eb.accepted and rejected_every_seed
    return ok, (f"gaussian r={r_g:.4f} -> {n_g} eroded (want 798 +- 5); "
                f"banana r={r_b:.4f} -> {n_b} eroded (want 700 +- 5); "
                f"banana hub rejected={not eb.accepted}, every seed={rejected_every_seed}")


def criterion_8():
    """Radius composition: formulas on measured inputs; measured composed radius."""
    hub = (0.45, 0.30, 0.25)
    results = []
    linear_ge_measured = True
    for seed in (42, 1, 2, 3, 4):
        P = KernelSpec(shape="gaussian", sigma=0.025, n_samples=4000, seed=seed)
        Q = KernelSpec(shape="gaussian", sigma=0.020, n_samples=4000, seed=seed + 1000)
        rP = safety_radius(sample_kernel(P, hub), hub, 0.05).r
        rQ = safety_radius(sample_kernel(Q, hub), hub, 0.05).r
        chained = sample_chain(P, Q, hub)
        r_meas = safety_radius(chained, hub, 0.05).r
        lin = compose_radius(rP, rQ, 1.0, "linear")
        quad = compose_radius(rP, rQ, 1.0, "quadratic")
        if lin < r_meas:
            linear_ge_measured = False
        results.append((seed, rP, rQ, lin, quad, r_meas))
    seed42 = results[0]
    _, rP, rQ, lin, quad, r_meas = seed42
    ok = (abs(rP - 0.060) <= 0.006 and abs(rQ - 0.049) <= 0.0049
          and lin == rP + rQ and quad == math.hypot(rP, rQ)
          and abs(lin - 0.109) <= 0.0109 and abs(quad - 0.078) <= 0.0078
          and abs(r_meas - 0.080) <= 0.008 and linear_ge_measured)
    return ok, (f"rP={rP:.4f} (0.060 +- 10%), rQ={rQ:.4f} (0.049 +- 10%), "
                f"linear={lin:.4f} (~0.109), quadratic={quad:.4f} (~0.078), "
                f"measured={r_meas:.4f} (0.080 +- 10%); "
                f"linear >= measured on all seeds={linear_ge_measured}")


def criterion_9():
    """Wasserstein cure on the calibrated scenario."""
    sc = builtin_scenarios()["gaussian"]
    cloud = sample_kernel(sc.spec, sc.hub)
    S = sc.constraint_space(100)
    cure = wasserstein_cure(cloud, S)
    viol_ok = 0.015 <= cure.violation_rate <= 0.045
    mean_ok = 0.008 <= cure.mean_violation_cost <= 0.023
    zero_ok = (cure.per_sample[cure.per_sample == 0.0].size
               == int((1 - cure.violation_rate) * len(cloud)))

    amb = enumerate_simplex(2, 50)
    loose = restrict(amb, [parse_constraint("x1<=0.9", 3)])
    none = wasserstein_cure(cloud, loose)
    zero_cost = none.mean_cost == 0.0 and none.violation_rate == 0.0

    weighted = wasserstein_cure(cloud, S, tau=(1.0, 1.0, 1.0))
    tau_ok = float(np.max(np.abs(weighted.per_sample - cure.per_sample))) <= 1e-12
    ok = viol_ok and mean_ok and zero_cost and tau_ok and zero_ok
    return ok, (f"violation={cure.violation_rate:.3%} (in [1.5%, 4.5%]={viol_ok}); "
                f"mean W1 over violators={cure.mean_violation_cost:.4f} "
                f"(in [0.008, 0.023]={mean_ok}); all-sample mean={cure.mean_cost:.5f}; "
                f"zero-violation cost=0 exactly={zero_cost}; tau=1 == unweighted={tau_ok}")


def criterion_10():
    """Three-way verdict pattern."""
    rows = comparison_table(seed=42, n_samples=4000)
    want = {
        "gaussian": ("Safe", "Safe", "Approved"),
        "split_peak": ("Safe", "Safe", "Approved"),
        "banana": ("Rejected", "Safe", "Approved"),
    }
    got = {r.scenario: (r.radius_verdict, r.hdr_verdict, r.cure_verdict) for r in rows}
    ok = got == want
    return ok, "; ".join(f"{k}: {'/'.join(v)}" for k, v in got.items())


def criterion_11():
    """HDR: components, nesting, point counts on the evaluation lattice."""
    sc = builtin_scenarios()["split_peak"]
    cloud = sample_kernel(sc.spec, sc.hub)
    lattice = enumerate_simplex(2, 160)
    r20, r05 = hdr_regions(cloud, sc.spec.sigma, (0.20, 0.05), lattice)
    comps = lattice_components(lattice, r20.region)
    nested = not (r05.region & ~r20.region).any()
    n20, n05 = int(r20.region.sum()), int(r05.region.sum())
    ok = len(comps) >= 2 and nested and abs(n20 - 40) <= 12 and abs(n05 - 10) <= 3
    return ok, (f"components={len(comps)} (>=2); nesting region(0.05) within "
                f"region(0.20)={nested}; |region(0.20)|={n20} "
                f"(40 +- 30%); |region(0.05)|={n05} (10 +- 30%)")


def criterion_12(instances: int = 210, seed: int = 11):
    """Metric one-way adjunction and Frobenius inclusion, exhaustively at 1/10."""
    rng = np.random.default_rng(seed)
    N = 10
    K1 = enumerate_simplex(1, N)
    K2 = enumerate_simplex(1, N)
    Z = enumerate_simplex(1, N)
    adj_checked = adj_failures = frob_failures = 0
    nonvacuous = 0
    for i in range(instances):
        f = _random_lattice_map(rng, K1, K2)
        R = _random_relation(rng, K1, Z)
        if rng.random() < 0.5:
            # generous spoke constraint, so the dilated image fits inside it
            # often enough for the adjunction implication to bite
            S = build_relation(K2, Z, "track", epsilon=float(rng.uniform(0.7, 1.5)))
        else:
            S = _random_relation(rng, K2, Z)
        r = float(rng.choice([0.0, 0.05, 0.1]))
        f_img = f.images
        S_mask = S.mask()
        R_mask = R.mask()
        Y = K2.array
        # dilated pushforward mask over K2 x Z
        push = metric_pushforward(f, R, r).mask()
        # erosion-based pullback: hub passes iff no violating lattice point
        # sits within r of f(x), per z-slice
        pull = np.zeros((len(K1), len(Z)), dtype=bool)
        for zi in range(len(Z)):
            viol = Y[~S_mask[:, zi]]
            if len(viol) == 0:
                pull[:, zi] = True
                continue
            d2 = ((f_img[:, None, :] - viol[None, :, :]) ** 2).sum(axis=2)
            pull[:, zi] = d2.min(axis=1) > r * r
        # one-way adjunction: push subset of S  implies  R subset of pull
        if bool(np.all(S_mask | ~push)):
            adj_checked += 1
            if not bool(np.all(pull | ~R_mask)):
                adj_failures += 1
        # metric Frobenius inclusion: push(R and pull(S)) within push(R) and S
        lhs = metric_pushforward(f, Relation.from_mask(K1, Z, R_mask & pull), r).mask()
        if lhs.any():
            nonvacuous += 1
        if not bool(np.all((push & S_mask) | ~lhs)):
            frob_failures += 1
    ok = (adj_failures == 0 and frob_failures == 0
          and adj_checked >= 20 and nonvacuous >= 50)
    return ok, (f"{instances} instances; adjunction implication checked on "
                f"{adj_checked} (0 failures={adj_failures == 0}); Frobenius "
                f"inclusion non-vacuous on {nonvacuous} (0 failures={frob_failures == 0})")


def criterion_13(tmp_dir=None):
    """Workflow A commit/reject, ledger byte stability, save/load round trip."""
    import os
    import tempfile

    from .audit import EvidenceLedger, FixedClock, Registry, workflow_a, workflow_b

    if tmp_dir is None:
        with tempfile.TemporaryDirectory(prefix="hs-acceptance-") as own:
            return criterion_13(own)
    reg = Registry()
    reg.put("objects", "hub", {"n": 2, "N": 20,
                               "constraints": [parse_constraint("x1<=0.6", 3).to_dict()]})
    reg.put("objects", "amb", {"n": 2, "N": 20, "constraints": []})
    reg.put("hmorphisms", "f1", {"rule": "affine",
                                 "matrix": np.eye(3).tolist(),
                                 "offset": [0, 0, 0],
                                 "domain": "hub", "codomain": "amb", "name": "f1"})
    reg.put("vmorphisms", "r_track", {"kind": "track", "params": {"epsilon": 0.1},
                                      "domain": "hub", "codomain": "amb"})
    reg.put("vmorphisms", "r_fee", {"kind": "fee_cap",
                                    "params": {"tau": 6.0,
                                               "functional": FEE.to_dict()},
                                    "domain": "amb", "codomain": "amb"})
    ledger_path = os.path.join(tmp_dir, "ledger.jsonl")
    ledger = EvidenceLedger(ledger_path, clock=FixedClock())
    ok_entry = workflow_a(reg, ledger, "f1", "r_track", (0.3, 0.5, 0.2))
    commit_ok = ok_entry.verdict == "committed" and ok_entry.seq == 1

    # a deliberately misaligned map: push everything to the last vertex
    reg.put("hmorphisms", "f_bad", {
        "rule": "affine",
        "matrix": [[0, 0, 0], [0, 0, 0], [1, 1, 1]],
        "offset": [0, 0, 0], "domain": "hub", "codomain": "amb", "name": "f_bad"})
    bad_entry = workflow_a(reg, ledger, "f_bad", "r_track", (0.3, 0.5, 0.2))
    reject_ok = bad_entry.verdict == "rejected" and bad_entry.seq == 2

    with open(ledger_path, "rb") as fh:
        before = fh.read()
    workflow_b(reg, ledger, dict(reg.get("vmorphisms", "r_fee"), id="r_fee"),
               hub_object="hub", pipeline=["r_track"])
    with open(ledger_path, "rb") as fh:
        after = fh.read()
    append_only = after.startswith(before) and len(after) > len(before)
    menu_metric = ledger.entries()[-1].metrics["menu_count"]

    reg_path = os.path.join(tmp_dir, "registry.json")
    reg.save(reg_path)
    reloaded = Registry.load(reg_path)
    round_trip = reloaded.to_dict() == reg.to_dict()
    reloaded_ledger = EvidenceLedger(ledger_path)
    ledger_round_trip = [e.to_dict() for e in reloaded_ledger.entries()] \
        == [e.to_dict() for e in ledger.entries()]
    ok = commit_ok and reject_ok and append_only and round_trip and ledger_round_trip
    return ok, (f"commit={commit_ok}; reject={reject_ok}; ledger append-only "
                f"byte-stable={append_only}; registry round-trip={round_trip}; "
                f"ledger round-trip={ledger_round_trip}; workflow B menu={menu_metric}")


CRITERIA = [
    ("C1 exact lattice counts", criterion_1),
    ("C2 DOTS worked example", criterion_2),
    ("C3 coherence law sweep", criterion_3),
    ("C4 closure-fix counterexamples", criterion_4),
    ("C5 Bellman commutativity", criterion_5),
    ("C6 safety radius", criterion_6),
    ("C7 erosion counts", criterion_7),
    ("C8 radius composition", criterion_8),
    ("C9 Wasserstein cure", criterion_9),
    ("C10 three-way table", criterion_10),
    ("C11 HDR properties", criterion_11),
    ("C12 probabilistic one-way laws", criterion_12),
    ("C13 platform workflows", criterion_13),
]


def run_all(verbose: bool = True):
    results = []
    total0 = time.perf_counter()
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        ok, detail = fn()
        dt = time.perf_counter() - t0
        results.append((name, ok, detail))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}  [{dt:.1f}s]")
            print(f"      {detail}")
    if verbose:
        n_ok = sum(1 for _, ok, _ in results if ok)
        print(f"{n_ok}/{len(results)} criteria passed "
              f"in {time.perf_counter() - total0:.1f}s")
    return results
