"""Calibration sweep for the stochastic kernel constants.

The write-up fixes the gaussian kernel completely (sigma, epsilon) but
leaves the bimodal offset and the banana shape constants open.  This
script measures, across a seed sweep, everything the defaults must
deliver:

  * radius ordering   r_gaussian < r_bimodal < r_banana for every seed,
  * banana radius     inside (0.1233, 0.1414): the window where erosion of
                      x1 <= 0.4 at step 0.02 removes exactly rows 0.34-0.40
                      plus the interior of row 0.32 (861 -> 700 points),
  * gaussian radius   below 0.0748 so erosion stops at 798 points,
  * banana hub        rejected under x1 <= 0.4, split-peak/gaussian hubs safe,
  * banana HDR mass   above 95% so the chance-constraint verdict stays Safe,
  * bimodal HDR       two components with counts near 40 (eps=.20) and
                      10 (eps=.05) on the evaluation lattice.

Run:  python scripts/kernel_calibration.py [--grid]
"""

import argparse
import itertools

import numpy as np

from hubspoke.geometry import enumerate_simplex
from hubspoke.stochastic import (
    KernelSpec,
    builtin_scenarios,
    gaussian_radius_oracle,
    hdr_regions,
    lattice_components,
    metric_pullback_check,
    sample_kernel,
    safety_radius,
    three_way_compare,
    wasserstein_cure,
)

SEEDS = list(range(1, 11))


def measure_radii(curvature, t_scale, eta_scale, delta1, seeds=SEEDS):
    rows = []
    for seed in seeds:
        scen = builtin_scenarios(seed=seed)
        r = {}
        for name, sc in scen.items():
            spec = sc.spec
            spec = KernelSpec(shape=spec.shape, sigma=spec.sigma,
                              n_samples=spec.n_samples, seed=seed,
                              delta1=delta1, curvature=curvature,
                              t_scale=t_scale, eta_scale=eta_scale)
            cloud = sample_kernel(spec, sc.hub)
            r[name] = safety_radius(cloud, sc.hub, 0.05).r
        rows.append(r)
    return rows


def erosion_counts(r_gauss, r_banana):
    S = builtin_scenarios()["banana"].constraint_space(50)
    g = metric_pullback_check(S, r_gauss, (0.32, 0.34, 0.34))
    b = metric_pullback_check(S, r_banana, (0.32, 0.34, 0.34))
    return int(g.eroded.sum()), int(b.eroded.sum()), b.accepted


def hdr_counts(delta1, seed, eval_N=160):
    sc = builtin_scenarios(seed=seed)["split_peak"]
    spec = KernelSpec(shape="bimodal", sigma=sc.spec.sigma,
                      n_samples=sc.spec.n_samples, seed=seed, delta1=delta1)
    cloud = sample_kernel(spec, sc.hub)
    lattice = enumerate_simplex(2, eval_N)
    r20, r05 = hdr_regions(cloud, spec.sigma, (0.20, 0.05), lattice)
    nested = not (r05.region & ~r20.region).any()
    comps = len(lattice_components(lattice, r20.region))
    return int(r20.region.sum()), int(r05.region.sum()), nested, comps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", action="store_true",
                    help="sweep candidate banana constants instead of "
                         "reporting the defaults")
    ap.add_argument("--eval-N", type=int, default=160)
    args = ap.parse_args()

    spec = KernelSpec()
    print(f"defaults: curvature={spec.curvature} t_scale={spec.t_scale} "
          f"eta_scale={spec.eta_scale} delta1={spec.delta1}")
    print(f"gaussian oracle r = {gaussian_radius_oracle(0.03, 0.05):.4f}")

    if args.grid:
        grid = itertools.product([3.0, 3.5, 4.0, 5.0], [1.2, 1.3, 1.4, 1.5], [0.4, 0.5])
        for curv, ts, es in grid:
            rows = measure_radii(curv, ts, es, spec.delta1, seeds=SEEDS[:4])
            rb = [r["banana"] for r in rows]
            rg = [r["gaussian"] for r in rows]
            rm = [r["split_peak"] for r in rows]
            ok = all(g < m < b for g, m, b in zip(rg, rm, rb))
            print(f"curv={curv} t={ts} eta={es}: banana r in "
                  f"[{min(rb):.4f}, {max(rb):.4f}] ordering={'ok' if ok else 'BROKEN'}")
        return

    rows = measure_radii(spec.curvature, spec.t_scale, spec.eta_scale, spec.delta1)
    for seed, r in zip(SEEDS, rows):
        print(f"seed {seed:2d}: gaussian {r['gaussian']:.4f}  "
              f"bimodal {r['split_peak']:.4f}  banana {r['banana']:.4f}  "
              f"ordered={r['gaussian'] < r['split_peak'] < r['banana']}")
    r_g = float(np.mean([r["gaussian"] for r in rows]))
    r_b = float(np.mean([r["banana"] for r in rows]))
    eg, eb, accepted = erosion_counts(r_g, r_b)
    print(f"erosion x1<=0.4 at 1/50: gaussian -> {eg} (target 798), "
          f"banana -> {eb} (target 700 +- 5), banana hub rejected={not accepted}")

    for seed in SEEDS[:5]:
        c20, c05, nested, comps = hdr_counts(spec.delta1, seed, args.eval_N)
        print(f"seed {seed}: HDR(0.20)={c20} (target 40 +- 30%), "
              f"HDR(0.05)={c05} (target 10 +- 30%), nested={nested}, components={comps}")

    for seed in SEEDS[:5]:
        table = [three_way_compare(s) for s in builtin_scenarios(seed=seed).values()]
        print(f"seed {seed}: " + "; ".join(
            f"{row.scenario}: {row.radius_verdict}/{row.hdr_verdict}/{row.cure_verdict}"
            f" (r={row.radius:.3f}, mass={row.hdr_mass:.3f}, W1={row.cure_mean:.4f})"
            for row in table))

    sc = builtin_scenarios()["gaussian"]
    cloud = sample_kernel(sc.spec, sc.hub)
    cure = wasserstein_cure(cloud, sc.constraint_space(100))
    print(f"cure scenario: violation {cure.violation_rate:.3%}, "
          f"mean(all) {cure.mean_cost:.5f}, mean(violators) {cure.mean_violation_cost:.4f}")


if __name__ == "__main__":
    main()
