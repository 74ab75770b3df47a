"""Time and peak memory of the coherence-law checks at desk scale.

On the worked-example spaces (hub x1 <= 0.6 and the full 2-simplex) at
1/50 and 1/100, f is the metric re-implementation of the hub into the
full lattice under two random attributes (seed 0), R is tracking 0.05
from the hub and S is turnover 0.1 on the full lattice.  The probe runs
pullback(f, S), the adjunction, Frobenius and, with g the metric map of
the full lattice into itself under two other attributes, functoriality
with its pullback dual.  The lax and strict Beck-Chevalley cases check
CommutingSquare(g=f, fp=g.f, f=g, h=id) against S, which lives on g's
domain.  The metric cases run the dilated pushforward of R and the
eroded pullback of S along f at radius 0.03.  Each case runs in a fresh
process, so its peak is its own: the interpreter and numpy, the set-up
and the check.  A line gives the case, the check's wall time, the
process's peak RSS and a digest of the result (the sha256 prefix of a
transported relation's mask, or of the LawReport's JSON), so two
versions of the code can be compared.

Run:  python scripts/desk_laws.py
"""

import hashlib
import json
import multiprocessing
import resource
import time

import numpy as np

from hubspoke.geometry import enumerate_simplex, parse_constraint, restrict
from hubspoke.optimize import ObjectiveSpec, build_metric_reimpl, compose_maps, identity_map
from hubspoke.relations import build_relation
from hubspoke.stochastic import metric_pullback, metric_pushforward
from hubspoke.transport import (
    CommutingSquare,
    pullback,
    verify_adjunction,
    verify_frobenius,
    verify_functoriality,
    verify_lax_bc,
    verify_strict_bc,
)

RESOLUTIONS = (50, 100)
CASES = ("pullback", "adjunction", "frobenius", "functoriality", "lax_bc", "strict_bc",
         "metric_pushforward", "metric_pullback")
METRIC_RADIUS = 0.03


def probe(N, case):
    rng = np.random.default_rng(0)
    amb = enumerate_simplex(2, N)
    hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
    G = rng.normal(size=(2, 3))
    f = build_metric_reimpl(hub, amb, ObjectiveSpec(gA=G, gB=G), name="f")
    R = build_relation(hub, amb, "track", epsilon=0.05)
    S = build_relation(amb, amb, "turnover", kappa=0.1)
    if case in ("functoriality", "lax_bc", "strict_bc"):
        H = rng.normal(size=(2, 3))
        g = build_metric_reimpl(amb, amb, ObjectiveSpec(gA=H, gB=H), name="g")
        square = CommutingSquare(g=f, fp=compose_maps(g, f), f=g, h=identity_map(amb))
    t0 = time.perf_counter()
    if case == "pullback":
        out = pullback(f, S).mask()
    elif case == "adjunction":
        out = verify_adjunction(f, R, S)
    elif case == "frobenius":
        out = verify_frobenius(f, R, S)
    elif case == "functoriality":
        out = verify_functoriality(f, g, R, S=S)
    elif case == "metric_pushforward":
        out = metric_pushforward(f, R, METRIC_RADIUS).mask()
    elif case == "metric_pullback":
        out = metric_pullback(f, S, METRIC_RADIUS).mask()
    elif case == "lax_bc":
        out = verify_lax_bc(square, S)
    else:
        out = verify_strict_bc(square, S)
    dt = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if isinstance(out, np.ndarray):
        summary = f"{int(out.sum())} pairs"
        blob = np.packbits(out).tobytes()
    else:
        summary = f"holds={out.holds} {out.lhs_count}/{out.rhs_count}"
        blob = json.dumps(out.to_dict(), sort_keys=True).encode()
    return dt, peak_mb, summary, hashlib.sha256(blob).hexdigest()[:8]


def main():
    ctx = multiprocessing.get_context("spawn")
    for N in RESOLUTIONS:
        for case in CASES:
            with ctx.Pool(1) as pool:
                dt, peak_mb, summary, digest = pool.apply(probe, (N, case))
            print(f"Delta^2 @ 1/{N} {case}: {dt:.2f} s, peak RSS {peak_mb:.0f} MB, "
                  f"{summary}, sha256 {digest}")


if __name__ == "__main__":
    main()
