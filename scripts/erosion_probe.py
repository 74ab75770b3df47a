"""Time and peak memory of the eroded-set scan.

Erodes x1 <= 0.5 by r = 0.0737 (the gaussian safety radius) on three
lattices and prints, per lattice, the scan size in cells (|S| x violators
x (n+1)), the wall time of metric_pullback_check and the peak RSS of the
process that ran it.  Each lattice runs in a fresh process, so its peak
is its own: the interpreter and numpy plus the lattice and the scan.

Run:  python scripts/erosion_probe.py
"""

import multiprocessing
import resource
import time

from hubspoke.geometry import enumerate_simplex, parse_constraint, restrict
from hubspoke.stochastic import metric_pullback_check

CASES = ((2, 100), (2, 200), (3, 50))
RADIUS = 0.0737


def probe(n, N):
    amb = enumerate_simplex(n, N)
    S = restrict(amb, [parse_constraint("x1<=0.5", n + 1)])
    hub = amb.array[len(amb) // 2]
    t0 = time.perf_counter()
    check = metric_pullback_check(S, RADIUS, hub, ambient=amb)
    dt = time.perf_counter() - t0
    cells = len(S) * (len(amb) - len(S)) * (n + 1)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return cells, int(check.eroded.sum()), len(S), dt, peak_mb


def main():
    ctx = multiprocessing.get_context("spawn")
    for n, N in CASES:
        with ctx.Pool(1) as pool:
            cells, kept, size, dt, peak_mb = pool.apply(probe, (n, N))
        print(f"Delta^{n} @ 1/{N}: {cells:.3g} cells, {kept} of {size} points kept, "
              f"{dt:.2f} s, peak RSS {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
