"""Checker self-test: each checker must pass a right result and reject a wrong one.

run.py calls `run(hs)` before measuring, and refuses to report numbers if a
checker lets a deliberately wrong result through.  Standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy

import numpy as np

import reference as ref


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except ref.CheckFailed:
        return True
    return False


def run(hs) -> list[str]:
    """Names of the checkers that misjudged a planted result (empty when sound)."""
    bad = []

    op = {"cap_index": 0, "cap": 0.6, "eps": 0.05, "tau": 6}
    if ref.menu_counts(0, 0.6, 0.05, 6) != (4485, 3511):
        bad.append("menu reference")
    if (_rejects(ref.check_menu, op, "menu: 3511 points\n", 0)
            or not _rejects(ref.check_menu, op, "menu: 3512 points\n", 0)):
        bad.append("menu off-by-one")

    holds = hs.transport.LawReport("frobenius", True, 7, 7)
    broken = hs.transport.LawReport("frobenius", False, 7, 6, witnesses=((0.5, 0.5),))
    if (_rejects(ref.check_law_reports, [holds])
            or not _rejects(ref.check_law_reports, [holds, broken])):
        bad.append("violated law report")

    sc = hs.stochastic.builtin_scenarios(seed=ref.PINNED_TABLE_SEED)["banana"]
    cloud = hs.stochastic.sample_kernel(sc.spec, sc.hub)
    want = ref.compliance_reference(sc.name, cloud.samples, sc.hub, sc.constraint,
                                    sc.epsilon, sc.cure_budget, sc.erosion_N)
    swapped = copy.deepcopy(want)
    swapped["safety_radius"]["verdict"] = "Safe"
    n = len(cloud.samples)
    if (ref.verdicts(want) != ref.PINNED_TABLE["banana"]
            or _rejects(ref.check_compliance_row, want, want, ref.PINNED_TABLE_SEED, n)
            or not _rejects(ref.check_compliance_row, swapped, want,
                            ref.PINNED_TABLE_SEED, n)):
        bad.append("swapped verdict")

    line = '{"seq": %d, "workflow": "A", "verdict": "committed"}\n'
    first = (line % 1).encode()
    if (_rejects(ref.check_ledger, first, first + (line % 2).encode())
            or not _rejects(ref.check_ledger, first, first + (line % 1).encode())):
        bad.append("repeated ledger seq")
    hub = np.array([30, 50, 20])
    if ref.tracking_verdict(hub, np.array([0, 0, 100]), 0.105, 100) != "rejected":
        bad.append("workflow a epsilon-check")
    return bad


if __name__ == "__main__":
    import sys

    import run as bench

    failures = run(bench.import_hubspoke(bench.repo_root()))
    print("checker self-test:", "ok" if not failures else f"FAILED {failures}")
    sys.exit(1 if failures else 0)
