"""Randomized coherence-law sweep with adjustable size.

Draws random closed spaces, lattice maps and relations, and verifies
adjunction, Frobenius, functoriality and lax Beck-Chevalley on each
instance; strict Beck-Chevalley equality is asserted whenever the
pointwise-cartesian witness search succeeds.  Besides the verdict it
prints how many law reports the sweep made and the sha256 prefix of their
JSON (`json.dumps` of every `LawReport.to_dict()`, in order, keys
sorted), so two versions of the code can be compared report by report.

Run:  python scripts/law_sweep.py [--instances 510] [--seed 7]
"""

import argparse
import hashlib
import json
import time

from hubspoke import acceptance

VERIFIERS = ("verify_adjunction", "verify_frobenius", "verify_functoriality",
             "verify_lax_bc", "verify_strict_bc")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=510)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    reports = []
    for name in VERIFIERS:
        def recorded(*a, verify=getattr(acceptance, name), **kw):
            reports.append(verify(*a, **kw))
            return reports[-1]
        setattr(acceptance, name, recorded)

    t0 = time.perf_counter()
    ok, detail = acceptance.criterion_3(instances=args.instances, seed=args.seed)
    dt = time.perf_counter() - t0
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()
    print(f"{'PASS' if ok else 'FAIL'} [{dt:.1f}s] {detail}")
    print(f"{len(reports)} reports, sha256 {hashlib.sha256(blob).hexdigest()[:8]}")


if __name__ == "__main__":
    main()
