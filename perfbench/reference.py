"""Independent references and output checkers for the benchmark workloads.

Every checker raises CheckFailed on a mismatch.  The references use plain
integer holdings and numpy; they never call the code under test, so a
wrong result from hubspoke cannot agree with them by construction.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

FEE_COEFFS = (10, 5, 0)      # the CLI's default fee functional, in bps
FLOAT_TOL = 1e-9             # hubspoke's membership tolerance
PINNED_TABLE_SEED = 42
PINNED_TABLE = {
    "gaussian": ("Safe", "Safe", "Approved"),
    "split_peak": ("Safe", "Safe", "Approved"),
    "banana": ("Rejected", "Safe", "Approved"),
}


class CheckFailed(AssertionError):
    """An operation's output disagrees with the benchmark's reference."""


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def simplex_holdings(N: int) -> np.ndarray:
    """All (h1, h2, h3) >= 0 with h1 + h2 + h3 = N, as an int64 array."""
    h1, h2 = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    keep = h1 + h2 <= N
    h1, h2 = h1[keep], h2[keep]
    return np.stack([h1, h2, N - h1 - h2], axis=1).astype(np.int64)


def scaled(value, N: int) -> Fraction:
    """value * N as an exact fraction (value given as a decimal number)."""
    return Fraction(str(value)) * N


def parse_cap(text: str) -> tuple[int, float]:
    """'x2<=0.5' -> (1, 0.5): the capped coordinate index and its bound."""
    m = re.fullmatch(r"x(\d+)<=([0-9.]+)", text.replace(" ", ""))
    expect(m is not None, f"unsupported constraint {text!r}")
    return int(m.group(1)) - 1, float(m.group(2))


# -- menu -------------------------------------------------------------------------


def tracking_offsets(radius_sq: Fraction) -> np.ndarray:
    """Integer moves d with sum(d) = 0 and sum(d^2) <= radius_sq."""
    r = math.isqrt(math.floor(radius_sq))
    span = np.arange(-r, r + 1)
    a, b = np.meshgrid(span, span, indexing="ij")
    d = np.stack([a.ravel(), b.ravel(), -(a + b).ravel()], axis=1)
    return d[(d * d).sum(axis=1) <= radius_sq]


def menu_counts(cap_index: int, cap: float, eps: float, tau: float,
                N: int = 100) -> tuple[int, int]:
    """Reference menu sizes on Delta^2 at 1/N: after tracking, after the fee cap.

    Hub: x_i <= cap.  Tracking: sum (dh)^2 <= (eps N)^2.  Fee cap:
    10 h1 + 5 h2 <= tau N.  All arithmetic is on integer holdings.
    """
    H = simplex_holdings(N)
    hub = H[H[:, cap_index] <= scaled(cap, N)]
    reached = np.zeros((N + 1, N + 1), dtype=bool)
    for d in tracking_offsets(scaled(eps, N) ** 2):
        y = hub + d
        y = y[(y >= 0).all(axis=1)]
        reached[y[:, 0], y[:, 1]] = True
    menu = H[reached[H[:, 0], H[:, 1]]]
    fee = menu @ np.asarray(FEE_COEFFS, dtype=np.int64)
    return len(menu), int((fee <= scaled(tau, N)).sum())


def check_menu(op: dict, stdout: str, code: int):
    expect(code == 0, f"hs menu exited {code}")
    m = re.search(r"^menu: (\d+) points$", stdout, re.MULTILINE)
    expect(m is not None, "hs menu printed no point count")
    got = int(m.group(1))
    want = menu_counts(op["cap_index"], op["cap"], op["eps"], op["tau"])[1]
    expect(got == want, f"menu {op}: {got} points, reference {want}")


# -- laws -------------------------------------------------------------------------


def check_law_reports(reports) -> int:
    """Every law must hold; strict BC binds only on cartesian squares.

    Returns the number of cartesian squares on which strict BC was checked.
    """
    cartesian = 0
    for rep in reports:
        if rep.law == "strict_bc":
            if not rep.detail["pointwise_cartesian"]:
                continue
            cartesian += 1
        expect(rep.holds and not rep.witnesses,
               f"{rep.law} violated: {rep.lhs_count} vs {rep.rhs_count} pairs, "
               f"witnesses {list(rep.witnesses)[:2]}")
        if rep.law in ("frobenius", "functoriality", "strict_bc"):
            expect(rep.lhs_count == rep.rhs_count,
                   f"{rep.law} holds with unequal sides {rep.lhs_count} != {rep.rhs_count}")
    return cartesian


# -- compliance -------------------------------------------------------------------


def compliance_reference(scenario: str, samples: np.ndarray, hub, constraint: str,
                         epsilon: float, cure_budget: float, erosion_N: int) -> dict:
    """One `hs compare` row recomputed with numpy: the (1 - eps) radius
    quantile and its erosion verdict, the chance-constraint mass, and the
    half-space cure cost."""
    hub = np.asarray(hub, dtype=np.float64)
    i, b = parse_cap(constraint)
    n = len(samples)
    dist = np.sqrt(((samples - hub) ** 2).sum(axis=1))
    r = float(np.sort(dist)[math.ceil((1.0 - epsilon) * n) - 1])
    H = simplex_holdings(erosion_N)
    viol = H[H[:, i] > scaled(b, erosion_N)] / erosion_N
    safe = bool(((viol - hub) ** 2).sum(axis=1).min() > r * r)
    inside = ((samples[:, i] <= b + FLOAT_TOL)
              & (samples >= -FLOAT_TOL).all(axis=1)
              & (np.abs(samples.sum(axis=1) - 1.0) <= FLOAT_TOL))
    mass = float(inside.mean())
    cure = float((2.0 * np.maximum(samples[:, i] - b, 0.0)).mean())
    return {"scenario": scenario,
            "safety_radius": {"r": r, "verdict": "Safe" if safe else "Rejected"},
            "hdr": {"mass": mass, "verdict": "Safe" if mass >= 1.0 - epsilon else "Rejected"},
            "wasserstein": {"mean_cost": cure,
                            "verdict": "Approved" if cure <= cure_budget else "Denied"}}


def verdicts(row: dict) -> tuple[str, str, str]:
    return (row["safety_radius"]["verdict"], row["hdr"]["verdict"],
            row["wasserstein"]["verdict"])


def check_compliance_row(row: dict, want: dict, seed: int, n_samples: int):
    name = want["scenario"]
    expect(row["scenario"] == name, f"row for {row['scenario']}, want {name}")
    got_r, r = row["safety_radius"]["r"], want["safety_radius"]["r"]
    expect(abs(got_r - r) <= 1e-12, f"{name}: radius {got_r} != {r}")
    got_mass, mass = row["hdr"]["mass"], want["hdr"]["mass"]
    expect(abs(got_mass - mass) <= 0.5 / n_samples, f"{name}: mass {got_mass} != {mass}")
    got_cure, cure = row["wasserstein"]["mean_cost"], want["wasserstein"]["mean_cost"]
    expect(abs(got_cure - cure) <= 1e-9 + 1e-9 * abs(cure), f"{name}: cure {got_cure} != {cure}")
    expect(verdicts(row) == verdicts(want),
           f"{name} seed {seed}: verdicts {verdicts(row)}, reference {verdicts(want)}")
    if seed == PINNED_TABLE_SEED:
        expect(verdicts(row) == PINNED_TABLE[name],
               f"{name} seed 42: {verdicts(row)}, pinned {PINNED_TABLE[name]}")


# -- audit ------------------------------------------------------------------------


def tracking_verdict(hub: np.ndarray, spoke: np.ndarray, eps: float, N: int) -> str:
    """Workflow A's epsilon-check on integer holdings."""
    d = hub.astype(np.int64) - spoke.astype(np.int64)
    return "committed" if int((d * d).sum()) <= scaled(eps, N) ** 2 else "rejected"


def fee_violators(entries: list[dict], tau: float, N: int) -> list[int]:
    """seq of committed workflow-A entries whose spoke breaks the fee cap."""
    out = []
    for e in entries:
        if e["workflow"] == "A" and e["verdict"] == "committed":
            y = np.rint(np.asarray(e["spoke"]) * N).astype(np.int64)
            if int(y @ np.asarray(FEE_COEFFS)) > scaled(tau, N):
                out.append(e["seq"])
    return out


def check_ledger(before: bytes, after: bytes) -> list[dict]:
    """The ledger grew by one line, by appending only, with contiguous seq.

    Returns the entries of `after`.
    """
    entries = [json.loads(line) for line in after.decode("utf-8").splitlines() if line.strip()]
    expect(after.startswith(before), "ledger was rewritten, not appended to")
    expect(len(entries) == before.count(b"\n") + 1,
           f"ledger holds {len(entries)} entries after one append")
    seqs = [e["seq"] for e in entries]
    expect(seqs == list(range(1, len(seqs) + 1)), f"ledger seq not contiguous: {seqs[-5:]}")
    return entries
