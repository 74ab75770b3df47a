import json

import numpy as np
import pytest

from hubspoke.audit import (
    Conflict,
    EvidenceLedger,
    FixedClock,
    NotFound,
    Registry,
    run_workflow,
    workflow_a,
    workflow_b,
    workflow_c,
)
from hubspoke.geometry import InvalidArgument, LinearFunctional, parse_constraint
from hubspoke.relations import relation_from_dict

FEE = LinearFunctional((10, 5, 0), units="bps")


def seeded_registry(N=20):
    reg = Registry()
    reg.put("objects", "hub", {
        "n": 2, "N": N,
        "constraints": [parse_constraint("x1<=0.6", 3).to_dict()]})
    reg.put("objects", "amb", {"n": 2, "N": N, "constraints": []})
    reg.put("hmorphisms", "f1", {
        "rule": "affine", "matrix": np.eye(3).tolist(), "offset": [0, 0, 0],
        "domain": "hub", "codomain": "amb", "name": "f1"})
    reg.put("vmorphisms", "r_track", {
        "kind": "track", "params": {"epsilon": 0.1},
        "domain": "hub", "codomain": "amb"})
    return reg


class TestRegistry:
    def test_round_trip(self):
        reg = seeded_registry()
        assert reg.get("objects", "hub")["N"] == 20
        assert reg.get("vmorphisms", "r_track")["kind"] == "track"

    def test_unknown_id(self):
        with pytest.raises(NotFound):
            seeded_registry().get("objects", "nope")

    def test_duplicate_id_conflict(self):
        reg = seeded_registry()
        with pytest.raises(Conflict):
            reg.put("objects", "hub", {"n": 1, "N": 5, "constraints": []})

    def test_dangling_reference(self):
        reg = Registry()
        with pytest.raises(InvalidArgument):
            reg.put("hmorphisms", "f", {"rule": "affine", "matrix": [[1]],
                                        "domain": "ghost", "codomain": "ghost"})

    def test_materialization(self):
        reg = seeded_registry()
        assert len(reg.space("hub")) == 195
        f = reg.map("f1")
        assert f.domain.N == 20
        R = reg.relation("r_track")
        assert R.kind == "track"

    def test_save_load_identity(self, tmp_path):
        reg = seeded_registry()
        path = tmp_path / "reg.json"
        reg.save(str(path))
        again = Registry.load(str(path))
        assert again.to_dict() == reg.to_dict()
        # byte-identical re-save
        again.save(str(tmp_path / "reg2.json"))
        assert (tmp_path / "reg.json").read_bytes() == (tmp_path / "reg2.json").read_bytes()

    def test_load_parse_error_diagnostics(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidArgument, match="line"):
            Registry.load(str(bad))


class TestLedger:
    def test_sequence_and_persistence(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        led = EvidenceLedger(path, clock=FixedClock())
        e1 = led.append("A", "committed", hub=(0.5, 0.5))
        e2 = led.append("A", "rejected", hub=(0.2, 0.8))
        assert (e1.seq, e2.seq) == (1, 2)
        reloaded = EvidenceLedger(path)
        assert [e.to_dict() for e in reloaded.entries()] \
            == [e.to_dict() for e in led.entries()]
        e3 = reloaded.append("B", "committed")
        assert e3.seq == 3

    def test_append_only_byte_prefix(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        led = EvidenceLedger(path, clock=FixedClock())
        for i in range(5):
            led.append("A", "committed", metrics={"i": i})
        before = open(path, "rb").read()
        led.append("A", "rejected")
        after = open(path, "rb").read()
        assert after.startswith(before)

    def test_hundred_entry_round_trip_bytes(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        led = EvidenceLedger(path, clock=FixedClock())
        for i in range(100):
            led.append("A", "committed", hub=(i / 200, 1 - i / 200),
                       metrics={"i": i})
        raw = open(path, "rb").read()
        reloaded = EvidenceLedger(path)
        assert len(reloaded) == 100
        # re-serializing what was loaded reproduces the file byte for byte
        lines = [json.dumps(e.to_dict(), sort_keys=True) for e in reloaded.entries()]
        assert ("\n".join(lines) + "\n").encode() == raw

    def test_corrupt_line_diagnostics(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"seq": 1, "timestamp": "t", "workflow": "A", "verdict": "x"}\nboom\n')
        with pytest.raises(InvalidArgument, match="line 2"):
            EvidenceLedger(str(path))

    def test_deterministic_clock(self, tmp_path):
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        a = led.append("A", "committed")
        b = led.append("A", "committed")
        assert a.timestamp < b.timestamp
        assert a.timestamp.startswith("2024-01-01")


class TestWorkflowA:
    def test_commit_and_reject(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        good = workflow_a(reg, led, "f1", "r_track", (0.3, 0.5, 0.2))
        assert good.verdict == "committed"
        assert "check_ms" in good.metrics and "l1_turnover" in good.metrics
        reg.put("hmorphisms", "f_bad", {
            "rule": "affine", "matrix": [[0, 0, 0], [0, 0, 0], [1, 1, 1]],
            "offset": [0, 0, 0], "domain": "hub", "codomain": "amb"})
        bad = workflow_a(reg, led, "f_bad", "r_track", (0.3, 0.5, 0.2))
        assert bad.verdict == "rejected"

    def test_commit_invariant_reverification(self, tmp_path):
        # no committed entry may fail re-verification of the same triple
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        for hub in [(0.3, 0.5, 0.2), (0.6, 0.2, 0.2), (0.1, 0.3, 0.6)]:
            workflow_a(reg, led, "f1", "r_track", hub)
        R = reg.relation("r_track")
        f = reg.map("f1")
        for e in led.entries():
            if e.verdict == "committed":
                assert R.contains_vectors(np.asarray(e.hub),
                                          f.evaluate(np.asarray(e.hub)))

    def test_unknown_ids(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"))
        with pytest.raises(NotFound):
            workflow_a(reg, led, "ghost", "r_track", (0.3, 0.5, 0.2))

    def test_hub_outside_domain(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"))
        with pytest.raises(InvalidArgument):
            workflow_a(reg, led, "f1", "r_track", (0.8, 0.1, 0.1))


class TestWorkflowB:
    def test_menu_count_on_reference_setup(self, tmp_path):
        # hub x1 <= 0.6 at 1/100, tracking 0.05, then the 6 bps fee cap:
        # the recomputed menu carries the 3,511-point count in its metrics
        reg = seeded_registry(N=100)
        reg.put("vmorphisms", "r_track05", {
            "kind": "track", "params": {"epsilon": 0.05},
            "domain": "hub", "codomain": "amb"})
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        fee_def = {"kind": "fee_cap",
                   "params": {"tau": 6.0, "functional": FEE.to_dict()},
                   "domain": "amb", "codomain": "amb", "id": "r_fee"}
        entry = workflow_b(reg, led, fee_def, hub_object="hub",
                           pipeline=["r_track05"])
        assert entry.metrics["menu_count"] == 3511
        assert entry.verdict == "committed"

    def test_violations_recorded_and_stop(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        workflow_a(reg, led, "f1", "r_track", (0.6, 0.2, 0.2))  # fee 6.8 bps
        fee_def = {"kind": "fee_cap",
                   "params": {"tau": 6.0, "functional": FEE.to_dict()},
                   "domain": "amb", "codomain": "amb"}
        entry = workflow_b(reg, led, fee_def, hub_object="hub", pipeline=[])
        assert entry.verdict == "violation"
        assert entry.metrics["violating_entries"] == [1]


    @pytest.mark.parametrize("rel", [
        {"kind": "fee_cap", "params": {"tau": 6.0, "functional": FEE.to_dict()},
         "domain": "amb", "codomain": "amb"},
        {"kind": "turnover", "params": {"kappa": 0.2},
         "domain": "amb", "codomain": "low"},
    ])
    def test_full_sweep_counts_empty_fibers(self, tmp_path, rel):
        reg = seeded_registry()
        reg.put("objects", "low", {
            "n": 2, "N": 20, "constraints": [parse_constraint("x3>=0.5", 3).to_dict()]})
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        entry = workflow_b(reg, led, dict(rel, id="r_new"), hub_object="hub",
                           pipeline=["r_track"], full_sweep=True)
        # integer oracle at 1/20: the hub is h1 <= 12, tracking 0.1 is a
        # squared distance <= 4 units, the fee cap 10 h1 + 5 h2 <= 120, and
        # turnover 0.2 an L1 distance <= 4 units into h3 >= 10
        pts = [(a, b, 20 - a - b) for a in range(21) for b in range(21 - a)]
        hub = [x for x in pts if x[0] <= 12]
        if rel["kind"] == "fee_cap":
            codomain = pts
            def related(x, y):
                return x == y and 10 * y[0] + 5 * y[1] <= 120
        else:
            codomain = [y for y in pts if y[2] >= 10]
            def related(x, y):
                return sum(abs(u - v) for u, v in zip(x, y)) <= 4
        tracked = [y for y in pts
                   if any(sum((u - v) ** 2 for u, v in zip(x, y)) <= 4 for x in hub)]
        swept = sum(not any(related(x, y) for y in codomain) for x in hub)
        menu = sum(any(related(x, y) for x in tracked) for y in codomain)
        assert 0 < swept < len(hub)
        assert entry.metrics["swept_violations"] == swept
        assert entry.metrics["menu_count"] == menu

    @pytest.mark.parametrize("rel", [
        {"kind": "fee_cap", "params": {"tau": 6.0, "functional": FEE.to_dict()},
         "domain": "amb", "codomain": "amb"},
        {"kind": "position_caps", "params": {"caps": [0.45, 0.5, 0.6]},
         "domain": "amb", "codomain": "amb"},
        {"kind": "track", "params": {"epsilon": 0.06}, "domain": "hub", "codomain": "amb"},
        {"kind": "turnover", "params": {"kappa": 0.12}, "domain": "hub", "codomain": "amb"},
    ])
    def test_reverification_matches_the_per_entry_loop(self, tmp_path, rel):
        # a map that shrinks toward the barycenter: tracking 0.1 commits
        # the hubs near it and rejects those near the faces
        reg = seeded_registry()
        reg.put("hmorphisms", "shrink", {
            "rule": "affine", "matrix": (0.7 * np.eye(3)).tolist(), "offset": [0.1] * 3,
            "domain": "hub", "codomain": "amb", "name": "shrink"})
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        for x in reg.space("hub").array[::4]:
            workflow_a(reg, led, "shrink", "r_track", x)
        entries = led.entries()
        assert {e.verdict for e in entries} == {"committed", "rejected"}
        new_rel = relation_from_dict(reg.space(rel["domain"]), reg.space(rel["codomain"]), rel)
        want = []
        for e in entries:
            if e.verdict != "committed":
                continue
            x = np.asarray(e.spoke if new_rel.screen is not None else e.hub)
            if not new_rel.test(x[None], np.asarray(e.spoke)[None])[0, 0]:
                want.append(e.seq)
        entry = workflow_b(reg, led, rel, hub_object="hub")
        assert 0 < len(want) < entry.metrics["reverified"]
        assert entry.metrics["violating_entries"] == want

    @pytest.mark.parametrize("rel", [
        {"kind": "fee_cap", "params": {"tau": 6.0, "functional": FEE.to_dict()},
         "domain": "amb", "codomain": "amb"},
        {"kind": "track", "params": {"epsilon": 0.06}, "domain": "hub", "codomain": "amb"},
    ])
    def test_entries_of_other_assets_are_refused(self, tmp_path, rel):
        reg = seeded_registry()
        reg.put("objects", "wide", {"n": 3, "N": 20, "constraints": []})
        reg.put("hmorphisms", "f4", {
            "rule": "affine", "matrix": np.eye(4).tolist(), "offset": [0] * 4,
            "domain": "wide", "codomain": "wide", "name": "f4"})
        reg.put("vmorphisms", "r4", {"kind": "turnover", "params": {"kappa": 0.1},
                                     "domain": "wide", "codomain": "wide"})
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        workflow_a(reg, led, "f1", "r_track", (0.3, 0.5, 0.2))
        workflow_a(reg, led, "f4", "r4", (0.25, 0.25, 0.25, 0.25))
        with pytest.raises(InvalidArgument, match="does not have the assets"):
            workflow_b(reg, led, rel, hub_object="hub")

    def test_swept_violations_only_on_full_sweep(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        fee_def = {"kind": "fee_cap",
                   "params": {"tau": 6.0, "functional": FEE.to_dict()},
                   "domain": "amb", "codomain": "amb"}
        entry = workflow_b(reg, led, fee_def, hub_object="hub")
        assert entry.metrics["swept_violations"] is None


class TestWorkflowC:
    def test_build_and_register(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        objective = {"kind": "neg_fee", "functional": [10, 5, 0]}
        entry = workflow_c(reg, led, "r_track", objective,
                           map_id="f_new", new_object_id="k_new")
        assert entry.verdict == "committed"
        assert reg.get("hmorphisms", "f_new")["rule"] == "constrained_argmax"
        new_space = reg.space("k_new")
        assert len(new_space) == entry.metrics["image_size"] > 0
        # the registered map materializes and lands inside the relation
        f = reg.map("f_new")
        R = reg.relation("r_track")
        for p in f.domain.points[::23]:
            assert R.contains_vectors(p.to_array(), f.evaluate(p))

    def test_dispatch(self, tmp_path):
        reg = seeded_registry()
        led = EvidenceLedger(str(tmp_path / "l.jsonl"), clock=FixedClock())
        entry = run_workflow("a", reg, led, map_id="f1", relation_id="r_track",
                             hub=(0.3, 0.5, 0.2))
        assert entry.workflow == "A"
        with pytest.raises(InvalidArgument):
            run_workflow("z", reg, led)
