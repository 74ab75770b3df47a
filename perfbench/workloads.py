"""The four benchmark workloads: menu, laws, compliance, audit.

Each workload is one closed-loop client in one process.  `operations(seed)`
yields operation inputs made only from the seed; the first one is the
workload's reference case.  `setup` builds fixtures in a per-run directory
and warms up; `run` is the timed call into hubspoke; `check` compares the
output with the references in reference.py, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from types import SimpleNamespace

import numpy as np

import reference as ref


def call_cli(hs, argv: list[str]) -> tuple[int, str]:
    """One in-process `hs` invocation; returns its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hs.cli.main(argv)
    return code, buf.getvalue()


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


class Menu:
    """`hs menu` on Delta^2 at 1/100: track then fee cap."""

    caps = (0.5, 0.6, 0.7)
    epsilons = (0.03, 0.05, 0.08)
    taus = (5, 6, 7)

    def operations(self, seed):
        yield {"cap_index": 0, "cap": 0.6, "eps": 0.05, "tau": 6}
        rng = np.random.default_rng(seed)
        # The cap and eps set an operation's cost.  Each block of three
        # operations uses every cap once and every eps once, in seeded
        # pairings, so every run sees the same mix of costs.
        while True:
            for cap, eps in zip(rng.permutation(self.caps), rng.permutation(self.epsilons)):
                yield {"cap_index": int(rng.integers(0, 3)), "cap": float(cap),
                       "eps": float(eps), "tau": int(rng.choice(self.taus))}

    def setup(self, hs, workdir):
        hubs = {}
        for i in range(3):
            for cap in self.caps:
                con = hs.geometry.parse_constraint(f"x{i + 1}<={cap}", 3)
                hubs[i, cap] = write_json(os.path.join(workdir, f"hub-x{i + 1}-{cap}.json"),
                                          {"n": 2, "N": 100, "constraints": [con.to_dict()]})
        # Warm up on the largest hub and tolerance the seed can draw, so the
        # process reaches its memory peak before timing starts.
        call_cli(hs, self.argv(hubs[0, max(self.caps)], max(self.epsilons), 6))
        return SimpleNamespace(hs=hs, hubs=hubs)

    @staticmethod
    def argv(hub, eps, tau):
        return ["menu", "--hub", hub, "--apply", f"track:{eps}", "--apply", f"fee_cap:{tau}"]

    def run(self, state, op):
        hub = state.hubs[op["cap_index"], op["cap"]]
        return call_cli(state.hs, self.argv(hub, op["eps"], op["tau"]))

    def check(self, state, op, result):
        ref.check_menu(op, result[1], result[0])

    def finish(self, state):
        pass


class Laws:
    """Random coherence instances from C3's distribution, one of each law
    family per operation."""

    def operations(self, seed):
        yield {"case": "reference"}
        # Instance cost grows steeply with the resolution N, so N cycles
        # through its range (uniform, as in C3) instead of being drawn.  The
        # families' costs differ several-fold; one of each per operation
        # keeps the latency distribution single-peaked.
        k = 0
        while True:
            yield {"case": "random", "N": 3 + k % 8, "N_square": (4, 6, 8)[k % 3],
                   "rng": [seed, k]}
            k += 1

    def setup(self, hs, workdir):
        state = SimpleNamespace(hs=hs, cartesian=0)
        self.run(state, {"case": "random", "N": 6, "N_square": 6, "rng": [2**32 - 1]})
        return state

    # -- instance generation, with public constructors only ---------------------

    @staticmethod
    def space(hs, rng, n, N):
        amb = hs.geometry.enumerate_simplex(n, N)
        if rng.random() < 0.5:
            return amb
        for _ in range(8):
            i = int(rng.integers(0, n + 1))
            bound = rng.choice([0.4, 0.5, 0.6, 0.7, 0.8])
            sub = hs.geometry.restrict(
                amb, [hs.geometry.parse_constraint(f"x{i + 1}<={bound}", n + 1)])
            if len(sub) > 1:
                return sub
        return amb

    @staticmethod
    def lattice_map(hs, rng, K1, K2):
        """Nearest-point map under a random attribute."""
        k = int(rng.integers(1, 3))
        spec = hs.optimize.ObjectiveSpec(gA=rng.uniform(-1, 1, size=(k, K1.n + 1)),
                                         gB=rng.uniform(-1, 1, size=(k, K2.n + 1)), p=2)
        return hs.optimize.build_metric_reimpl(K1, K2, spec, name="rand")

    @staticmethod
    def relation(hs, rng, K1, K3):
        roll = rng.random()
        if roll < 0.3 and K1.n == K3.n:
            return hs.relations.build_relation(K1, K3, "turnover",
                                               kappa=float(rng.uniform(0.1, 0.8)))
        if roll < 0.6:
            gA = gB = None
            if K1.n != K3.n:
                k = int(rng.integers(1, 3))
                gA = rng.uniform(0, 1, size=(k, K1.n + 1))
                gB = rng.uniform(0, 1, size=(k, K3.n + 1))
            return hs.relations.build_relation(K1, K3, "track",
                                               epsilon=float(rng.uniform(0.1, 0.6)),
                                               gA=gA, gB=gB)
        if roll < 0.7:
            return hs.relations.full_relation(K1, K3)
        p = rng.uniform(0.05, 0.5)
        pairs = [(x, z) for x in K1.points for z in K3.points if rng.random() < p]
        return hs.relations.explicit_relation(K1, K3, pairs)

    def square(self, hs, rng, N):
        """An aggregation rectangle or a composite-closing square, and R on K_B."""
        g_, o_, t_ = hs.geometry, hs.optimize, hs.transport
        KD = g_.enumerate_simplex(1, N)
        if rng.random() < 0.5:
            KA, KB = g_.enumerate_simplex(2, N), g_.enumerate_simplex(1, N)
            merges = [[[1, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0]], [[0, 1, 1], [1, 0, 0]]]
            g = o_.ReimplMap(KA, KB, "affine",
                             matrix=np.array(merges[int(rng.integers(0, 3))], float), name="g")
            perms = [np.eye(2), np.array([[0, 1], [1, 0]], float)]
            f = o_.ReimplMap(KB, KD, "affine", matrix=perms[int(rng.integers(0, 2))], name="f")
        else:
            KA, KB = self.space(hs, rng, 1, N), g_.enumerate_simplex(1, N)
            g = self.lattice_map(hs, rng, KA, KB)
            f = self.lattice_map(hs, rng, KB, KD)
        fp = o_.compose_maps(f, g, name="fp")
        sq = t_.CommutingSquare(g=g, fp=fp, f=f, h=o_.identity_map(KD))
        return sq, self.relation(hs, rng, KB, g_.enumerate_simplex(1, N))

    def run(self, state, op):
        hs = state.hs
        g_, t_ = hs.geometry, hs.transport
        if op["case"] == "reference":
            amb = g_.enumerate_simplex(2, 10)
            f = hs.optimize.ReimplMap(amb, amb, "affine", matrix=0.8 * np.eye(3),
                                      offset=np.full(3, 0.2 / 3), name="shrink")
            R = hs.relations.build_relation(amb, amb, "track", epsilon=0.10)
            S = hs.relations.build_relation(amb, amb, "turnover", kappa=0.3)
            return [t_.verify_frobenius(f, R, S)]
        rng, N = np.random.default_rng(op["rng"] + [0]), op["N"]
        n = int(rng.integers(1, 3))
        K1, K2 = self.space(hs, rng, n, N), self.space(hs, rng, n, N)
        K3 = self.space(hs, rng, 1, N)
        f = self.lattice_map(hs, rng, K1, K2)
        R, S = self.relation(hs, rng, K1, K3), self.relation(hs, rng, K2, K3)
        reports = [t_.verify_adjunction(f, R, S), t_.verify_frobenius(f, R, S)]

        rng = np.random.default_rng(op["rng"] + [1])
        K1, K2 = self.space(hs, rng, 2, N), self.space(hs, rng, 2, N)
        K3, Z = self.space(hs, rng, 1, N), g_.enumerate_simplex(1, N)
        f, g = self.lattice_map(hs, rng, K1, K2), self.lattice_map(hs, rng, K2, K3)
        R, S = self.relation(hs, rng, K1, Z), self.relation(hs, rng, K3, Z)
        reports.append(t_.verify_functoriality(f, g, R, S=S))

        sq, R = self.square(hs, np.random.default_rng(op["rng"] + [2]), op["N_square"])
        return reports + [t_.verify_lax_bc(sq, R), t_.verify_strict_bc(sq, R)]

    def check(self, state, op, result):
        state.cartesian += ref.check_law_reports(result)

    def finish(self, state):
        ref.expect(state.cartesian > 0, "no cartesian square: strict BC never checked")


class Compliance:
    """`hs compare` on one scenario per operation."""

    scenarios = ("gaussian", "split_peak", "banana")

    def operations(self, seed):
        # The first pass is the pinned seed-42 table; later passes use seeds
        # drawn from the workload seed.
        rng = np.random.default_rng(seed)
        k = ref.PINNED_TABLE_SEED
        while True:
            for s in self.scenarios:
                yield {"scenario": s, "seed": k}
            k = int(rng.integers(1, 2**31))

    def setup(self, hs, workdir):
        call_cli(hs, ["compare", "--scenario", "gaussian", "--seed", "1", "--n", "200"])
        return SimpleNamespace(hs=hs)

    def run(self, state, op):
        return call_cli(state.hs, ["compare", "--scenario", op["scenario"],
                                   "--seed", str(op["seed"])])

    def check(self, state, op, result):
        code, out = result
        ref.expect(code == 0, f"hs compare exited {code}")
        rows = json.loads(out)
        ref.expect(len(rows) == 1, f"hs compare returned {len(rows)} rows")
        st = state.hs.stochastic
        sc = st.builtin_scenarios(seed=op["seed"])[op["scenario"]]
        cloud = st.sample_kernel(sc.spec, sc.hub)
        want = ref.compliance_reference(sc.name, cloud.samples, sc.hub, sc.constraint,
                                        sc.epsilon, sc.cure_budget, sc.erosion_N)
        ref.check_compliance_row(rows[0], want, op["seed"], len(cloud.samples))

    def finish(self, state):
        pass


class Audit:
    """`hs workflow a/b/c` requests against one growing registry and ledger."""

    track_eps = 0.105      # (eps N)^2 is not an integer: no lattice point on the boundary
    fee_tau = 6
    maps = {"f_id": np.eye(3, dtype=np.int64),
            "f_collapse": np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1]], dtype=np.int64)}

    def operations(self, seed):
        yield {"kind": "a", "map": "f_id", "hub": [30, 50, 20]}
        rng = np.random.default_rng(seed)
        H = ref.simplex_holdings(100)
        hubs = H[H[:, 0] <= 60]
        # Blocks of 20 requests, 17 a, 2 b and 1 c in seeded order: b and c
        # cost less than a, so a fixed mix keeps runs comparable.
        block = ["a"] * 17 + ["b"] * 2 + ["c"]
        k = 0
        while True:
            for kind in rng.permutation(block):
                if kind == "a":
                    yield {"kind": "a", "map": "f_id" if rng.random() < 0.8 else "f_collapse",
                           "hub": hubs[int(rng.integers(0, len(hubs)))].tolist()}
                elif kind == "b":
                    yield {"kind": "b"}
                else:
                    k += 1
                    yield {"kind": "c", "new_map": f"f_new{k}", "new_object": f"k_new{k}",
                           "objective": {"kind": "quadratic",
                                         "center": rng.dirichlet([2, 2, 2]).round(3).tolist()}}

    def setup(self, hs, workdir):
        fee = hs.geometry.LinearFunctional(ref.FEE_COEFFS, units="bps").to_dict()
        reg = hs.audit.Registry()
        for N in (100, 20, 10):
            cap = hs.geometry.parse_constraint("x1<=0.6", 3).to_dict()
            reg.put("objects", f"hub{N}", {"n": 2, "N": N, "constraints": [cap]})
            reg.put("objects", f"amb{N}", {"n": 2, "N": N, "constraints": []})
        for name, M in self.maps.items():
            reg.put("hmorphisms", name, {"rule": "affine", "matrix": M.tolist(),
                                         "offset": [0, 0, 0], "domain": "hub100",
                                         "codomain": "amb100", "name": name})
        for name, N, eps in (("r_track", 100, self.track_eps),
                             ("r_track20", 20, 0.1), ("r_track10", 10, 0.2)):
            reg.put("vmorphisms", name, {"kind": "track", "params": {"epsilon": eps},
                                         "domain": f"hub{N}", "codomain": f"amb{N}"})
        state = SimpleNamespace(
            hs=hs, dir=workdir,
            registry=os.path.join(workdir, "registry.json"),
            ledger=os.path.join(workdir, "ledger.jsonl"),
            rule=write_json(os.path.join(workdir, "fee_rule.json"), {
                "id": "r_fee", "kind": "fee_cap", "domain": "amb20", "codomain": "amb20",
                "params": {"tau": self.fee_tau, "functional": fee}}),
            ledger_bytes=b"", entries=[])
        reg.save(state.registry)
        with open(state.registry, "rb") as fh:
            state.registry_bytes = fh.read()
        warm = os.path.join(workdir, "warmup-ledger.jsonl")
        call_cli(hs, ["workflow", "a", "--registry", state.registry, "--ledger", warm,
                      "--map", "f_id", "--relation", "r_track", "--hub", "0.3,0.5,0.2"])
        os.remove(warm)
        return state

    def run(self, state, op):
        base = ["workflow", op["kind"], "--registry", state.registry, "--ledger", state.ledger]
        if op["kind"] == "a":
            hub = ",".join(str(h / 100) for h in op["hub"])
            args = ["--map", op["map"], "--relation", "r_track", "--hub", hub]
        elif op["kind"] == "b":
            args = ["--relation-def", state.rule, "--hub-object", "hub20",
                    "--pipeline", "r_track20"]
        else:
            obj = write_json(os.path.join(state.dir, "objective.json"), op["objective"])
            args = ["--relation", "r_track10", "--objective", obj,
                    "--new-map", op["new_map"], "--new-object", op["new_object"]]
        return call_cli(state.hs, base + args)

    def check(self, state, op, result):
        code, out = result
        with open(state.ledger, "rb") as fh:
            after = fh.read()
        before, prior = state.ledger_bytes, state.entries
        # The next check compares against this ledger even if this one fails.
        state.ledger_bytes = after
        state.entries = ref.check_ledger(before, after)
        entry = json.loads(out)
        ref.expect(state.entries[-1] == entry, "printed entry differs from the ledger's last line")
        if op["kind"] == "a":
            hub = np.asarray(op["hub"], dtype=np.int64)
            spoke = self.maps[op["map"]] @ hub
            want = ref.tracking_verdict(hub, spoke, self.track_eps, 100)
            ref.expect(np.allclose(entry["spoke"], spoke / 100, atol=1e-9),
                       f"workflow a spoke {entry['spoke']} != {spoke / 100}")
        elif op["kind"] == "b":
            viol = ref.fee_violators(prior, self.fee_tau, 100)
            want = "violation" if viol else "committed"
            m = entry["metrics"]
            ref.expect(m["violating_entries"] == viol,
                       f"workflow b flagged {m['violating_entries']}, reference {viol}")
            ref.expect(m["reverified"] == sum(e["workflow"] == "A" and e["verdict"] == "committed"
                                              for e in prior),
                       "workflow b re-verified the wrong number of entries")
            want_menu = ref.menu_counts(0, 0.6, 0.1, self.fee_tau, N=20)[1]
            ref.expect(m["menu_count"] == want_menu,
                       f"workflow b menu {m['menu_count']}, reference {want_menu}")
        else:
            want = "committed"
            self.check_registry(state, op, entry)
        ref.expect(entry["verdict"] == want, f"{op}: verdict {entry['verdict']}, want {want}")
        ref.expect(code == (0 if want == "committed" else 1), f"exit code {code} for {want}")

    def check_registry(self, state, op, entry):
        """The registry gained the new map and object and round-trips."""
        with open(state.registry, "rb") as fh:
            saved = fh.read()
        doc = json.loads(saved)
        ref.expect(op["new_map"] in doc["hmorphisms"] and op["new_object"] in doc["objects"],
                   "workflow c did not register its map and object")
        ref.expect(len(doc["objects"][op["new_object"]]["points"])
                   == entry["metrics"]["image_size"], "registered object size != image size")
        copy = os.path.join(state.dir, "registry-roundtrip.json")
        state.hs.audit.Registry.load(state.registry).save(copy)
        with open(copy, "rb") as fh:
            ref.expect(fh.read() == saved, "registry does not round-trip through load and save")
        state.registry_bytes = saved

    def finish(self, state):
        with open(state.registry, "rb") as fh:
            ref.expect(fh.read() == state.registry_bytes, "registry changed outside workflow c")


WORKLOADS = {"menu": Menu, "laws": Laws, "compliance": Compliance, "audit": Audit}
