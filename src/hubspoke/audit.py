"""Morphism registry, append-only evidence ledger, and the three workflows.

The registry is a catalog of named objects (space definitions), horizontal
morphisms (map definitions) and vertical morphisms (relation definitions),
stored as JSON-able dicts with referential integrity enforced on insert.
The ledger is a JSONL file, fsynced per append, never mutated: re-running
a workflow can only extend it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional, Sequence

import numpy as np

from .geometry import InvalidArgument, LatticeSpace
from .optimize import ReimplMap, ValueFunction, build_constrained_reimpl, objective_function
from .relations import Relation, relation_from_dict
from .dots import Menu, action


class NotFound(KeyError):
    """Unknown registry id."""


class Conflict(ValueError):
    """Attempt to overwrite an existing registry id."""


class Clock:
    """Time source; injectable so ledger timestamps are testable."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc)


class FixedClock(Clock):
    """Deterministic clock: starts at `start`, advances by `step` per call."""

    def __init__(self, start: Optional[datetime] = None, step_seconds: float = 1.0):
        self._t = start or datetime(2024, 1, 1, tzinfo=timezone.utc)
        self._step = timedelta(seconds=step_seconds)

    def now(self) -> datetime:
        t = self._t
        self._t = t + self._step
        return t


KINDS = ("objects", "hmorphisms", "vmorphisms")


class Registry:
    """Catalog of named space/map/relation definitions."""

    def __init__(self):
        self.objects: dict[str, dict] = {}
        self.hmorphisms: dict[str, dict] = {}
        self.vmorphisms: dict[str, dict] = {}
        self._space_cache: dict[str, LatticeSpace] = {}

    def _store(self, kind: str) -> dict:
        if kind not in KINDS:
            raise InvalidArgument(f"kind must be one of {KINDS}")
        return getattr(self, kind)

    def put(self, kind: str, ident: str, definition: dict) -> dict:
        store = self._store(kind)
        if ident in store:
            raise Conflict(f"{kind} id {ident!r} already registered")
        if kind in ("hmorphisms", "vmorphisms"):
            for ref in ("domain", "codomain"):
                target = definition.get(ref)
                if target not in self.objects:
                    raise InvalidArgument(
                        f"{kind} {ident!r} references unknown object {target!r}"
                    )
        store[ident] = json.loads(json.dumps(definition))  # defensive deep copy
        return store[ident]

    def get(self, kind: str, ident: str) -> dict:
        store = self._store(kind)
        try:
            return store[ident]
        except KeyError:
            raise NotFound(f"no {kind} entry {ident!r}") from None

    # -- materialization ----------------------------------------------------

    def space(self, ident: str) -> LatticeSpace:
        if ident not in self._space_cache:
            self._space_cache[ident] = LatticeSpace.from_dict(self.get("objects", ident))
        return self._space_cache[ident]

    def relation(self, ident: str) -> Relation:
        d = self.get("vmorphisms", ident)
        return relation_from_dict(self.space(d["domain"]), self.space(d["codomain"]), d)

    def map(self, ident: str) -> ReimplMap:
        d = self.get("hmorphisms", ident)
        domain, codomain = self.space(d["domain"]), self.space(d["codomain"])
        rule = d["rule"]
        if rule == "affine":
            return ReimplMap(domain, codomain, "affine",
                             matrix=np.asarray(d["matrix"], dtype=float),
                             offset=np.asarray(d.get("offset", [0.0] * (codomain.n + 1)),
                                               dtype=float),
                             name=d.get("name", "f"))
        if rule == "constrained_argmax":
            R = self.relation(d["relation"])
            u = ValueFunction.from_callable(
                codomain, lambda v: objective_function(d["objective"])(v.reshape(1, -1))[0])
            return build_constrained_reimpl(domain, codomain, R, u,
                                            name=d.get("name", "f"))
        raise InvalidArgument(f"unknown map rule {rule!r}")

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"objects": self.objects, "hmorphisms": self.hmorphisms,
                "vmorphisms": self.vmorphisms}

    @classmethod
    def from_dict(cls, d: dict) -> "Registry":
        reg = cls()
        reg.objects = dict(d.get("objects", {}))
        reg.hmorphisms = dict(d.get("hmorphisms", {}))
        reg.vmorphisms = dict(d.get("vmorphisms", {}))
        return reg

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Registry":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except json.JSONDecodeError as e:
            raise InvalidArgument(f"registry file {path} is not valid JSON "
                                  f"(line {e.lineno}): {e.msg}") from None


@dataclass(frozen=True)
class LedgerEntry:
    seq: int
    timestamp: str
    workflow: str
    verdict: str
    hub: Optional[list] = None
    spoke: Optional[list] = None
    relation_id: Optional[str] = None
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq, "timestamp": self.timestamp,
            "workflow": self.workflow, "verdict": self.verdict,
            "hub": self.hub, "spoke": self.spoke,
            "relation_id": self.relation_id, "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        return cls(seq=d["seq"], timestamp=d["timestamp"], workflow=d["workflow"],
                   verdict=d["verdict"], hub=d.get("hub"), spoke=d.get("spoke"),
                   relation_id=d.get("relation_id"), metrics=d.get("metrics", {}))


class EvidenceLedger:
    """Append-only JSONL audit log; entries are immutable once written."""

    def __init__(self, path: str, clock: Optional[Clock] = None):
        self.path = path
        self.clock = clock or Clock()
        self._entries: list[LedgerEntry] = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        self._entries.append(LedgerEntry.from_dict(json.loads(line)))
                    except (json.JSONDecodeError, KeyError) as e:
                        raise InvalidArgument(
                            f"ledger {path} line {lineno} is corrupt: {e}"
                        ) from None

    def __len__(self):
        return len(self._entries)

    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def append(self, workflow: str, verdict: str, hub=None, spoke=None,
               relation_id: Optional[str] = None,
               metrics: Optional[dict] = None) -> LedgerEntry:
        entry = LedgerEntry(
            seq=self._entries[-1].seq + 1 if self._entries else 1,
            timestamp=self.clock.now().isoformat(),
            workflow=workflow, verdict=verdict,
            hub=None if hub is None else [float(v) for v in hub],
            spoke=None if spoke is None else [float(v) for v in spoke],
            relation_id=relation_id, metrics=metrics or {},
        )
        data = (json.dumps(entry.to_dict(), sort_keys=True) + "\n").encode("utf-8")
        # one write syscall on an O_APPEND descriptor, fsynced: the entry
        # becomes visible all-or-nothing and survives a crash
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        self._entries.append(entry)
        return entry


# -- workflows ------------------------------------------------------------------


def workflow_a(registry: Registry, ledger: EvidenceLedger,
               map_id: str, relation_id: str, hub: Sequence[float]) -> LedgerEntry:
    """Portfolio change propagation: re-implement, verify, commit or reject."""
    f = registry.map(map_id)
    R = registry.relation(relation_id)
    t0 = time.perf_counter()
    i = f.domain.index_vectors(np.asarray(hub, dtype=float).reshape(1, -1))[0]
    if i < 0:
        raise InvalidArgument(f"hub {list(hub)} is not in the map's domain")
    x, y = f.domain.array[i], f.images[i]
    ok = R.contains_vectors(x, y)
    latency_ms = (time.perf_counter() - t0) * 1000.0
    metrics = {"check_ms": round(latency_ms, 3),
               "l1_turnover": float(np.abs(x - y).sum()) if len(y) == len(x) else None,
               "l2_distance": float(np.linalg.norm(x - y)) if len(y) == len(x) else None}
    return ledger.append("A", "committed" if ok else "rejected",
                         hub=x, spoke=y, relation_id=relation_id,
                         metrics={k: v for k, v in metrics.items() if v is not None})


def workflow_b(registry: Registry, ledger: EvidenceLedger,
               relation_def: dict, hub_object: str,
               pipeline: Sequence[str] = (),
               full_sweep: bool = False) -> LedgerEntry:
    """Alignment change propagation: recompute the menu, re-verify hubs.

    The new relation is applied after the registered pipeline relations;
    previously committed (hub, spoke) pairs from the ledger are re-checked
    against the new relation and violations are recorded.  By default only
    those registered hubs are re-verified; full_sweep additionally checks
    every lattice point of the hub object.
    """
    base = registry.space(hub_object)
    menu = Menu(base, np.ones(len(base), dtype=bool))
    for rid in pipeline:
        menu = action(menu, registry.relation(rid))
    new_rel = relation_from_dict(
        registry.space(relation_def["domain"]),
        registry.space(relation_def["codomain"]),
        relation_def)
    menu = action(menu, new_rel)

    committed = [e for e in ledger.entries()
                 if e.workflow == "A" and e.verdict == "committed"
                 and e.hub is not None and e.spoke is not None]
    try:
        spokes = np.array([e.spoke for e in committed], dtype=float).reshape(
            len(committed), new_rel.codomain.n + 1)
        hubs = spokes if new_rel.screen is not None else np.array(
            [e.hub for e in committed], dtype=float).reshape(len(committed), new_rel.domain.n + 1)
    except ValueError:
        raise InvalidArgument(f"a committed ledger entry does not have the assets of "
                              f"{new_rel.describe()}") from None
    ok = new_rel.contains_rows(hubs, spokes)
    violations = [e.seq for e, good in zip(committed, ok) if not good]
    swept_violations = None
    if full_sweep:
        rows = np.arange(len(base))
        swept_violations = sum(len(action(Menu(base, rows == i), new_rel)) == 0
                               for i in rows)
    verdict = "violation" if violations else "committed"
    return ledger.append("B", verdict, relation_id=relation_def.get("id"),
                         metrics={"menu_count": len(menu),
                                  "violating_entries": violations,
                                  "reverified": len(committed),
                                  "swept_violations": swept_violations})


def workflow_c(registry: Registry, ledger: EvidenceLedger,
               relation_id: str, objective: dict,
               map_id: str, new_object_id: str) -> LedgerEntry:
    """Build new spokes: optimize over fibers, validate, register f and K_new."""
    R = registry.relation(relation_id)
    u_fn = objective_function(objective)
    u = ValueFunction.from_callable(R.codomain, lambda v: float(u_fn(v.reshape(1, -1))[0]))
    f = build_constrained_reimpl(R.domain, R.codomain, R, u, name=map_id)
    image = R.codomain.holdings[np.unique(f.img)].tolist()
    # K_new: the constructed spoke object (finite, hence closed).
    rel_def = registry.get("vmorphisms", relation_id)
    registry.put("objects", new_object_id, {
        "n": R.codomain.n, "N": R.codomain.N, "points": image,
    })
    registry.put("hmorphisms", map_id, {
        "rule": "constrained_argmax", "relation": relation_id,
        "objective": objective, "domain": rel_def["domain"],
        "codomain": rel_def["codomain"], "name": map_id,
    })
    return ledger.append("C", "committed", relation_id=relation_id,
                         metrics={"registered_map": map_id,
                                  "registered_object": new_object_id,
                                  "domain_size": len(f.domain),
                                  "image_size": len(image)})


def run_workflow(kind: str, registry: Registry, ledger: EvidenceLedger,
                 **inputs) -> LedgerEntry:
    kind = kind.upper()
    if kind == "A":
        return workflow_a(registry, ledger, **inputs)
    if kind == "B":
        return workflow_b(registry, ledger, **inputs)
    if kind == "C":
        return workflow_c(registry, ledger, **inputs)
    raise InvalidArgument("workflow kind must be A, B or C")
