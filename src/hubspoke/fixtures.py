"""Law-verification fixtures: the built-in reference instances and a JSON form.

A fixture document (a JSON file for `hs verify --fixture`) names the
spaces, maps and relations a law should be checked on::

    {
      "spaces":    {"amb": {"n": 2, "N": 10, "constraints": []}},
      "maps":      {"f": {"rule": "affine", "matrix": [[...]], "offset": [...],
                          "domain": "amb", "codomain": "amb"}},
      "relations": {"R": {"kind": "track", "params": {"epsilon": 0.1},
                          "domain": "amb", "codomain": "amb"}},
      "args":      {"f": "f", "R": "R", "S": "S"}           # law-specific
    }

A document that is not an object of objects (each space, map and relation
entry an object too), or lacks a space, map, relation or argument the law
reads, or a field one of them needs, raises an InvalidArgument naming it.

Without a document, `run_law` uses the reference fixture for that law: the
shrink-toward-barycenter map with tracking and turnover relations for
adjunction/frobenius/functoriality, and the aggregation chain for the
Beck-Chevalley laws.
"""

from __future__ import annotations

import numpy as np

from .geometry import InvalidArgument, LatticeSpace, enumerate_simplex
from .optimize import ReimplMap, identity_map
from .relations import build_relation, relation_from_dict
from .transport import (
    CommutingSquare,
    LawReport,
    verify_adjunction,
    verify_frobenius,
    verify_functoriality,
    verify_lax_bc,
    verify_strict_bc,
)


def _pick(table: dict, name, what: str):
    """table[name], or an InvalidArgument naming the missing `what`."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise InvalidArgument(f"fixture has no {what} {name!r}") from None


def _materialize(doc: dict):
    sections = ("spaces", "maps", "relations")
    if not (isinstance(doc, dict) and isinstance(doc.get("args", {}), dict)
            and all(isinstance(doc.get(k, {}), dict) for k in sections)
            and all(isinstance(v, dict) for k in sections for v in doc.get(k, {}).values())):
        raise InvalidArgument("a fixture must be a JSON object of JSON objects")
    spaces = {k: LatticeSpace.from_dict(v) for k, v in doc.get("spaces", {}).items()}

    def ends(v):
        return (_pick(spaces, v.get(end), "space") for end in ("domain", "codomain"))

    maps = {}
    for k, v in doc.get("maps", {}).items():
        if v.get("rule") != "affine":
            raise InvalidArgument("fixture maps must be affine")
        maps[k] = ReimplMap(*ends(v), "affine", matrix=v.get("matrix"),
                            offset=v.get("offset"), name=k)
    return maps, {k: relation_from_dict(*ends(v), v) for k, v in doc.get("relations", {}).items()}


def _reference(law: str) -> tuple[dict, dict]:
    """A law's reference maps and relations by argument name: the
    stock -> sector -> asset-class aggregation chain at 1/10 for the
    Beck-Chevalley laws, else the shrink f toward the barycenter, a second
    shrink g, and tracking R and turnover S on Delta^2 at 1/10."""
    if law not in ("lax_bc", "strict_bc"):
        amb = enumerate_simplex(2, 10)
        f = ReimplMap(amb, amb, "affine", matrix=0.8 * np.eye(3),
                      offset=np.full(3, 0.2 / 3), name="shrink")
        g = ReimplMap(amb, amb, "affine", matrix=0.9 * np.eye(3),
                      offset=np.full(3, 0.1 / 3), name="shrink2")
        return {"f": f, "g": g}, {"R": build_relation(amb, amb, "track", epsilon=0.10),
                                  "S": build_relation(amb, amb, "turnover", kappa=0.3)}
    KA, KB, KD, Z = (enumerate_simplex(n, 10) for n in (3, 2, 1, 1))

    def merge(dom, cod, rows, name):
        return ReimplMap(dom, cod, "affine", matrix=np.array(rows, float), name=name)

    maps = {"g": merge(KA, KB, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "sectors"),
            "f": merge(KB, KD, [[1, 1, 0], [0, 0, 1]], "classes"),
            "fp": merge(KA, KD, [[1, 1, 1, 0], [0, 0, 0, 1]], "direct"),
            "h": identity_map(KD)}
    R = build_relation(KB, Z, "custom",
                       mask_fn=lambda Y, Zz: Y[:, [0]] <= 2 * Zz[:, 0][None, :] + 1e-9)
    return maps, {"R": R}


def run_law(law: str, doc: dict | None = None) -> LawReport:
    """Verify a law on a fixture document, or on its reference fixture."""
    law = law.replace("-", "_")
    if doc is None:
        maps, relations = _reference(law)
        args = {k: k for k in (*maps, *relations)}
    else:
        maps, relations = _materialize(doc)
        args = doc.get("args", {})

    def m(key):
        return _pick(maps, _pick(args, key, "argument"), "map")

    def r(key):
        return _pick(relations, _pick(args, key, "argument"), "relation")

    if law == "adjunction":
        return verify_adjunction(m("f"), r("R"), r("S"))
    if law == "frobenius":
        return verify_frobenius(m("f"), r("R"), r("S"))
    if law == "functoriality":
        return verify_functoriality(m("f"), m("g"), r("R"))
    if law in ("lax_bc", "strict_bc"):
        square = CommutingSquare(g=m("g"), fp=m("fp"), f=m("f"), h=m("h"))
        return (verify_lax_bc if law == "lax_bc" else verify_strict_bc)(square, r("R"))
    raise InvalidArgument(f"unknown law {law!r}")
