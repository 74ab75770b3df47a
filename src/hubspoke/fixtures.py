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


def _materialize(doc: dict):
    spaces = {k: LatticeSpace.from_dict(v) for k, v in doc.get("spaces", {}).items()}
    maps = {}
    for k, v in doc.get("maps", {}).items():
        if v["rule"] != "affine":
            raise InvalidArgument("fixture maps must be affine")
        maps[k] = ReimplMap(spaces[v["domain"]], spaces[v["codomain"]], "affine",
                            matrix=np.asarray(v["matrix"], dtype=float),
                            offset=np.asarray(v.get("offset",
                                                    [0.0] * (spaces[v["codomain"]].n + 1)),
                                              dtype=float),
                            name=k)
    relations = {}
    for k, v in doc.get("relations", {}).items():
        relations[k] = relation_from_dict(spaces[v["domain"]], spaces[v["codomain"]], v)
    return spaces, maps, relations


def _reference_triple():
    """Shrink map toward the barycenter with tracking and turnover relations."""
    amb = enumerate_simplex(2, 10)
    f = ReimplMap(amb, amb, "affine", matrix=0.8 * np.eye(3),
                  offset=np.full(3, 0.2 / 3), name="shrink")
    R = build_relation(amb, amb, "track", epsilon=0.10)
    S = build_relation(amb, amb, "turnover", kappa=0.3)
    return f, R, S


def _reference_square():
    """Stock -> sector -> asset-class aggregation chain at 1/10."""
    KA = enumerate_simplex(3, 10)
    KB = enumerate_simplex(2, 10)
    KD = enumerate_simplex(1, 10)
    g = ReimplMap(KA, KB, "affine",
                  matrix=np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], float),
                  name="sectors")
    f = ReimplMap(KB, KD, "affine",
                  matrix=np.array([[1, 1, 0], [0, 0, 1]], float), name="classes")
    fp = ReimplMap(KA, KD, "affine",
                   matrix=np.array([[1, 1, 1, 0], [0, 0, 0, 1]], float), name="direct")
    square = CommutingSquare(g=g, fp=fp, f=f, h=identity_map(KD))
    Z = enumerate_simplex(1, 10)
    R = build_relation(KB, Z, "custom",
                       mask_fn=lambda Y, Zz: Y[:, [0]] <= 2 * Zz[:, 0][None, :] + 1e-9)
    return square, R


def run_law(law: str, doc: dict | None = None) -> LawReport:
    """Verify a law on a fixture document, or on its reference fixture."""
    law = law.replace("-", "_")
    if doc is not None:
        _, maps, relations = _materialize(doc)
        args = doc.get("args", {})
        if law == "adjunction":
            return verify_adjunction(maps[args["f"]], relations[args["R"]],
                                     relations[args["S"]])
        if law == "frobenius":
            return verify_frobenius(maps[args["f"]], relations[args["R"]],
                                    relations[args["S"]])
        if law == "functoriality":
            return verify_functoriality(maps[args["f"]], maps[args["g"]],
                                        relations[args["R"]])
        square = CommutingSquare(g=maps[args["g"]], fp=maps[args["fp"]],
                                 f=maps[args["f"]], h=maps[args["h"]])
        R = relations[args["R"]]
        if law == "lax_bc":
            return verify_lax_bc(square, R)
        if law == "strict_bc":
            return verify_strict_bc(square, R)
        raise InvalidArgument(f"unknown law {law!r}")

    if law in ("adjunction", "frobenius", "functoriality"):
        f, R, S = _reference_triple()
        if law == "adjunction":
            return verify_adjunction(f, R, S)
        if law == "frobenius":
            return verify_frobenius(f, R, S)
        # functoriality: follow the shrink with another shrink
        g = ReimplMap(f.codomain, f.codomain, "affine", matrix=0.9 * np.eye(3),
                      offset=np.full(3, 0.1 / 3), name="shrink2")
        return verify_functoriality(f, g, R, S=None)
    if law in ("lax_bc", "strict_bc"):
        square, R = _reference_square()
        return (verify_lax_bc if law == "lax_bc" else verify_strict_bc)(square, R)
    raise InvalidArgument(f"unknown law {law!r}")
