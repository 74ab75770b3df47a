"""The benchmark's tracer must install on the package: every method and
function it wraps has to exist, so a refactor that drops one fails here."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_counts_and_uninstalls():
    tracing = _tracing()
    hs = SimpleNamespace(**{layer: importlib.import_module(f"hubspoke.{layer}")
                            for layer in tracing.LAYERS})
    geometry = hs.geometry
    originals = (geometry.enumerate_simplex, geometry.restrict,
                 vars(geometry.LatticeSpace)["from_points"], vars(hs.dots.Menu)["mask_on"])
    tracer = tracing.Tracer()
    try:
        tracer.install(hs)
        amb = geometry.enumerate_simplex(2, 10)
        hub = geometry.restrict(amb, [geometry.parse_constraint("x1<=0.5", 3)])
        menu = hs.dots.Menu(hub, np.ones(len(hub), dtype=bool))
        assert menu.mask_on(amb).sum() == len(hub) == 51
        assert geometry.LatticeSpace.from_dict(hub.to_dict()).same_points(hub)
    finally:
        tracer.uninstall()
    # from_dict enumerates and screens the ambient lattice a second time
    assert tracer.counts["geometry.points_enumerated"] == 2 * 66
    assert tracer.counts["geometry.points_screened"] == 2 * 66
    names = {span[0] for span in tracer.spans}
    assert {"geometry.enumerate_simplex", "geometry.restrict", "dots.mask_on",
            "geometry.from_dict"} <= names
    assert (geometry.enumerate_simplex, geometry.restrict,
            vars(geometry.LatticeSpace)["from_points"],
            vars(hs.dots.Menu)["mask_on"]) == originals


def test_tracer_counts_map_and_law_layers():
    tracing = _tracing()
    hs = SimpleNamespace(**{layer: importlib.import_module(f"hubspoke.{layer}")
                            for layer in tracing.LAYERS})
    o, r, t = hs.optimize, hs.relations, hs.transport
    tracer = tracing.Tracer()
    try:
        tracer.install(hs)
        amb = hs.geometry.enumerate_simplex(2, 6)
        f = o.ReimplMap(amb, amb, "affine", matrix=0.8 * np.eye(3),
                        offset=np.full(3, 0.2 / 3), name="shrink")
        o.build_metric_reimpl(amb, amb, o.ObjectiveSpec(p=2))
        R = r.build_relation(amb, amb, "track", epsilon=0.2)
        S = r.build_relation(amb, amb, "turnover", kappa=0.4)
        report = t.verify_frobenius(f, R, S)
    finally:
        tracer.uninstall()
    # verify_frobenius pushes R and R restricted to f*S
    pushed = len(t.pushforward(f, r.intersect(R, t.pullback(f, S)))) + len(t.pushforward(f, R))
    assert report.holds and report.lhs_count > 0
    assert tracer.counts["transport.pairs_pushed"] == pushed
    names = {span[0] for span in tracer.spans}
    assert {"optimize.reimpl_map", "optimize.build_metric_reimpl",
            "transport.verify_frobenius", "transport.pushforward",
            "transport.pullback"} <= names
    # the law path reads image arrays: no map is evaluated point by point
    assert "optimize.evaluate" not in names
