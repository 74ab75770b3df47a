"""The benchmark's tracer must install on the package: every method and
function it wraps has to exist, so a refactor that drops one fails here."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

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
        menu = hs.dots.Menu(hub, hub.points)
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
