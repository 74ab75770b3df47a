import hashlib
import json
import os

import numpy as np
import pytest

from hubspoke.cli import main
from hubspoke.geometry import GridPoint, parse_constraint


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEnumerate:
    def test_count_and_csv(self, capsys, tmp_path):
        out_file = str(tmp_path / "pts.csv")
        code, out = run(capsys, "enumerate", "--dim", "2", "--step", "1/20",
                        "--constraint", "x1<=0.6", "--out", out_file)
        assert code == 0
        assert "195 lattice points" in out
        rows = open(out_file).read().strip().splitlines()
        assert len(rows) == 195

    @pytest.mark.parametrize("argv,sha", [
        (["--dim", "2", "--step", "1/20", "--constraint", "x1<=0.6"],
         "9702ed184f849ef0c43c7284d78ff3515d1b60efdfecb3aba9cff555cfa01df3"),
        (["--dim", "3", "--step", "1/7"],
         "abbd818429e734915ac29bfaa5d0c2acb647581bccb6795c11798773d91f7451"),
    ], ids=["hub_at_20", "delta3_at_7"])
    def test_csv_bytes_pinned_and_no_grid_point(self, capsys, tmp_path, monkeypatch,
                                                argv, sha):
        built = []
        real = GridPoint.__post_init__
        monkeypatch.setattr(GridPoint, "__post_init__",
                            lambda self: built.append(self.coords) or real(self))
        out_file = tmp_path / "pts.csv"
        code, _ = run(capsys, "enumerate", *argv, "--out", str(out_file))
        assert code == 0 and built == []
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == sha

    def test_coefficient_constraint_form(self, capsys):
        code, out = run(capsys, "enumerate", "--dim", "2", "--step", "1/50",
                        "--constraint", "1,0,0<=0.4")
        assert code == 0 and "861" in out

    def test_bad_step(self, capsys):
        code = main(["enumerate", "--dim", "2", "--step", "0.3"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--dim", "6", "--step", "1/400"],
        ["--dim", "5", "--step", "1/400"],
        ["--dim", "3", "--step", "1/400"],
    ])
    def test_oversized_lattice_exit_two(self, capsys, argv):
        code = main(["enumerate"] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "points" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--step", "1/10", "--constraint", "x1<=1/0"],
        ["--step", "1/10", "--constraint", "a,b,c<=1"],
        ["--step", "1/10", "--constraint", "nan,0,0<=1"],
        ["--step", "1/10", "--constraint", "1,0,0<=inf"],
        ["--step", "1/0"],
        ["--step", "abc"],
    ])
    def test_malformed_rational_exit_two(self, capsys, argv):
        code = main(["enumerate", "--dim", "2"] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("constraint", [
        {"coeffs": [float("nan"), 0, 0], "bound": "1/2"},
        {"coeffs": [1, 0, 0], "bound": float("inf")},
    ])
    def test_non_finite_float_in_hub_exit_two(self, capsys, tmp_path, constraint):
        path = tmp_path / "hub.json"
        path.write_text(json.dumps({"n": 2, "N": 10, "constraints": [constraint]}))
        code = main(["menu", "--hub", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    @pytest.mark.parametrize("law", ["adjunction", "frobenius", "functoriality",
                                     "lax-bc", "strict-bc"])
    def test_builtin_fixtures_hold(self, capsys, law):
        code, out = run(capsys, "verify", "--law", law)
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True

    def test_fixture_file(self, capsys, tmp_path):
        doc = {
            "spaces": {"amb": {"n": 2, "N": 8, "constraints": []}},
            "maps": {"f": {"rule": "affine",
                           "matrix": (0.8 * np.eye(3)).tolist(),
                           "offset": [0.2 / 3] * 3,
                           "domain": "amb", "codomain": "amb"}},
            "relations": {"R": {"kind": "track", "params": {"epsilon": 0.2},
                                "domain": "amb", "codomain": "amb"},
                          "S": {"kind": "turnover", "params": {"kappa": 0.4},
                                "domain": "amb", "codomain": "amb"}},
            "args": {"f": "f", "R": "R", "S": "S"},
        }
        path = tmp_path / "fix.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--law", "frobenius",
                        "--fixture", str(path))
        assert code == 0 and json.loads(out)["holds"]

    @pytest.mark.parametrize("law", ["lax-bc", "strict-bc"])
    def test_square_whose_maps_do_not_chain_exit_two(self, capsys, tmp_path, law):
        # f is defined on x1 <= 0.5 while g lands in all of Delta^1
        eye = np.eye(2).tolist()
        half = parse_constraint("x1<=0.5", 2).to_dict()
        doc = {
            "spaces": {"line": {"n": 1, "N": 4, "constraints": []},
                       "half": {"n": 1, "N": 4, "constraints": [half]}},
            "maps": {k: {"rule": "affine", "matrix": eye, "domain": dom, "codomain": "line"}
                     for k, dom in (("g", "line"), ("fp", "line"), ("f", "half"),
                                    ("h", "line"))},
            "relations": {"R": {"kind": "turnover", "params": {"kappa": 0.5},
                                "domain": "half", "codomain": "line"}},
            "args": {"g": "g", "fp": "fp", "f": "f", "h": "h", "R": "R"},
        }
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "--law", law, "--fixture", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: square: g must land in f's domain K_B\n"

    @staticmethod
    def _full_fixture():
        """Every space, map, relation and argument any law reads: identity
        maps on one space and two turnover relations."""
        eye = np.eye(3).tolist()
        return {
            "spaces": {"amb": {"n": 2, "N": 4, "constraints": []}},
            "maps": {k: {"rule": "affine", "matrix": eye, "domain": "amb", "codomain": "amb"}
                     for k in ("f", "g", "fp", "h")},
            "relations": {k: {"kind": "turnover", "params": {"kappa": kappa},
                              "domain": "amb", "codomain": "amb"}
                          for k, kappa in (("R", 0.25), ("S", 0.5))},
            "args": {k: k for k in ("f", "g", "fp", "h", "R", "S")},
        }

    @pytest.mark.parametrize("law,first", [("adjunction", "f"), ("frobenius", "f"),
                                           ("functoriality", "f"), ("lax-bc", "g"),
                                           ("strict-bc", "g")])
    @pytest.mark.parametrize("case", ["document_is_a_list", "no_maps_or_args",
                                      "argument_missing", "argument_names_no_map",
                                      "argument_is_not_a_name",
                                      "argument_names_no_relation", "map_names_no_space",
                                      "relation_names_no_space", "args_not_an_object"])
    def test_incomplete_fixture_exit_two(self, capsys, tmp_path, law, first, case):
        doc = self._full_fixture()
        path = tmp_path / "fix.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--law", law, "--fixture", str(path)]) == 0
        capsys.readouterr()
        if case == "document_is_a_list":
            doc, message = [doc], "a fixture must be a JSON object of JSON objects"
        elif case == "no_maps_or_args":
            doc, message = {"spaces": {}, "args": {}}, f"fixture has no argument {first!r}"
        elif case == "argument_missing":
            del doc["args"]["R"]
            message = "fixture has no argument 'R'"
        elif case == "argument_names_no_map":
            doc["args"][first] = "ghost"
            message = "fixture has no map 'ghost'"
        elif case == "argument_is_not_a_name":
            doc["args"][first] = [first]
            message = f"fixture has no map {[first]!r}"
        elif case == "argument_names_no_relation":
            doc["args"]["R"] = "ghost"
            message = "fixture has no relation 'ghost'"
        elif case == "map_names_no_space":
            doc["maps"][first]["codomain"] = "ghost"
            message = "fixture has no space 'ghost'"
        elif case == "relation_names_no_space":
            doc["relations"]["R"]["domain"] = "ghost"
            message = "fixture has no space 'ghost'"
        else:
            doc["args"] = list(doc["args"])
            message = "a fixture must be a JSON object of JSON objects"
        path.write_text(json.dumps(doc))
        code = main(["verify", "--law", law, "--fixture", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestDemo:
    def test_closure_fix_violates(self, capsys):
        code, out = run(capsys, "demo", "closure-fix", "--which", "frobenius")
        assert code == 1
        assert "law holds: False" in out
        assert "phantom witness" in out

    def test_closed_hub_holds(self, capsys):
        code, out = run(capsys, "demo", "closure-fix", "--which", "bc",
                        "--closed-hub")
        assert code == 0


class TestMenuAndMaps:
    def test_menu_pipeline(self, capsys, tmp_path):
        hub = {"n": 2, "N": 20,
               "constraints": [parse_constraint("x1<=0.6", 3).to_dict()]}
        path = tmp_path / "hub.json"
        path.write_text(json.dumps(hub))
        code, out = run(capsys, "menu", "--hub", str(path),
                        "--apply", "track:0.1", "--apply", "fee_cap:6")
        assert code == 0
        assert "track" in out and "fee_cap" in out
        # integer oracle at 1/20: x1 <= 12 units, squared distance <= 2^2
        # units, fee 10 y0 + 5 y1 <= 6 bps * 20
        pts = [(a, b, 20 - a - b) for a in range(21) for b in range(21 - a)]
        hubs = [x for x in pts if x[0] <= 12]
        count = sum(1 for y in pts
                    if 10 * y[0] + 5 * y[1] <= 120
                    and any(sum((u - v) ** 2 for u, v in zip(x, y)) <= 4
                            for x in hubs))
        assert f"menu: {count} points" in out

    @pytest.mark.parametrize("argv", [
        ["--apply", "track"],
        ["--apply", "track:abc"],
        ["--apply", "fee_cap:6:1,x,0"],
        ["--apply", "fee_cap:6:1,2"],
        ["--apply", "liquidity_cap:0.3"],
        ["--apply", "bogus:1"],
        ["--apply", "track:nan"],
        ["--apply", "fee_cap:nan"],
        ["--apply", "fee_cap:inf"],
        ["--apply", "liquidity_cap:nan:2"],
        ["--apply", "liquidity_cap:inf:2"],
    ])
    def test_menu_bad_apply_exit_two(self, capsys, tmp_path, argv):
        path = tmp_path / "hub.json"
        path.write_text(json.dumps({"n": 2, "N": 10, "constraints": []}))
        code = main(["menu", "--hub", str(path)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        [],
        ["--template", "core-satellite"],
    ])
    def test_menu_missing_input_exit_two(self, capsys, argv):
        code = main(["menu"] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("hub", [
        {"n": 2, "N": 20, "constraints": [parse_constraint("x1<=0.6", 3).to_dict()]},
        {"n": 2, "N": 20, "constraints": [], "points": [[10, 5, 5], [0, 0, 20]]},
    ])
    def test_menu_enumerates_the_lattice_once(self, capsys, tmp_path, monkeypatch, hub):
        import hubspoke.cli as cli

        calls = []
        real = cli.enumerate_simplex
        monkeypatch.setattr(cli, "enumerate_simplex",
                            lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr("hubspoke.geometry.enumerate_simplex", cli.enumerate_simplex)
        path = tmp_path / "hub.json"
        path.write_text(json.dumps(hub))
        code, out = run(capsys, "menu", "--hub", str(path), "--apply", "track:0.1")
        assert code == 0 and "menu: " in out
        assert calls == [(2, 20)]

    def test_core_satellite_template(self, capsys, tmp_path):
        space = {"n": 2, "N": 10, "constraints": []}
        a = tmp_path / "a.json"
        a.write_text(json.dumps(space))
        code, out = run(capsys, "menu", "--template", "core-satellite",
                        "--w", "1.0", "--inputs", str(a), str(a))
        assert code == 0 and "menu: 66 points" in out

    def _worked_example_hub(self, tmp_path):
        path = tmp_path / "hub.json"
        path.write_text(json.dumps({"n": 2, "N": 100, "constraints": [
            parse_constraint("x1<=0.6", 3).to_dict()]}))
        return str(path)

    def test_menu_csv_bytes_pinned(self, capsys, tmp_path):
        code, out = run(capsys, "menu", "--hub", self._worked_example_hub(tmp_path),
                        "--apply", "track:0.05", "--apply", "fee_cap:6",
                        "--format", "csv")
        assert code == 0 and out.count("\n") == 3513
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a8c731e5c38043e5b7c266d812d38cb738a5b672d9cd08f8b0f587ff0aced6a2")

    def test_menu_count_builds_no_grid_point(self, capsys, tmp_path, monkeypatch):
        built = []
        real = GridPoint.__post_init__
        monkeypatch.setattr(GridPoint, "__post_init__",
                            lambda self: built.append(self.coords) or real(self))
        code, out = run(capsys, "menu", "--hub", self._worked_example_hub(tmp_path),
                        "--apply", "track:0.05", "--apply", "fee_cap:6")
        assert code == 0 and "menu: 3511 points" in out
        assert built == []
        GridPoint((1, 0, 0), 1)
        assert built == [(1, 0, 0)]

    def test_explicit_hub_builds_no_grid_point(self, capsys, tmp_path, monkeypatch):
        from hubspoke.geometry import enumerate_simplex

        path = tmp_path / "hub.json"
        points = enumerate_simplex(2, 100).holdings[::5][:900].tolist()
        path.write_text(json.dumps({"n": 2, "N": 100, "constraints": [], "points": points}))
        built = []
        real = GridPoint.__post_init__
        monkeypatch.setattr(GridPoint, "__post_init__",
                            lambda self: built.append(self.coords) or real(self))
        code, out = run(capsys, "menu", "--hub", str(path), "--apply", "fee_cap:6")
        assert code == 0 and out.startswith("menu: ")
        assert built == []

    @pytest.mark.parametrize("points", [
        [[1, 0, 1], [-1, 2, 1]],        # a negative holding
        [[1, 0, 1], [1, 1, 1]],         # a row summing to 3, not 2
        [[1, 1], [2, 0]],               # two holdings, not three
        [[1, 0, 1], [2, 0]],            # ragged rows
    ])
    def test_malformed_points_hub_exit_two(self, capsys, tmp_path, points):
        path = tmp_path / "hub.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "points": points}))
        code = main(["menu", "--hub", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_core_satellite_csv_bytes_pinned(self, capsys, tmp_path):
        # x1 <= 0.6 mixed with x2 <= 0.5 at 1/10: the menu lives on the
        # ambient lattice, 7 of its 60 points beyond the core's cap
        code, out = run(capsys, "menu", "--template", "core-satellite", "--w", "0.5",
                        "--inputs", *self._core_satellite_inputs(tmp_path, 10),
                        "--format", "csv")
        assert code == 0 and "menu: 60 points" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "45ebf299c7725104e634e8303a9c2898ff92429e1f7e0ea5728912648c8843d7")

    def _core_satellite_inputs(self, tmp_path, N):
        paths = []
        for name, cap in (("core", "x1<=0.6"), ("sat", "x2<=0.5")):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump({"n": 2, "N": N, "constraints": [
                    parse_constraint(cap, 3).to_dict()]}, fh)
        return paths

    def test_core_satellite_csv_bytes_pinned_at_40(self, capsys, tmp_path):
        # 725 x 651 mixes; the same bytes as the per-pair snapping loop
        code, out = run(capsys, "menu", "--template", "core-satellite", "--w", "0.5",
                        "--inputs", *self._core_satellite_inputs(tmp_path, 40),
                        "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3e5efd1c4fa22f4924fbeba6dce3659996056fe8b7bc9aaa0c4ca1a4d801593a")

    def test_core_satellite_pair_budget_exit_two(self, capsys, tmp_path, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("snapped past the budget")

        monkeypatch.setattr("hubspoke.dots.MAX_MIX_CELLS", 195 * 176 * 3 - 1)
        monkeypatch.setattr("hubspoke.dots.snap_rows", refuse)
        code = main(["menu", "--template", "core-satellite", "--w", "0.5",
                     "--inputs", *self._core_satellite_inputs(tmp_path, 20)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceeds the supported 102959 cells" in captured.err
        assert captured.err.count("\n") == 1

    def test_fee_cap_just_below_a_lattice_value(self, capsys, tmp_path):
        # a 1e-10 offset below 6 is a bound below 6: the fee-6 points go
        hub = self._worked_example_hub(tmp_path)
        for tau, count in (("6", 3511), ("5.9999999999", 3470)):
            code, out = run(capsys, "menu", "--hub", hub,
                            "--apply", "track:0.05", "--apply", f"fee_cap:{tau}")
            assert code == 0 and out.startswith(f"menu: {count} points\n")

    def test_build_map(self, capsys, tmp_path):
        spec = {"gA": [[1.0, 0.0]], "gB": [[1.0, 0.0]], "p": 2}
        hub = {"n": 1, "N": 10, "constraints": []}
        spoke = {"n": 1, "N": 10, "constraints": []}
        for name, doc in [("spec", spec), ("hub", hub), ("spoke", spoke)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        out_path = str(tmp_path / "map.json")
        code, out = run(capsys, "build-map",
                        "--spec", str(tmp_path / "spec.json"),
                        "--hub", str(tmp_path / "hub.json"),
                        "--spoke", str(tmp_path / "spoke.json"),
                        "--out", out_path)
        assert code == 0
        saved = json.loads(open(out_path).read())
        assert len(saved["table"]) == 11

    @pytest.mark.parametrize("spec", [
        {"p": float("nan")},
        {"p": float("inf")},
        {"gA": [[float("nan"), 0.0]], "gB": [[1.0, 0.0]]},
        {"gA": [[1.0, 0.0]], "gB": [[1.0, float("inf")]]},
        {"lambda": float("nan")},
        {"lambda": float("inf"), "u": {"kind": "linear", "coeffs": [1, 0]}},
        {"lambda": 1.0, "u": {"kind": "linear", "coeffs": [float("nan"), 0]}},
        {"lambda": 1.0, "u": {"kind": "neg_fee", "functional": [float("inf"), 0]}},
        {"lambda": 1.0, "u": {"kind": "quadratic", "center": [0.5, 0.5],
                              "scale": float("nan")}},
        {"lambda": 1.0, "u": {"kind": "quadratic", "center": [float("nan"), 0.5]}},
    ])
    def test_build_map_non_finite_objective_exit_two(self, capsys, tmp_path, spec):
        space = {"n": 1, "N": 10, "constraints": []}
        for name, doc in [("spec", spec), ("hub", space), ("spoke", space)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = main(["build-map", "--spec", str(tmp_path / "spec.json"),
                     "--hub", str(tmp_path / "hub.json"),
                     "--spoke", str(tmp_path / "spoke.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestStochasticCommands:
    def test_kernel_radius(self, capsys):
        code, out = run(capsys, "kernel", "--shape", "gaussian", "--sigma", "0.03",
                        "--hub", "0.45,0.30,0.25", "--n", "4000", "--seed", "42",
                        "--epsilon", "0.05")
        assert code == 0
        payload = json.loads(out)
        assert 0.063 <= payload["safety_radius"] <= 0.085

    def test_hs_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HS_SEED", "123")
        code, out = run(capsys, "kernel", "--n", "500")
        assert code == 0 and json.loads(out)["seed"] == 123

    def test_cure(self, capsys):
        code, out = run(capsys, "cure", "--constraint", "x1<=0.5",
                        "--n", "2000", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["violation_rate"] < 0.1

    @pytest.mark.parametrize("argv", [
        ["kernel", "--sigma", "nan"],
        ["kernel", "--sigma", "inf"],
        ["kernel", "--hub", "nan,0.5,0.5"],
        ["cure", "--constraint", "x1<=0.5", "--weights", "1,1"],
        ["cure", "--constraint", "x1<=0.5", "--weights", "1,1,1,1"],
        ["cure", "--constraint", "x1<=0.5", "--weights", "nan,1,1"],
    ])
    def test_invalid_kernel_or_weights_exit_two(self, capsys, argv):
        code = main(argv + ["--n", "200"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["compare", "--scenario", "gaussian", "--constraint", "x1>=2"],
        ["cure", "--constraint", "x1>=2"],
    ])
    def test_empty_constraint_space_exit_two(self, capsys, argv):
        code = main(argv + ["--n", "200"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["compare", "--scenario", "all"],
        ["compare", "--scenario", "banana"],
        ["kernel"],
        ["cure", "--constraint", "x1<=0.5"],
    ])
    def test_sample_budget_exit_two(self, capsys, monkeypatch, argv):
        import hubspoke.cli as cli

        def refuse(*a, **kw):
            raise AssertionError("sampled past the budget")

        monkeypatch.setattr(cli, "sample_kernel", refuse)
        monkeypatch.setattr("hubspoke.stochastic.sample_kernel", refuse)
        code = main(argv + ["--n", "100000000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "samples exceed" in captured.err and captured.err.count("\n") == 1

    def test_lattice_cure_budget_exit_two(self, capsys, monkeypatch):
        # every sample of the default hub violates x1 + x2 <= 0.5, whose
        # 1/100 lattice has 1326 points: 200 x 1326 x 3 cells
        monkeypatch.setattr("hubspoke.stochastic.MAX_CURE_CELLS", 200 * 1326 * 3 - 1)
        code = main(["cure", "--constraint", "1,1,0<=0.5", "--n", "200"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceeds the supported 795599 cells" in captured.err
        assert captured.err.count("\n") == 1

    def test_compare_computes_no_density(self, capsys, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("kde_density called")

        monkeypatch.setattr("hubspoke.stochastic.kde_density", refuse)
        code, out = run(capsys, "compare", "--scenario", "all", "--n", "500")
        assert code == 0 and len(json.loads(out)) == 3

    def test_kernel_output_pinned(self, capsys):
        code, out = run(capsys, "kernel", "--shape", "banana", "--hub", "0.32,0.34,0.34",
                        "--constraint", "x1<=0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["eroded_count"] == 698 and payload["hub_accepted"] is False
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cb8dc5ee0df8c50f2a28fbebc677071999ba167e77783f1cad68607035174ac5")

    def test_erosion_budget_exit_two(self, capsys, monkeypatch):
        # x1 <= 0.4 at 1/50: 861 points against 465 violators, 3 coordinates each
        monkeypatch.setattr("hubspoke.stochastic.MAX_EROSION_CELLS", 861 * 465 * 3 - 1)
        code = main(["kernel", "--shape", "banana", "--hub", "0.32,0.34,0.34",
                     "--constraint", "x1<=0.4", "--n", "500"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "erosion of 861 points by 465 violators exceeds the supported " \
               "1201094 cells" in captured.err
        assert captured.err.count("\n") == 1

    def test_kernel_enumerates_the_lattice_once(self, capsys, monkeypatch):
        import hubspoke.cli as cli

        calls = []
        real = cli.enumerate_simplex
        counting = lambda *a: calls.append(a) or real(*a)
        monkeypatch.setattr(cli, "enumerate_simplex", counting)
        monkeypatch.setattr("hubspoke.stochastic.enumerate_simplex", counting)
        code, out = run(capsys, "kernel", "--shape", "banana", "--hub", "0.32,0.34,0.34",
                        "--constraint", "x1<=0.4", "--n", "500")
        assert code == 0 and "eroded_count" in json.loads(out)
        assert calls == [(2, 50)]

    def test_compare_single_scenario(self, capsys):
        code, out = run(capsys, "compare", "--scenario", "banana",
                        "--constraint", "x1<=0.4", "--n", "2000", "--seed", "42")
        assert code == 0
        row = json.loads(out)[0]
        assert row["safety_radius"]["verdict"] == "Rejected"
        assert row["hdr"]["verdict"] == "Safe"
        assert row["wasserstein"]["verdict"] == "Approved"


class TestWorkflowCommand:
    def _registry(self, tmp_path):
        reg_path = tmp_path / "reg.json"
        reg = {
            "objects": {
                "hub": {"n": 2, "N": 20,
                        "constraints": [parse_constraint("x1<=0.6", 3).to_dict()]},
                "amb": {"n": 2, "N": 20, "constraints": []},
            },
            "hmorphisms": {
                "f1": {"rule": "affine", "matrix": np.eye(3).tolist(),
                       "offset": [0, 0, 0], "domain": "hub", "codomain": "amb",
                       "name": "f1"},
            },
            "vmorphisms": {
                "r1": {"kind": "track", "params": {"epsilon": 0.1},
                       "domain": "hub", "codomain": "amb"},
            },
        }
        reg_path.write_text(json.dumps(reg))
        return str(reg_path)

    def test_workflow_a_commit_exit_zero(self, capsys, tmp_path):
        reg = self._registry(tmp_path)
        ledger = str(tmp_path / "ledger.jsonl")
        code, out = run(capsys, "workflow", "a", "--registry", reg,
                        "--ledger", ledger, "--map", "f1", "--relation", "r1",
                        "--hub", "0.3,0.5,0.2")
        assert code == 0
        assert json.loads(out)["verdict"] == "committed"
        assert os.path.exists(ledger)

    def test_workflow_a_unknown_map_exit_two(self, capsys, tmp_path):
        reg = self._registry(tmp_path)
        code = main(["workflow", "a", "--registry", reg,
                     "--ledger", str(tmp_path / "l.jsonl"),
                     "--map", "ghost", "--relation", "r1",
                     "--hub", "0.3,0.5,0.2"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["workflow", "a", "--hub", "nan,0.5,0.5"],
        ["workflow", "a", "--hub", "inf,0,0"],
        ["workflow", "a", "--hub", "0.3,abc,0.2"],
        ["kernel", "--hub", "0.3,abc"],
        ["cure", "--constraint", "x1<=0.5", "--hub", "0.3,abc"],
    ])
    def test_malformed_hub_exit_two(self, capsys, tmp_path, argv):
        reg = self._registry(tmp_path)
        ledger = tmp_path / "l.jsonl"
        assert main(["workflow", "a", "--registry", reg, "--ledger", str(ledger),
                     "--map", "f1", "--relation", "r1", "--hub", "0.3,0.5,0.2"]) == 0
        before = (open(reg, "rb").read(), ledger.read_bytes())
        capsys.readouterr()
        if argv[0] == "workflow":
            argv = argv + ["--registry", reg, "--ledger", str(ledger),
                           "--map", "f1", "--relation", "r1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert (open(reg, "rb").read(), ledger.read_bytes()) == before

    def test_workflow_c_registers(self, capsys, tmp_path):
        reg = self._registry(tmp_path)
        obj = tmp_path / "objective.json"
        obj.write_text(json.dumps({"kind": "neg_fee", "functional": [10, 5, 0]}))
        code, out = run(capsys, "workflow", "c", "--registry", reg,
                        "--ledger", str(tmp_path / "l.jsonl"),
                        "--relation", "r1", "--objective", str(obj),
                        "--new-map", "f_new", "--new-object", "k_new")
        assert code == 0
        saved = json.loads(open(reg).read())
        assert "f_new" in saved["hmorphisms"] and "k_new" in saved["objects"]

    @pytest.mark.parametrize("objective", [
        {"kind": "quadratic", "center": [float("nan"), 0.3, 0.3]},
        {"kind": "quadratic", "center": [0.3, 0.3, 0.3], "scale": float("inf")},
        {"kind": "linear", "coeffs": [1.0, float("-inf"), 0.0]},
        {"kind": "neg_fee", "functional": [10, float("nan"), 0]},
    ])
    def test_workflow_c_non_finite_objective_exit_two(self, capsys, tmp_path, objective):
        reg = self._registry(tmp_path)
        ledger = tmp_path / "l.jsonl"
        assert main(["workflow", "a", "--registry", reg, "--ledger", str(ledger),
                     "--map", "f1", "--relation", "r1", "--hub", "0.3,0.5,0.2"]) == 0
        before = (open(reg, "rb").read(), ledger.read_bytes())
        obj = tmp_path / "objective.json"
        obj.write_text(json.dumps(objective))
        capsys.readouterr()
        code = main(["workflow", "c", "--registry", reg, "--ledger", str(ledger),
                     "--relation", "r1", "--objective", str(obj),
                     "--new-map", "f_new", "--new-object", "k_new"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert (open(reg, "rb").read(), ledger.read_bytes()) == before

    @pytest.mark.parametrize("argv,named", [
        (["menu", "--hub", "{missing}"], "missing.json"),
        (["menu", "--template", "core-satellite", "--inputs", "{missing}", "{missing}"],
         "missing.json"),
        (["build-map", "--spec", "{missing}", "--hub", "{hub}", "--spoke", "{hub}"],
         "missing.json"),
        (["verify", "--law", "adjunction", "--fixture", "{missing}"], "missing.json"),
        (["workflow", "b", "--relation-def", "{missing}", "--hub-object", "hub"],
         "missing.json"),
        (["workflow", "c", "--objective", "{missing}", "--relation", "r1",
          "--new-map", "f_new", "--new-object", "k_new"], "missing.json"),
        (["menu", "--hub", "{not_json}"], "not.json"),
        (["menu", "--hub", "{no_N}"], "'N'"),
        (["menu", "--template", "core-satellite", "--inputs", "{hub}", "{no_N}"], "'N'"),
        (["build-map", "--spec", "{hub}", "--hub", "{hub}", "--spoke", "{no_N}"], "'N'"),
        (["cure", "--constraint", "x1<=0.5", "--weights", "a,b,c"], "--weights"),
    ], ids=["menu_hub_missing", "template_inputs_missing", "build_map_spec_missing",
            "verify_fixture_missing", "workflow_b_missing", "workflow_c_missing",
            "menu_hub_not_json", "menu_hub_without_N", "template_input_without_N",
            "build_map_spoke_without_N", "cure_weights_not_floats"])
    def test_unreadable_input_exit_two(self, capsys, tmp_path, argv, named):
        reg = self._registry(tmp_path)
        ledger = tmp_path / "l.jsonl"
        assert main(["workflow", "a", "--registry", reg, "--ledger", str(ledger),
                     "--map", "f1", "--relation", "r1", "--hub", "0.3,0.5,0.2"]) == 0
        before = (open(reg, "rb").read(), ledger.read_bytes())
        (tmp_path / "not.json").write_text("n = 2, N = 10")
        (tmp_path / "no_N.json").write_text(json.dumps({"n": 2}))
        (tmp_path / "hub.json").write_text(json.dumps({"n": 2, "N": 10}))
        paths = {"missing": tmp_path / "missing.json", "not_json": tmp_path / "not.json",
                 "no_N": tmp_path / "no_N.json", "hub": tmp_path / "hub.json"}
        argv = [a.format(**paths) for a in argv]
        if argv[0] == "workflow":
            argv += ["--registry", reg, "--ledger", str(ledger)]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err
        assert (open(reg, "rb").read(), ledger.read_bytes()) == before
