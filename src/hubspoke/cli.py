"""The `hs` command line: enumeration, law verification, menus, kernels,
cure costs, the three-way comparison, workflows, and the acceptance suite.

Exit codes follow the verification conventions: 0 for pass/committed,
1 for violated/rejected, 2 for usage or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import acceptance
from .audit import EvidenceLedger, Registry, run_workflow
from .dots import Menu, WiringTemplate, action, apply_template
from .geometry import (
    InvalidArgument,
    LatticeSpace,
    LinearConstraint,
    LinearFunctional,
    enumerate_simplex,
    parse_constraint,
    parse_step,
    restrict,
)
from .optimize import Infeasible, ObjectiveSpec, build_metric_reimpl
from .relations import build_relation
from .stochastic import (
    KernelSpec,
    builtin_scenarios,
    comparison_table,
    metric_pullback_check,
    sample_kernel,
    safety_radius,
    three_way_compare,
    wasserstein_cure,
)
from .transport import closure_fix_demo
from . import fixtures

DEFAULT_FEE = LinearFunctional((10, 5, 0), units="bps")
SPACE_KEYS = ("n", "N")


def _env_seed(args_seed):
    if args_seed is not None:
        return args_seed
    return int(os.environ.get("HS_SEED", "42"))


def _read_json(path: str, keys: tuple = ()):
    """The JSON document in a file, which must hold `keys`; a missing,
    unreadable or malformed file is an InvalidArgument."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise InvalidArgument(f"cannot read JSON from {path}: {e}") from None
    for key in keys:
        if key not in doc:
            raise InvalidArgument(f"{path} has no {key!r} key")
    return doc


def _emit(payload, fmt="json"):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(payload)


def cmd_enumerate(args) -> int:
    N = parse_step(args.step)
    space = enumerate_simplex(args.dim, N)
    if args.constraint:
        cons = [parse_constraint(c, args.dim + 1) for c in args.constraint]
        space = restrict(space, cons)
    print(f"{len(space)} lattice points")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in space.holdings.tolist():
                fh.write(",".join(str(c / N) for c in row) + "\n")
        print(f"points written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    report = fixtures.run_law(args.law, _read_json(args.fixture) if args.fixture else None)
    _emit(report.to_dict())
    return 0 if report.holds else 1


def cmd_demo(args) -> int:
    rep = closure_fix_demo(args.which, closed_hub=args.closed_hub)
    print(f"closure-fix counterexample ({args.which}):")
    print(f"  LHS (filter first, then push + close): {rep.detail['lhs'] or '{}'}")
    print(f"  RHS (push + close first, then filter): {rep.detail['rhs'] or '{}'}")
    print(f"  law holds: {rep.holds}")
    if not rep.holds:
        print(f"  phantom witness: {rep.witnesses[0]}")
    return 0 if rep.holds else 1


def cmd_build_map(args) -> int:
    spec = ObjectiveSpec.from_dict(_read_json(args.spec))
    hub = LatticeSpace.from_dict(_read_json(args.hub, SPACE_KEYS))
    spoke = LatticeSpace.from_dict(_read_json(args.spoke, SPACE_KEYS))
    f = build_metric_reimpl(hub, spoke, spec)
    table = {",".join(map(str, h)): y for h, y in zip(hub.holdings.tolist(),
                                                    spoke.holdings[f.img].tolist())}
    payload = {"rule": "lattice_argmin", "domain": hub.to_dict(),
               "codomain": spoke.to_dict(), "table": table}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"map written to {args.out} ({len(table)} hub points)")
    else:
        _emit(payload)
    return 0


def _parse_apply(token: str, space: LatticeSpace):
    parts = token.split(":")
    kind = parts[0]
    try:
        if kind == "track":
            params = {"epsilon": float(parts[1])}
        elif kind == "turnover":
            params = {"kappa": float(parts[1])}
        elif kind == "fee_cap":
            fee = DEFAULT_FEE
            if len(parts) > 2:
                fee = LinearFunctional(tuple(float(c) for c in parts[2].split(",")))
            params = {"tau": float(parts[1]), "functional": fee}
        elif kind == "liquidity_cap":
            params = {"alpha": float(parts[1]),
                      "illiquid": tuple(int(i) for i in parts[2].split(","))}
        else:
            params = None
    except (IndexError, ValueError):
        params = None
    if params is None:
        raise InvalidArgument(f"cannot parse --apply {token!r}")
    return build_relation(space, space, kind, **params)


def cmd_menu(args) -> int:
    if args.template:
        if args.template != "core-satellite":
            raise InvalidArgument("only the core-satellite template is wired to the CLI")
        if len(args.inputs) != 2:
            raise InvalidArgument("the core-satellite template takes two --inputs")
        inputs = [LatticeSpace.from_dict(_read_json(path, SPACE_KEYS)) for path in args.inputs]
        out = enumerate_simplex(inputs[0].n, inputs[0].N)
        menu = apply_template(WiringTemplate.core_satellite(args.w, out), inputs)
    else:
        if not args.hub:
            raise InvalidArgument("menu needs --hub or --template")
        hub_dict = _read_json(args.hub, SPACE_KEYS)
        if "points" in hub_dict:
            hub = LatticeSpace.from_dict(hub_dict)
            ambient = enumerate_simplex(hub.n, hub.N)
        else:
            # One enumeration serves the ambient lattice and the hub it bounds.
            ambient = enumerate_simplex(hub_dict["n"], hub_dict["N"])
            hub = restrict(ambient, [LinearConstraint.from_dict(c)
                                     for c in hub_dict.get("constraints", [])])
        menu = Menu(hub, np.ones(len(hub), dtype=bool))
        for token in args.apply or []:
            menu = action(menu, _parse_apply(token, ambient))
    print(f"menu: {len(menu)} points")
    print("provenance: " + " | ".join(menu.provenance))
    if args.format == "csv":
        for row in menu.space.holdings[menu.mask].tolist():
            print(",".join(str(c / menu.space.N) for c in row))
    return 0


def _parse_weights(text: str, option: str = "--hub") -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InvalidArgument(f"{option} {text!r} is not comma-separated weights") from None


def _cloud_from_args(args):
    seed = _env_seed(args.seed)
    spec = KernelSpec(shape=args.shape, sigma=args.sigma,
                      n_samples=args.n, seed=seed)
    hub = _parse_weights(args.hub)
    return spec, hub, sample_kernel(spec, hub)


def cmd_kernel(args) -> int:
    spec, hub, cloud = _cloud_from_args(args)
    rad = safety_radius(cloud, hub, args.epsilon)
    payload = {"shape": spec.shape, "sigma": spec.sigma, "hub": list(hub),
               "n_samples": spec.n_samples, "seed": spec.seed,
               "epsilon": args.epsilon, "safety_radius": rad.r}
    if args.constraint:
        amb = enumerate_simplex(len(hub) - 1, 50)
        S = restrict(amb, [parse_constraint(args.constraint, len(hub))])
        check = metric_pullback_check(S, rad.r, hub, ambient=amb)
        payload["eroded_count"] = int(check.eroded.sum())
        payload["hub_accepted"] = check.accepted
    _emit(payload)
    return 0


def cmd_cure(args) -> int:
    spec, hub, cloud = _cloud_from_args(args)
    amb = enumerate_simplex(len(hub) - 1, args.lattice_n)
    S = restrict(amb, [parse_constraint(args.constraint, len(hub))])
    tau = _parse_weights(args.weights, "--weights") if args.weights else None
    cure = wasserstein_cure(cloud, S, tau=tau)
    payload = {"constraint": args.constraint, "violation_rate": cure.violation_rate,
               "mean_cost": cure.mean_cost,
               "mean_violation_cost": cure.mean_violation_cost}
    if args.format == "csv":
        print("sample_index,cost")
        for i, c in enumerate(cure.per_sample):
            print(f"{i},{c}")
    else:
        _emit(payload)
    return 0


def cmd_compare(args) -> int:
    seed = _env_seed(args.seed)
    if args.scenario == "all":
        rows = comparison_table(seed=seed, n_samples=args.n)
    else:
        scen = builtin_scenarios(seed=seed, n_samples=args.n)[args.scenario]
        rows = [three_way_compare(scen, constraint=args.constraint,
                                  epsilon=args.epsilon)]
    _emit([r.to_dict() for r in rows])
    return 0


def cmd_workflow(args) -> int:
    registry = Registry.load(args.registry) if os.path.exists(args.registry) else Registry()
    ledger = EvidenceLedger(args.ledger)
    try:
        if args.kind == "a":
            hub = _parse_weights(args.hub)
            entry = run_workflow("A", registry, ledger, map_id=args.map,
                                 relation_id=args.relation, hub=hub)
        elif args.kind == "b":
            entry = run_workflow("B", registry, ledger,
                                 relation_def=_read_json(args.relation_def),
                                 hub_object=args.hub_object,
                                 pipeline=args.pipeline or [],
                                 full_sweep=args.full_sweep)
        else:
            entry = run_workflow("C", registry, ledger, relation_id=args.relation,
                                 objective=_read_json(args.objective),
                                 map_id=args.new_map,
                                 new_object_id=args.new_object)
            registry.save(args.registry)
        _emit(entry.to_dict())
        return 0 if entry.verdict == "committed" else 1
    except (InvalidArgument, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def cmd_acceptance(args) -> int:
    results = acceptance.run_all(verbose=True)
    return 0 if all(ok for _, ok, _ in results) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hs", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate a permissible space")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--step", required=True, help="lattice step, e.g. 1/100")
    p.add_argument("--constraint", action="append",
                   help="'a0,a1,a2<=b' or 'x1<=0.6' (repeatable)")
    p.add_argument("--out", help="write points as CSV")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="verify a coherence law on a fixture")
    p.add_argument("--law", required=True,
                   choices=["adjunction", "frobenius", "functoriality",
                            "lax-bc", "strict-bc"])
    p.add_argument("--fixture", help="fixture JSON (default: built-in)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("what", choices=["closure-fix"])
    p.add_argument("--which", choices=["frobenius", "bc"],
                   default="frobenius", help="which law to break")
    p.add_argument("--closed-hub", action="store_true",
                   help="restore the endpoint and watch the laws hold")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("build-map", help="build a metric re-implementation map")
    p.add_argument("--spec", required=True)
    p.add_argument("--hub", required=True)
    p.add_argument("--spoke", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build_map)

    p = sub.add_parser("menu", help="apply relations to a hub and report the menu")
    p.add_argument("--hub", help="hub space JSON")
    p.add_argument("--apply", action="append", help="track:0.05, fee_cap:6, ...")
    p.add_argument("--template", help="core-satellite")
    p.add_argument("--w", type=float, default=0.5)
    p.add_argument("--inputs", nargs="*", default=[])
    p.add_argument("--format", choices=["count", "csv"], default="count")
    p.set_defaults(fn=cmd_menu)

    p = sub.add_parser("kernel", help="sample a kernel and report the safety radius")
    _kernel_args(p)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--constraint", help="erode this constraint at 1/50")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("cure", help="Wasserstein cure cost against a constraint")
    _kernel_args(p)
    p.add_argument("--constraint", required=True)
    p.add_argument("--weights", help="per-asset transaction costs")
    p.add_argument("--lattice-n", type=int, default=100)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_cure)

    p = sub.add_parser("compare", help="three-way compliance comparison")
    p.add_argument("--scenario", default="all",
                   choices=["all", "gaussian", "split_peak", "banana"])
    p.add_argument("--constraint")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("workflow", help="run workflow A, B or C")
    p.add_argument("kind", choices=["a", "b", "c"])
    p.add_argument("--registry", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--map", help="A: registered map id")
    p.add_argument("--relation", help="A/C: registered relation id")
    p.add_argument("--hub", help="A: hub weights, comma separated")
    p.add_argument("--relation-def", help="B: new relation JSON file")
    p.add_argument("--hub-object", help="B: registered hub object id")
    p.add_argument("--pipeline", nargs="*", help="B: relation ids applied before the new one")
    p.add_argument("--full-sweep", action="store_true")
    p.add_argument("--objective", help="C: objective JSON file")
    p.add_argument("--new-map", help="C: id for the constructed map")
    p.add_argument("--new-object", help="C: id for the constructed spoke object")
    p.set_defaults(fn=cmd_workflow)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    p.set_defaults(fn=cmd_acceptance)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidArgument, Infeasible) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _kernel_args(p):
    p.add_argument("--shape", default="gaussian",
                   choices=["gaussian", "bimodal", "banana"])
    p.add_argument("--sigma", type=float, default=0.03)
    p.add_argument("--hub", default="0.45,0.30,0.25")
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--seed", type=int)


if __name__ == "__main__":
    sys.exit(main())
