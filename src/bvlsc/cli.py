"""Command-line scenario runner.

Subcommands:
    analyze   <config>   run the configured checks, write report.json
    liminf    <config>   sequence cross-validation only
    decompose <config>   decomposition suite only
    recession <config>   recession-function and deviation-modulus estimates

<config> is a JSON file path or the name of a bundled scenario (see
`bvlsc list`).  Identical config + seed produces byte-identical report.json.
"""

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = ["main", "bundled_scenarios", "resolve_config"]


def bundled_scenarios():
    out = {}
    for entry in resources.files("bvlsc.scenarios").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out


def resolve_config(name_or_path):
    p = Path(name_or_path)
    if p.exists():
        return p
    bundles = bundled_scenarios()
    if name_or_path in bundles:
        return bundles[name_or_path]
    raise FileNotFoundError(
        f"no config file {name_or_path!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(sorted(bundles))})"
    )


def _add_common(p):
    p.add_argument("config", help="config file path or bundled scenario name")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default=None, help="output directory")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="bvlsc",
        description="Lower-semicontinuity checks for linear-growth functionals on BV",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("analyze", "run the configured checks and write the verdict report"),
        ("liminf", "empirical liminf along the configured sequence"),
        ("decompose", "decomposition suite for the configured sequence/cover"),
        ("recession", "recession and deviation-modulus estimates"),
    ):
        # options only as spelled: an abbreviation such as --h for --help
        # would pass for an option a subcommand does not take
        p = sub.add_parser(name, help=desc, allow_abbrev=False)
        _add_common(p)
        if name != "recession":  # the recession estimates use no mesh
            p.add_argument("--h", type=float, default=None, help="override mesh sizes")
    sub.add_parser("list", help="list bundled scenarios")
    return parser.parse_args(argv)


# the checks a subcommand runs; every other check is off
_ONLY = {"liminf": ("qslb", "sequences"), "decompose": ("decomposition",)}


def _recession_report(config_path, out_dir, seed):
    from .integrands import mu_estimate, recession_estimate
    from .minimize import SolverBudgetError
    from .verdict import Scenario, check_mu_work, write_new

    scenario = Scenario.load(config_path)
    if scenario is None:
        return 2
    if seed is not None:
        scenario.seed = seed
    f = scenario.integrand
    finf = scenario.recession
    t_values = (0.0, 1.0, 10.0, 1e3, 1e6)
    try:
        check_mu_work(f, t_values)
    except SolverBudgetError as e:
        print(f"config error: {e}")
        return 2
    rng = np.random.default_rng(scenario.seed)
    rows = []
    for _ in range(20):
        xi = rng.normal(size=(f.M, f.N))
        x = np.zeros(f.N)
        est = recession_estimate(f, x, xi)
        rows.append({
            "xi": xi.tolist(),
            "estimate": est.value,
            "rate": est.rate,
            "analytic": finf.at(x, xi),
            "joint_stability": est.joint_stability,
        })
    mu_rows = [mu_estimate(f, finf, t, seed=scenario.seed) for t in t_values]
    report = {"integrand": f.tag, "recession_samples": rows, "mu_table": mu_rows}
    out = Path(out_dir) if out_dir else Path.cwd() / f"out_{scenario.name}"
    write_new(out, ("recession.json",),
              {"recession.json": json.dumps(report, sort_keys=True) + "\n"})
    print(f"{scenario.name}: recession report -> {out / 'recession.json'}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.command == "list":
        for name in sorted(bundled_scenarios()):
            print(name)
        return 0
    try:
        config = resolve_config(args.config)
    except FileNotFoundError as e:
        print(e)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"config error: --seed must be non-negative, got {args.seed}")
        return 2

    if args.command == "recession":
        return _recession_report(config, args.out_dir, args.seed)

    from .verdict import run_scenario

    code, _ = run_scenario(config, out_dir=args.out_dir, seed=args.seed, h=args.h,
                           only=_ONLY.get(args.command))
    return code


if __name__ == "__main__":
    sys.exit(main())
