"""Command-line entry point: `corsim run ...`."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adversary import INJECT_MODES, POLICIES
from .env import make_params, params_validate
from .harness import CORES, ConfigError, TrialConfig, emit, run_ensemble


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corsim",
        description="Deterministic lock-step simulator for Byzantine-tolerant "
        "self-stabilizing consensus object recycling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute seeded trials and emit a CSV")
    run.add_argument("--config", help="flat JSON config file; CLI flags override it")
    run.add_argument("--n", type=int)
    run.add_argument("--t", type=int)
    run.add_argument("--log-size", type=int, dest="log_size")
    run.add_argument("--index-num", type=int, dest="index_num")
    run.add_argument("--kappa", type=int)
    run.add_argument("--rounds", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--adversary", choices=[name.replace("_", "-") for name in POLICIES])
    run.add_argument("--inject", choices=INJECT_MODES)
    run.add_argument("--core", choices=CORES)
    run.add_argument("--dmax", type=int)
    run.add_argument(
        "--no-recycling",
        action="store_const",
        const=False,
        dest="recycling",
        help="keep slot 0 active forever instead of recycling",
    )
    run.add_argument(
        "--log-traffic",
        action="store_const",
        const=True,
        dest="log_traffic",
        help="record every delivered envelope in the trace (see --trace)",
    )
    run.add_argument("--out", help="CSV output path")
    run.add_argument("--trace", action="store_true", help="write per-trial trace files")
    run.add_argument(
        "--strict",
        action="store_true",
        help="nonzero exit on any post-stabilization violation or unstabilized trial",
    )
    return parser


DEFAULTS = {
    "n": 4,
    "t": 1,
    "log_size": 3,
    "index_num": 8,
    "kappa": None,
    "rounds": 250,
    "trials": 1,
    "seed": 1,
    "adversary": "silent",
    "inject": "none",
    "core": "stub",
    "dmax": 3,
    "recycling": True,
    "log_traffic": False,
    "out": None,
}


# options that take a string or a boolean; every other option takes an integer
STR_KEYS = ("adversary", "inject", "core", "out")
BOOL_KEYS = ("recycling", "log_traffic")


def resolve_options(args: argparse.Namespace) -> dict:
    options = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as err:
            raise ConfigError([f"cannot read config {args.config}: {err}"]) from err
        if not isinstance(loaded, dict):
            raise ConfigError(["config must be a JSON object"])
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ConfigError([f"unknown config keys: {sorted(unknown)}"])
        options.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    check_options(options)
    return options


def check_options(options: dict) -> None:
    """Reject values of the wrong type."""
    problems = []
    for key, value in options.items():
        if value is None and DEFAULTS[key] is None:
            continue  # kappa and out may stay unset
        if key in STR_KEYS:
            if not isinstance(value, str):
                problems.append(f"{key} must be a string (got {value!r})")
        elif key in BOOL_KEYS:
            if not isinstance(value, bool):
                problems.append(f"{key} must be a boolean (got {value!r})")
        elif not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{key} must be an integer (got {value!r})")
    if problems:
        raise ConfigError(problems)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = resolve_options(args)
        params = make_params(
            n=options["n"],
            t=options["t"],
            log_size=options["log_size"],
            index_num=options["index_num"],
            kappa=options["kappa"],
            seed=options["seed"],
        )
        config = TrialConfig(
            params=params,
            rounds=options["rounds"],
            adversary=options["adversary"].replace("-", "_"),
            inject=options["inject"],
            core=options["core"],
            dmax=options["dmax"],
            recycling=options["recycling"],
            log_traffic=options["log_traffic"],
        )
        results = run_ensemble(config, options["trials"])
    except ConfigError as err:
        print("invalid configuration:", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    for warning in params_validate(params).warnings:
        print(f"warning: {warning}", file=sys.stderr)

    trace_dir = None
    if args.trace:
        if options["out"]:
            trace_dir = os.path.dirname(options["out"]) or "."
        else:
            trace_dir = "."
    try:
        summary, exit_code = emit(
            results, options["out"], strict=args.strict, trace_dir=trace_dir
        )
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    print(summary)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
