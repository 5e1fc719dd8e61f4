"""Command-line entry point: `corsim run ...`."""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import fields

from .adversary import INJECT_MODES, POLICIES
from .env import make_params
from .harness import CORES, ConfigError, TrialConfig, stream_ensemble, summarize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corsim",
        description="Deterministic lock-step simulator for Byzantine-tolerant "
        "self-stabilizing consensus object recycling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute seeded trials and emit a CSV")
    run.add_argument("--config", help="flat JSON config file; CLI flags override it")
    for key, kind in KINDS.items():
        if kind is int:
            run.add_argument("--" + key.replace("_", "-"), type=int, dest=key)
    run.add_argument("--adversary", choices=[name.replace("_", "-") for name in POLICIES])
    run.add_argument("--inject", choices=INJECT_MODES)
    run.add_argument("--core", choices=CORES)
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
        help="record every delivered envelope in the trace; needs --trace",
    )
    run.add_argument("--out", help="CSV output path")
    run.add_argument("--trace", action="store_true", help="write per-trial trace files")
    run.add_argument(
        "--strict",
        action="store_true",
        help="nonzero exit on any post-stabilization violation or unstabilized trial",
    )
    return parser


# Every `corsim run` option and its default; the trial's own options take
# theirs from TrialConfig. An option's type is its default's; kappa and out
# default to None, meaning unset, and are an integer and a string.
TRIAL_DEFAULTS = {f.name: f.default for f in fields(TrialConfig) if f.name != "params"}
DEFAULTS = {
    "n": 4,
    "t": 1,
    "log_size": 3,
    "index_num": 8,
    "kappa": None,
    "trials": 1,
    "seed": 1,
    "out": None,
    **TRIAL_DEFAULTS,
}
KINDS = {key: type(value) for key, value in DEFAULTS.items()} | {"kappa": int, "out": str}
KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}
# the options that make_params takes
PARAM_KEYS = tuple(inspect.signature(make_params).parameters)


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
        kind = KINDS[key]
        # bool is a subclass of int, but True is not an integer option value
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            problems.append(f"{key} must be {KIND_NAMES[kind]} (got {value!r})")
    if problems:
        raise ConfigError(problems)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = resolve_options(args)
        params = make_params(**{key: options[key] for key in PARAM_KEYS})
        trial = {key: options[key] for key in TRIAL_DEFAULTS}
        trial["adversary"] = trial["adversary"].replace("-", "_")
        config = TrialConfig(params=params, **trial)
        config.check()
        if args.strict and config.rounds < 2 * params.kappa:
            # the first cycle end with a phase-0 sample to check validity
            # against is round 2*kappa-1
            raise ConfigError([
                f"--strict needs rounds >= 2*kappa = {2 * params.kappa} to check "
                f"validity (got rounds={config.rounds})"
            ])
        if config.log_traffic and not args.trace:
            raise ConfigError(["log_traffic needs --trace: the traffic log is written only "
                               "into the trace files"])
        # the CSV's directory, also the trace directory, must exist, and the
        # CSV must not be a directory, before any trial runs
        out_dir = os.path.dirname(options["out"] or "") or "."
        if not os.path.isdir(out_dir):
            print(f"cannot write output: no directory {out_dir!r}", file=sys.stderr)
            return 2
        if options["out"] and os.path.isdir(options["out"]):
            print(f"cannot write output: {options['out']!r} is a directory", file=sys.stderr)
            return 2
        # each trace file is written as its trial ends, and only the metrics are kept
        results = stream_ensemble(config, options["trials"], out_dir if args.trace else None)
        summary, exit_code = summarize(results, options["out"], strict=args.strict)
    except ConfigError as err:
        print("invalid configuration:", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    print(summary)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
