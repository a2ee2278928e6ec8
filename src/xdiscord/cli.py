"""Command-line front end.

Subcommands: discord (closed-form breakdown + nullity verdict as JSON),
evolve (CSV time series), zeros (JSON list of zero-discord events), verify
(master-equation and measurement-search cross-checks), preset (list bundled
scenarios). Exit codes: 0 success, 2 invalid physical state, 3 config/parse
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from dataclasses import replace

import numpy as np

from .discord import discord, minimize_numeric, nullity_check
from .dynamics import find_zeros, steady_coherence, steady_coherence_as_printed, trajectory
from .oracle import MAX_N_MAX, compare
from .presets import (
    MAX_SAMPLES,
    PRESETS,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_from_json,
    preset_config,
    state_to_dict,
)
from .sampling import random_xstate
from .xstate import InvalidStateError

#: Each `evolve` CSV column, in order, and the Trajectory attribute it prints.
CSV_SOURCES = {
    "lambda_t": "times",
    "rho11": "states.p1",
    "rho22": "states.p2",
    "rho33": "states.p3",
    "rho44": "states.p4",
    "abs_rho14": "states.r14",
    "abs_rho23": "states.r23",
    "mutual_info": "breakdowns.mutual_info",
    "c_m1": "breakdowns.c_m1",
    "c_m2": "breakdowns.c_m2",
    "classical_corr": "breakdowns.classical_corr",
    "discord": "breakdowns.discord",
    "concurrence": "breakdowns.concurrence",
}
CSV_COLUMNS = tuple(CSV_SOURCES)

PROPAGATOR_TOL = 1e-3
TRACE_TOL = 1e-8
CONSTANTS_TOL = 1e-6
SWEEP_GAP_TOL = 1e-2
SWEEP_LOG_LEVEL = 1e-4
NUMERIC_EXCESS_TOL = 1e-6
STEADY_TOL = 5e-4
#: Sample spacing of the master-equation check, about 0.1 up to the run's t_max.
VERIFY_SPACING = 0.1
#: Largest measurement sweep. The search works in fixed chunks, so the peak
#: is in `discord` on the whole batch and grows ~0.33 MB per 1,000 states: a
#: whole `verify` process peaks at ~40 MB RSS for 4,096 states and ~72 MB
#: for 100,000 (`ru_maxrss`).
MAX_SWEEP_STATES = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _write_out(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write_json(payload, out_path):
    # allow_nan=False: a non-finite number is refused, never printed as NaN.
    _write_out(json.dumps(payload, indent=2, allow_nan=False) + "\n", out_path)


def _resolve_config(args) -> tuple[RunConfig, str | None]:
    preset_name = getattr(args, "preset", None)
    config_path = getattr(args, "config", None)
    state_json = getattr(args, "state", None)
    sources = [s for s in (preset_name, config_path, state_json) if s]
    if len(sources) > 1:
        raise ConfigError("give exactly one of --preset, --config, --state")
    if preset_name:
        config = preset_config(preset_name)
    elif config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        config = config_from_json(text)
    elif state_json is not None:
        try:
            data = json.loads(state_json)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid state JSON: {exc}") from exc
        config = config_from_dict({"initial": data})
    else:
        raise ConfigError("one of --preset, --config, --state is required")
    # {RunConfig field: argparse dest of the flag that overrides it}
    flags = {"t_max": "t_max", "n_samples": "samples", "zero_threshold": "zero_threshold"}
    overrides = {field: getattr(args, dest, None) for field, dest in flags.items()}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    return config, preset_name


def _eq13_note(config: RunConfig):
    limit = steady_coherence(config.initial.r14, config.params)
    printed = steady_coherence_as_printed(config.initial.r14, config.params)
    print(
        f"steady |rho14|: long-time limit {limit:.7g}; "
        f"as-printed alternative {printed:.7g}",
        file=sys.stderr,
    )


def _field_dict(record) -> dict:
    """A dataclass of plain values as a {field: value} dict in field order
    (the order its __init__ sets them), without the deep copy of
    dataclasses.asdict."""
    return dict(vars(record))


def cmd_discord(args) -> int:
    config, _ = _resolve_config(args)
    state = config.initial
    payload = _field_dict(discord(state))
    payload["nullity"] = _field_dict(nullity_check(state))
    _write_json(payload, args.out)
    return 0


def cmd_evolve(args) -> int:
    # Imported on use: compiling it and building its tables takes a few ms
    # that no other command needs.
    from ._csvtext import csv_rows

    config, _ = _resolve_config(args)
    traj = trajectory(config.initial, config.params, config.t_max, config.n_samples)
    table = np.column_stack(operator.attrgetter(*CSV_SOURCES.values())(traj))
    _write_out(",".join(CSV_COLUMNS) + "\n" + csv_rows(table), args.out)
    if args.show_eq13_as_printed:
        _eq13_note(config)
    return 0


def cmd_zeros(args) -> int:
    config, _ = _resolve_config(args)
    traj = trajectory(config.initial, config.params, config.t_max, config.n_samples)
    payload = [_field_dict(event) for event in find_zeros(traj, config.zero_threshold)]
    _write_json(payload, args.out)
    if args.show_eq13_as_printed:
        _eq13_note(config)
    return 0


def _verify_propagator(config: RunConfig, n_max: int) -> dict:
    t_max = config.t_max
    if t_max < 0.0:
        raise ConfigError(f"t_max = {t_max!r} must be nonnegative")
    if n_max < 0:
        raise ConfigError(f"n_max = {n_max} must be nonnegative")
    if n_max > MAX_N_MAX:
        raise ConfigError(f"n_max = {n_max} exceeds {MAX_N_MAX}")
    if t_max / VERIFY_SPACING > MAX_SAMPLES - 1:
        raise ConfigError(
            f"t_max = {t_max!r} needs more than {MAX_SAMPLES} oracle samples "
            f"at spacing {VERIFY_SPACING}"
        )
    n_grid = max(int(round(t_max / VERIFY_SPACING)), 1) + 1
    out = {
        "t_max": t_max,
        "dt": t_max / (n_grid - 1),
        "n_max": n_max,
        "tolerance": PROPAGATOR_TOL,
        "trace_tolerance": TRACE_TOL,
        "constants_tolerance": CONSTANTS_TOL,
    }
    try:
        report = compare(config.initial, config.params, np.linspace(0.0, t_max, n_grid), n_max)
    except ValueError as exc:
        # A rejected cutoff or grid is a verification failure, not a
        # config error: the requested check cannot vouch for the analytics.
        out.update({"error": str(exc), "pass": False})
        return out
    out["pass"] = (
        report.max_deviation <= PROPAGATOR_TOL
        and report.max_trace_drift <= TRACE_TOL
        and report.p1_drift <= CONSTANTS_TOL
        and report.p4_drift <= CONSTANTS_TOL
    )
    out.update((name, value) for name, value in vars(report).items() if name != "times")
    return out


def _verify_sweep(n_states: int, seed: int) -> dict:
    gaps = np.zeros(0)
    discrepancies = []
    interior = 0
    if n_states:  # an empty sweep draws nothing and runs neither kernel
        batch = random_xstate(np.random.default_rng(seed), n_states)
        br = discord(batch)
        theta, _, exact = minimize_numeric(batch)
        interior = int(np.count_nonzero((theta > 0.0) & (theta < np.pi / 4)))
        gaps = np.minimum(br.c_m1, br.c_m2) - exact
        discrepancies = [
            {"state": state_to_dict(batch.row(i)), "gap": float(gaps[i])}
            for i in np.flatnonzero(gaps > SWEEP_LOG_LEVEL)
        ]
    max_gap = float(np.max(gaps, initial=0.0))
    max_excess = 0.0 - float(np.min(gaps, initial=0.0))  # never -0.0
    ok = max_gap <= SWEEP_GAP_TOL and max_excess <= NUMERIC_EXCESS_TOL
    return {
        "n_states": n_states,
        "seed": seed,
        "max_gap": max_gap,
        "gap_tolerance": SWEEP_GAP_TOL,
        "numeric_above_closed_by": max_excess,
        "interior_optima": interior,
        "fraction_within_1e-4": (n_states - len(discrepancies)) / n_states if n_states else 1.0,
        "discrepancies": discrepancies,
        "pass": ok,
    }


def _verify_steady(config: RunConfig, preset_name) -> dict:
    r14 = config.initial.r14
    target = config.initial.r23
    limit = steady_coherence(r14, config.params)
    printed = steady_coherence_as_printed(r14, config.params)
    gate = preset_name == "fig3-separable"
    ok = (abs(limit - target) <= STEADY_TOL) if gate else True
    return {
        "initial_r14": r14,
        "long_time_limit": limit,
        "as_printed_alternative": printed,
        "target_r23": target,
        "limit_abs_error": abs(limit - target),
        "as_printed_abs_error": abs(printed - target),
        "tolerance": STEADY_TOL,
        "limit_matches_target": abs(limit - target) <= STEADY_TOL,
        "as_printed_matches_target": abs(printed - target) <= STEADY_TOL,
        "gating": gate,
        "pass": ok,
    }


def cmd_verify(args) -> int:
    config, preset_name = _resolve_config(args)
    if args.sweep_states < 0:
        raise ConfigError(f"sweep_states = {args.sweep_states} must be nonnegative")
    if args.sweep_states > MAX_SWEEP_STATES:
        raise ConfigError(f"sweep_states = {args.sweep_states} exceeds {MAX_SWEEP_STATES}")
    if args.seed < 0:
        raise ConfigError(f"seed = {args.seed} must be nonnegative")
    propagator = _verify_propagator(config, args.n_max)
    sweep = _verify_sweep(args.sweep_states, args.seed)
    steady = _verify_steady(config, preset_name)
    overall = propagator["pass"] and sweep["pass"] and steady["pass"]
    report = {
        "preset": preset_name,
        "propagator": propagator,
        "measurement_sweep": sweep,
        "steady_coherence": steady,
        "pass": overall,
    }

    def line(msg):
        print(msg, file=sys.stderr)

    if "error" in propagator:
        line(f"propagator: FAIL ({propagator['error']})")
    else:
        line(
            f"propagator: max |analytic - oracle| = {propagator['max_deviation']:.3e} "
            f"at t = {propagator['t_at_max']:.3f} (tol {PROPAGATOR_TOL:g}) "
            f"-> {'PASS' if propagator['pass'] else 'FAIL'}"
        )
        line(
            f"  trace drift {propagator['max_trace_drift']:.3e} (tol {TRACE_TOL:g}); "
            f"p1/p4 drift {propagator['p1_drift']:.3e}/{propagator['p4_drift']:.3e} "
            f"(tol {CONSTANTS_TOL:g})"
        )
    line(
        f"measurement sweep ({sweep['n_states']} states, seed {sweep['seed']}): "
        f"max gap {sweep['max_gap']:.3e} (tol {SWEEP_GAP_TOL:g}), "
        f"{len(sweep['discrepancies'])} gaps above {SWEEP_LOG_LEVEL:g} "
        f"-> {'PASS' if sweep['pass'] else 'FAIL'}"
    )
    line(
        f"steady |rho14|: long-time limit {steady['long_time_limit']:.7g}, "
        f"as-printed alternative {steady['as_printed_alternative']:.7g}, "
        f"target |rho23(0)| {steady['target_r23']:.7g} "
        f"-> {'PASS' if steady['pass'] else 'FAIL'}"
    )
    line(f"overall: {'PASS' if overall else 'FAIL'}")

    _write_json(report, args.out)
    return 0 if overall else 4


def cmd_preset(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown preset action {args.action!r}; try: preset list")
    payload = {name: PRESETS[name].to_dict() for name in sorted(PRESETS)}
    _write_json(payload, args.out)
    return 0


#: argparse keywords of every argument; each subcommand declares the ones it reads.
FLAGS = {
    "--preset": dict(choices=sorted(PRESETS), help="bundled scenario name"),
    "--config": dict(help="path to a RunConfig JSON file"),
    "--state": dict(help="inline initial-state JSON object"),
    "--t-max": dict(type=float, help="grid end time (lambda*t)"),
    "--samples": dict(type=int, help="number of grid samples"),
    "--zero-threshold": dict(
        type=float, help="discord level below which a sample counts as zero (bits)"
    ),
    "--show-eq13-as-printed": dict(
        action="store_true", help="also print the alternative steady-coherence value"
    ),
    "--n-max": dict(type=int, default=25, help="Fock cutoff"),
    "--sweep-states": dict(
        type=int, default=200, help="number of random states in the measurement sweep"
    ),
    "--seed": dict(type=int, default=0, help="seed for random-state sweeps"),
    "--out": dict(help="write the main output to this path instead of stdout"),
    "action": dict(help="only: list"),
}
#: Each subcommand: name, command function, help, and the flags it reads.
SUBCOMMANDS = (
    ("discord", cmd_discord, "correlation breakdown of one state",
     "--preset --config --state --out"),
    ("evolve", cmd_evolve, "CSV time series for a scenario",
     "--preset --config --t-max --samples --show-eq13-as-printed --out"),
    ("zeros", cmd_zeros, "zero-discord events of a scenario",
     "--preset --config --t-max --samples --show-eq13-as-printed --zero-threshold --out"),
    ("verify", cmd_verify, "cross-check analytic results",
     "--preset --config --t-max --n-max --sweep-states --seed --out"),
    ("preset", cmd_preset, "preset utilities", "action --out"),
)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="xdiscord", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag in flags.split():
            sub.add_argument(flag, **FLAGS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvalidStateError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
