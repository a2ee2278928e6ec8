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
import sys
from dataclasses import asdict

import numpy as np

from .discord import discord, minimize_numeric, nullity_check
from .dynamics import TCParams, steady_coherence, steady_coherence_as_printed, trajectory
from .oracle import FockTruncation, compare
from .presets import (
    MAX_SAMPLES,
    PRESETS,
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_json,
    preset_config,
    state_from_dict,
    state_to_dict,
)
from .sampling import random_xstate
from .xstate import InvalidStateError, XColumns

CSV_COLUMNS = (
    "lambda_t",
    "rho11",
    "rho22",
    "rho33",
    "rho44",
    "abs_rho14",
    "abs_rho23",
    "mutual_info",
    "c_m1",
    "c_m2",
    "classical_corr",
    "discord",
    "concurrence",
)

PROPAGATOR_TOL = 1e-3
TRACE_TOL = 1e-8
CONSTANTS_TOL = 1e-6
SWEEP_GAP_TOL = 1e-2
SWEEP_LOG_LEVEL = 1e-4
NUMERIC_EXCESS_TOL = 1e-6
STEADY_TOL = 5e-4
#: Sample spacing of the master-equation check, about 0.1 up to --t-max.
VERIFY_SPACING = 0.1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 3)."""

    def error(self, message):
        raise ConfigError(message)


def _write_out(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        state = state_from_dict(data)
        config = RunConfig(initial=state, params=TCParams(), t_max=30.0, n_samples=3001)
    else:
        raise ConfigError("one of --preset, --config, --state is required")
    config = apply_overrides(
        config,
        t_max=getattr(args, "t_max", None),
        n_samples=getattr(args, "samples", None),
        zero_threshold=getattr(args, "zero_threshold", None),
    )
    return config, preset_name


def _eq13_note(config: RunConfig):
    limit = steady_coherence(config.initial.r14, config.params)
    printed = steady_coherence_as_printed(config.initial.r14, config.params)
    print(
        f"steady |rho14|: long-time limit {limit:.7g}; "
        f"as-printed alternative {printed:.7g}",
        file=sys.stderr,
    )


def cmd_discord(args) -> int:
    config, _ = _resolve_config(args)
    state = config.initial
    payload = asdict(discord(state))
    payload["nullity"] = asdict(nullity_check(state))
    _write_json(payload, args.out)
    return 0


def cmd_evolve(args) -> int:
    config, _ = _resolve_config(args)
    traj = trajectory(
        config.initial, config.params, config.t_max, config.n_samples, zero_threshold=None
    )
    s, br = traj.states, traj.breakdowns
    table = np.column_stack(
        [
            traj.times,
            s.p1,
            s.p2,
            s.p3,
            s.p4,
            s.r14,
            s.r23,
            br.mutual_info,
            br.c_m1,
            br.c_m2,
            br.classical_corr,
            br.discord,
            br.concurrence,
        ]
    )
    row = ",".join(["%.17g"] * len(CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS)] + [row % tuple(values) for values in table.tolist()]
    _write_out("\n".join(lines) + "\n", args.out)
    if args.show_eq13_as_printed:
        _eq13_note(config)
    return 0


def cmd_zeros(args) -> int:
    config, _ = _resolve_config(args)
    traj = trajectory(
        config.initial,
        config.params,
        config.t_max,
        config.n_samples,
        zero_threshold=config.zero_threshold,
    )
    payload = [asdict(event) for event in traj.zero_events]
    _write_json(payload, args.out)
    if args.show_eq13_as_printed:
        _eq13_note(config)
    return 0


def _verify_propagator(config: RunConfig, t_max: float, n_max: int) -> dict:
    if t_max < 0.0:
        raise ConfigError(f"t_max = {t_max!r} must be nonnegative")
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
        trunc = FockTruncation.for_alpha_sq(config.params.alpha_sq, n_max=n_max)
        t_grid = np.linspace(0.0, t_max, n_grid)
        report = compare(config.initial, config.params, t_grid, trunc)
    except ValueError as exc:
        # A rejected truncation or grid is a verification failure, not a
        # config error: the requested check cannot vouch for the analytics.
        out.update({"error": str(exc), "pass": False})
        return out
    out["pass"] = (
        report.max_deviation <= PROPAGATOR_TOL
        and report.max_trace_drift <= TRACE_TOL
        and report.p1_drift <= CONSTANTS_TOL
        and report.p4_drift <= CONSTANTS_TOL
    )
    out.update(report.as_dict())
    return out


def _verify_sweep(n_states: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    states = [random_xstate(rng) for _ in range(n_states)]
    gaps = np.zeros(0)
    if states:
        batch = XColumns.from_states(states)
        br = discord(batch)
        _, _, exact = minimize_numeric(batch)
        gaps = np.minimum(br.c_m1, br.c_m2) - exact
    discrepancies = [
        {"state": state_to_dict(state), "gap": float(gap)}
        for state, gap in zip(states, gaps)
        if gap > SWEEP_LOG_LEVEL
    ]
    max_gap = float(np.max(gaps, initial=0.0))
    max_excess = float(np.max(-gaps, initial=0.0))
    ok = max_gap <= SWEEP_GAP_TOL and max_excess <= NUMERIC_EXCESS_TOL
    return {
        "n_states": n_states,
        "seed": seed,
        "max_gap": max_gap,
        "gap_tolerance": SWEEP_GAP_TOL,
        "numeric_above_closed_by": max_excess,
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
    t_max = args.t_max if args.t_max is not None else 20.0
    propagator = _verify_propagator(config, t_max, args.n_max)
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


def _add_common(sub, with_state=False):
    sub.add_argument("--preset", choices=sorted(PRESETS), help="bundled scenario name")
    sub.add_argument("--config", help="path to a RunConfig JSON file")
    if with_state:
        sub.add_argument("--state", help="inline initial-state JSON object")
    sub.add_argument("--t-max", dest="t_max", type=float, help="grid end time (lambda*t)")
    sub.add_argument("--samples", type=int, help="number of grid samples")
    sub.add_argument(
        "--zero-threshold",
        dest="zero_threshold",
        type=float,
        help="discord level below which a sample counts as zero (bits)",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed for random-state sweeps")
    sub.add_argument(
        "--show-eq13-as-printed",
        dest="show_eq13_as_printed",
        action="store_true",
        help="also print the alternative steady-coherence value",
    )
    sub.add_argument("--out", help="write the main output to this path instead of stdout")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="xdiscord", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_disc = subs.add_parser("discord", help="correlation breakdown of one state")
    _add_common(p_disc, with_state=True)
    p_disc.set_defaults(func=cmd_discord)

    p_evo = subs.add_parser("evolve", help="CSV time series for a scenario")
    _add_common(p_evo)
    p_evo.set_defaults(func=cmd_evolve)

    p_zero = subs.add_parser("zeros", help="zero-discord events of a scenario")
    _add_common(p_zero)
    p_zero.set_defaults(func=cmd_zeros)

    p_ver = subs.add_parser("verify", help="cross-check analytic results")
    _add_common(p_ver)
    p_ver.add_argument("--n-max", dest="n_max", type=int, default=25, help="Fock cutoff")
    p_ver.add_argument(
        "--sweep-states",
        dest="sweep_states",
        type=int,
        default=200,
        help="number of random states in the measurement sweep",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_pre = subs.add_parser("preset", help="preset utilities")
    p_pre.add_argument("action", help="only: list")
    p_pre.add_argument("--out", help="write output to this path")
    p_pre.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidStateError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
