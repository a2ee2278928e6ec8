import contextlib
import importlib
import io
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xdiscord import (
    PRESETS,
    InvalidStateError,
    XState,
    discord,
    minimize_numeric,
    nullity_check,
    random_xstate,
    require_valid,
)
from xdiscord.cli import (
    CSV_COLUMNS,
    CSV_SOURCES,
    FLAGS,
    MAX_SWEEP_STATES,
    SUBCOMMANDS,
    _write_json,
    main,
)
from xdiscord._csvtext import csv_rows
from xdiscord.dynamics import trajectory
from xdiscord.oracle import MAX_N_MAX, poisson_tail
from xdiscord.presets import (
    MAX_SAMPLES,
    ConfigError,
    config_from_json,
    preset_config,
    state_from_dict,
    state_to_dict,
)

from samplers import family_edge_xstates

BELL_STATE_JSON = json.dumps({"populations": [0.5, 0.0, 0.0, 0.5], "r14": 0.5})
EQ9_STATE_JSON = json.dumps(
    {"populations": [0.3, 0.3, 0.2, 0.2], "r14": 0.1, "r23": 0.1}
)
INVALID_STATE_JSON = json.dumps({"populations": [0.25, 0.25, 0.25, 0.25], "r14": 0.3})
FIG1_CONFIG = PRESETS["fig1"].to_dict()

#: The keys that open every `verify` propagator object, before its verdict.
PROPAGATOR_KEYS = ["t_max", "dt", "n_max", "tolerance", "trace_tolerance", "constants_tolerance"]

#: The flags that a subcommand does not read, with a value for each.
UNREAD_FLAGS = [
    ("discord", ["--t-max", "1.0"]),
    ("discord", ["--samples", "7"]),
    ("discord", ["--zero-threshold", "1e-4"]),
    ("discord", ["--seed", "5"]),
    ("discord", ["--show-eq13-as-printed"]),
    ("evolve", ["--zero-threshold", "1e-4"]),
    ("evolve", ["--seed", "5"]),
    ("zeros", ["--seed", "5"]),
    ("verify", ["--samples", "7"]),
    ("verify", ["--zero-threshold", "1e-4"]),
    ("verify", ["--show-eq13-as-printed"]),
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiscordCommand:
    def test_bell_state(self, capsys):
        code, out, _ = run_cli(["discord", "--state", BELL_STATE_JSON], capsys)
        assert code == 0
        payload = json.loads(out)
        assert_allclose(payload["discord"], 1.0, atol=1e-12)
        assert_allclose(payload["mutual_info"], 2.0, atol=1e-12)
        assert payload["nullity"]["kind"] == "not-null"

    def test_degenerate_balanced_state(self, capsys):
        code, out, _ = run_cli(["discord", "--state", EQ9_STATE_JSON], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["nullity"]["kind"] == "degenerate-balanced"
        assert abs(payload["discord"]) <= 1e-9

    def test_invalid_state_exit_2(self, capsys):
        code, _, err = run_cli(["discord", "--state", INVALID_STATE_JSON], capsys)
        assert code == 2
        assert "invalid state" in err

    def test_small_block_with_negative_eigenvalue_exit_2(self, capsys):
        # p1*p4 is within 1e-12 of r14^2, but the outer block has an eigenvalue
        # of -8.5e-7: an invalid state (exit 2), not an entropy error (exit 3)
        state = '{"populations": [1e-7, 0.5, 0.4999998, 1e-7], "r14": 9.539392014169456e-07}'
        code, out, err = run_cli(["discord", "--state", state], capsys)
        assert (code, out) == (2, "")
        assert "invalid state: outer block has an eigenvalue below -1e-12" in err

    def test_marginal_of_two_tolerated_negatives_exit_0(self, capsys):
        # p1 and p2 each count as 0 (above -1e-12), so their marginal
        # p1 + p2 = -1.8e-12 does too: not an entropy error (exit 3). The
        # entropies read 0: mutual_info, c_m1 and c_m2 printed -1.8e-12,
        # -8.0e-13 and -8.0e-13 before each was clamped at 0.
        state = '{"populations": [-0.9e-12, -0.9e-12, 0.5000000000009, 0.5000000000009]}'
        code, out, err = run_cli(["discord", "--state", state], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["nullity"]["kind"] == "coherence-free"
        fields = ("mutual_info", "c_m1", "c_m2", "classical_corr", "discord")
        assert [payload[f] for f in fields] == [0.0] * len(fields)

    def test_upsilon_of_two_tolerated_negatives_is_1(self, capsys):
        # p3 + p4 = 1 + 1.8e-12 made the Bloch length 1.0000000000036
        state = '{"populations": [-0.9e-12, -0.9e-12, 0.5000000000009, 0.5000000000009]}'
        code, out, _ = run_cli(["discord", "--state", state], capsys)
        assert code == 0
        assert json.loads(out)["upsilon"] == 1.0

    def test_degenerate_balanced_edge_prints_zero_discord(self, capsys):
        # classical_corr rounded 3e-16 above mutual_info, and the discord
        # printed -3.0531133177191805e-16 with exit 0
        state = '{"populations": [0.01, 0.01, 0.49, 0.49], "r14": 0.003, "r23": 0.003}'
        code, out, _ = run_cli(["discord", "--state", state], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["nullity"]["kind"] == "degenerate-balanced"
        assert payload["discord"] == 0.0
        assert payload["classical_corr"] == payload["mutual_info"]

    @pytest.mark.parametrize(
        "state",
        [
            '{"populations": [NaN, NaN, NaN, NaN]}',
            '{"populations": [0.5, 0, 0, 0.5], "phi1": Infinity}',
        ],
        ids=["nan-populations", "infinite-phase"],
    )
    def test_nan_state_exit_2(self, state, capsys):
        code, out, err = run_cli(["discord", "--state", state], capsys)
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    # float() would read true as 1.0 and report |gg><gg|, and "1" likewise
    @pytest.mark.parametrize("first, shown", [("true", "True"), ('"1"', "'1'")])
    def test_non_number_population_exit_3(self, first, shown, capsys):
        state = f'{{"populations": [{first}, 0, 0, 0]}}'
        code, out, err = run_cli(["discord", "--state", state], capsys)
        assert (code, out) == (3, "")
        assert f"population = {shown} is not a number" in err

    @given(family_edge_xstates())
    @example(XState(0.25, 0.1, 0.4, 0.25, r23=0.20000000000125))
    def test_edge_state_exits_0_when_valid_else_2(self, state):
        # A state that require_valid accepts gets its breakdown, however
        # close to -1e-12 its spectrum rounds (the example's inner block
        # rounds to -1.00003e-12); any other is an invalid state. Neither is
        # an entropy error (exit 3).
        try:
            require_valid(state)
            want = 0
        except InvalidStateError:
            want = 2
        argv = ["discord", "--state", json.dumps(state_to_dict(state))]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == want, err.getvalue()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_payload_is_breakdown_then_nullity(self, name, capsys):
        state = PRESETS[name].initial
        code, out, _ = run_cli(["discord", "--preset", name], capsys)
        assert code == 0
        expected = asdict(discord(state))
        expected["nullity"] = asdict(nullity_check(state))
        payload = json.loads(out)
        assert list(payload) == [
            "mutual_info", "c_m1", "c_m2", "upsilon", "classical_corr", "discord",
            "concurrence", "nullity",
        ]
        assert list(payload["nullity"]) == ["kind", "coherence_residual", "balance_residual"]
        assert payload == expected

    def test_malformed_json_exit_3(self, capsys):
        code, _, err = run_cli(["discord", "--state", "{not json"], capsys)
        assert code == 3
        assert "error" in err

    def test_missing_source_exit_3(self, capsys):
        code, _, _ = run_cli(["discord"], capsys)
        assert code == 3

    def test_conflicting_sources_exit_3(self, capsys):
        code, _, _ = run_cli(
            ["discord", "--state", BELL_STATE_JSON, "--preset", "fig1"], capsys
        )
        assert code == 3


class TestEvolveCommand:
    def test_csv_header_and_first_row(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--preset", "fig1", "--t-max", "2.0", "--samples", "21"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 22
        first = dict(zip(CSV_COLUMNS, (float(x) for x in lines[1].split(","))))
        assert first["lambda_t"] == 0.0
        assert_allclose(first["abs_rho14"], 0.25)
        assert_allclose(first["abs_rho23"], 0.05)
        assert_allclose(first["rho22"], 3 / 16)

    def test_fig3_separable_constant_inner_coherence(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--preset", "fig3-separable", "--t-max", "30",
             "--samples", "61"], capsys
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        col = CSV_COLUMNS.index("abs_rho23")
        values = [float(r.split(",")[col]) for r in rows]
        assert all(abs(v - 0.0736) < 1e-12 for v in values)

    def test_single_sample_rejected(self, capsys):
        code, _, _ = run_cli(
            ["evolve", "--preset", "fig1", "--samples", "1"], capsys
        )
        assert code == 3

    def test_infinite_t_max_exit_3(self, capsys, tmp_path):
        code, out, err = run_cli(["evolve", "--preset", "fig1", "--t-max", "inf"], capsys)
        assert (code, out) == (3, "")
        assert "t_max = inf must be finite" in err
        config = tmp_path / "config.json"
        config.write_text(
            '{"initial": {"populations": [0.25, 0.25, 0.25, 0.25]}, "grid": {"t_max": Infinity}}'
        )
        code, out, err = run_cli(["evolve", "--config", str(config)], capsys)
        assert (code, out) == (3, "")
        assert "t_max = inf must be finite" in err

    @pytest.mark.parametrize("command", ["evolve", "zeros"])
    def test_non_finite_propagation_exit_3(self, command, capsys, tmp_path):
        # lambda*t overflows: this used to print numpy RuntimeWarnings and
        # exit 2, blaming a NaN coherence on the valid initial state
        config = tmp_path / "config.json"
        config.write_text(
            '{"initial": {"populations": [0.25, 0.1875, 0.3125, 0.25], "r14": 0.25}, '
            '"params": {"lambda": 1e308, "kappa": 0.5, "alpha_sq": 2.0}, '
            '"grid": {"t_max": 10, "n_samples": 11}}'
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli([command, "--config", str(config)], capsys)
        assert caught == []
        assert (code, out) == (3, "")
        assert err == "error: the analytic propagation is not finite\n"

    # int() would truncate 2.7 to 2 and read true as 1
    @pytest.mark.parametrize("n_samples", ["Infinity", "1e400", "2.7", "true", '"7"'])
    def test_infinite_n_samples_exit_3(self, n_samples, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            '{"initial": {"populations": [0.25, 0.25, 0.25, 0.25]}, '
            f'"grid": {{"n_samples": {n_samples}}}}}'
        )
        code, out, err = run_cli(["evolve", "--config", str(config)], capsys)
        assert (code, out) == (3, "")
        assert "bad grid value" in err

    def test_oversized_grid_exit_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["evolve", "--preset", "fig1", "--samples", str(10**9)], capsys
        )
        assert (code, out) == (3, "")
        assert f"n_samples = {10**9} exceeds {MAX_SAMPLES}" in err
        config = tmp_path / "config.json"
        config.write_text(
            '{"initial": {"populations": [0.25, 0.25, 0.25, 0.25]}, '
            '"grid": {"n_samples": 1000000000}}'
        )
        code, out, err = run_cli(["zeros", "--config", str(config)], capsys)
        assert (code, out) == (3, "")
        assert "exceeds" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        code, out, _ = run_cli(
            ["evolve", "--preset", "fig1", "--t-max", "1.0", "--samples", "11",
             "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_eq13_note_flag(self, capsys):
        code, _, err = run_cli(
            ["evolve", "--preset", "fig3-separable", "--t-max", "1.0",
             "--samples", "11", "--show-eq13-as-printed"], capsys
        )
        assert code == 0
        assert "as-printed" in err


class TestZerosCommand:
    def test_fig1_tight_threshold_single_event(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--preset", "fig1", "--zero-threshold", "1e-4"], capsys
        )
        assert code == 0
        events = json.loads(out)
        assert len(events) == 1
        assert abs(events[0]["t_center"] - math.pi / 2) < 1e-3
        assert events[0]["kind"] == "discrete"

    def test_nan_threshold_exit_3(self, capsys):
        code, out, err = run_cli(
            ["zeros", "--preset", "fig1", "--zero-threshold", "nan"], capsys
        )
        assert (code, out) == (3, "")
        assert "zero_threshold = nan must be finite" in err
        # no discord falls below a level <= 0, so such a threshold is refused too
        for threshold in ("0", "-1"):
            code, out, err = run_cli(
                ["zeros", "--preset", "fig1", "--zero-threshold", threshold], capsys
            )
            assert (code, out) == (3, "")
            assert f"zero_threshold = {float(threshold)!r} must be finite and positive" in err

    def test_fig3_entangled_no_events(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--preset", "fig3-entangled", "--t-max", "50"], capsys
        )
        assert code == 0
        assert json.loads(out) == []

    def test_fig3_separable_ends_asymptotic(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--preset", "fig3-separable", "--t-max", "300"], capsys
        )
        assert code == 0
        events = json.loads(out)
        assert events
        assert events[-1]["kind"] == "asymptotic"
        assert events[-1]["t_exit"] == 300.0

    @pytest.mark.parametrize("command", ["evolve", "zeros"])
    def test_samples_past_the_tolerance_refused_by_both_commands(self, command, capsys, tmp_path):
        # A valid initial state whose inner block sits on its tolerant
        # bound: the rotation rounded r23^2 of 38 of the 101 samples one ulp
        # past it, and both commands exited 2 with "row 1 of 101 (38
        # invalid)". evolve now sets r23 of such a sample just inside the
        # bound, so no sample is refused and both commands accept the state.
        config = {
            "initial": {"populations": [0.0, 0.0, 0.5, 0.5], "r23": 7.071067811872544e-07},
            "params": {"lambda": 1.375, "kappa": 0.0, "alpha_sq": 0.0},
            "grid": {"t_max": 10.0, "n_samples": 101},
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("command", ["evolve", "zeros"])
    def test_initial_trace_off_1_accepted_by_both_commands(self, command, capsys, tmp_path):
        # p3(0) = -1e-12 with the trace at 1 + 9e-13: a state that `discord`
        # accepts. When p3 closed the trace to 1 it read -1.9e-12, and both
        # commands exited 2; p3 now closes the initial trace.
        config = {
            "initial": {"populations": [0.5, 0.0, -1e-12, 0.5000000000019]},
            "grid": {"t_max": 1, "n_samples": 3},
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli([command, "--config", str(path)], capsys)
        assert (code, err) == (0, "")


class TestPresetCommand:
    def test_module_entry_point(self):
        # `python -m xdiscord.cli` runs the same front end as the script
        proc = subprocess.run(
            [sys.executable, "-m", "xdiscord.cli", "preset", "list"],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert set(json.loads(proc.stdout)) == set(PRESETS)

    def test_list(self, capsys):
        code, out, _ = run_cli(["preset", "list"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"fig1", "fig2", "fig3-separable", "fig3-entangled"}
        assert payload["fig1"]["params"]["alpha_sq"] == 0.5922
        assert payload["fig2"]["params"]["kappa"] == 0.25
        assert payload["fig3-separable"]["initial"]["r23"] == 0.0736

    def test_round_trip_through_config(self, capsys, tmp_path):
        code, out, _ = run_cli(["preset", "list"], capsys)
        fig1 = json.loads(out)["fig1"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(fig1))
        code, out2, _ = run_cli(
            ["evolve", "--config", str(path), "--t-max", "1.0", "--samples", "3"],
            capsys,
        )
        assert code == 0
        row = out2.strip().splitlines()[1].split(",")
        assert_allclose(float(row[CSV_COLUMNS.index("abs_rho14")]), 0.25)

    def test_unknown_action(self, capsys):
        code, _, _ = run_cli(["preset", "frobnicate"], capsys)
        assert code == 3

    def test_unknown_preset_name(self, capsys):
        code, _, _ = run_cli(["evolve", "--preset", "fig9"], capsys)
        assert code == 3

    def test_preset_config_unknown_name(self):
        available = "fig1, fig2, fig3-entangled, fig3-separable"
        with pytest.raises(ConfigError, match=f"^unknown preset 'nope'; available: {available}$"):
            preset_config("nope")

    # A --config source is the text of the file; None leaves the file unwritten.
    @pytest.mark.parametrize(
        "flag, source, message",
        [
            ("--state", "[1,2]", "state must be a JSON object"),
            ("--state", '{"r14": 0.1}', "missing key 'populations' in state"),
            ("--state", '{"populations": [1, 0, 0]}', "state populations must be a list of four"),
            ("--config", "[1]", "config must be a JSON object"),
            ("--config", json.dumps({**FIG1_CONFIG, "params": []}), "params must be a JSON object"),
            ("--config", json.dumps({**FIG1_CONFIG, "grid": 3}), "grid must be a JSON object"),
            ("--config", json.dumps(FIG1_CONFIG)[:-5], "invalid JSON: "),
            ("--config", None, "cannot read config file: "),
        ],
        ids=[
            "state-list", "state-no-populations", "three-populations", "config-list",
            "params-list", "grid-number", "truncated-json", "unreadable-config",
        ],
    )
    def test_malformed_source_exit_3(self, flag, source, message, capsys, tmp_path):
        if flag == "--config":
            path = tmp_path / "config.json"
            if source is not None:
                path.write_text(source)
            source = str(path)
        code, out, err = run_cli(["discord", flag, source], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message}")

    def test_nan_kappa_config_exit_3(self, capsys, tmp_path):
        config = PRESETS["fig1"].to_dict()
        config["params"]["kappa"] = math.nan
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(["evolve", "--config", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_boolean_config_t_max_exit_3(self, capsys, tmp_path):
        config = PRESETS["fig1"].to_dict()
        config["grid"]["t_max"] = True
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(["evolve", "--config", str(path)], capsys)
        assert (code, out) == (3, "")
        assert "t_max = True is not a number" in err

    @pytest.mark.parametrize(
        "section, key",
        [
            ("initial", "r14"), ("initial", "phi1"), ("initial", "r23"), ("initial", "phi2"),
            ("params", "lambda"), ("params", "kappa"), ("params", "alpha_sq"),
            ("grid", "t_max"), (None, "zero_threshold"),
        ],
    )
    def test_boolean_number_refused(self, section, key):
        config = PRESETS["fig1"].to_dict()
        (config[section] if section else config)[key] = False
        # the message names the section that holds the key
        word = {"initial": "state", None: key}.get(section, section)
        with pytest.raises(ConfigError, match=f"^bad {word} value: {key} = False is not a number$"):
            config_from_json(json.dumps(config))

    @pytest.mark.parametrize("section", [None, "initial", "params", "grid", "state"])
    def test_unknown_key_refused(self, section, tmp_path, capsys):
        # a misspelt key would otherwise be ignored and its default used
        if section == "state":
            state = {"populations": [0.25, 0.25, 0.25, 0.25], "kapa": 0.2}
            argv = ["discord", "--state", json.dumps(state)]
        else:
            config = PRESETS["fig1"].to_dict()
            (config[section] if section else config)["kapa"] = 0.05
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = ["evolve", "--config", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert "unknown key 'kapa'" in err

    def test_config_serialization_roundtrips_bit_exact(self):
        for config in PRESETS.values():
            assert config_from_json(json.dumps(config.to_dict())) == config
        rng = np.random.default_rng(31)
        for _ in range(200):
            state = random_xstate(rng)
            assert state_from_dict(json.loads(json.dumps(state_to_dict(state)))) == state


class TestVerifyCommand:
    def test_short_verify_passes(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "1.0", "--n-max", "20",
             "--sweep-states", "25"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert list(report["propagator"]) == PROPAGATOR_KEYS + [
            "pass", "max_deviation", "t_at_max", "max_trace_drift", "p1_drift", "p4_drift",
            "min_eigenvalue",
        ]
        assert report["propagator"]["max_deviation"] <= 1e-3
        assert report["measurement_sweep"]["max_gap"] <= 1e-2
        assert "long_time_limit" in report["steady_coherence"]
        assert "as_printed_alternative" in report["steady_coherence"]
        assert "overall: PASS" in err

    def test_undersized_truncation_exit_4(self, capsys):
        for n_max in ("3", "0"):
            code, out, _ = run_cli(
                ["verify", "--preset", "fig1", "--t-max", "1.0", "--n-max", n_max,
                 "--sweep-states", "5"], capsys
            )
            assert code == 4
            report = json.loads(out)
            assert list(report["propagator"]) == PROPAGATOR_KEYS + ["error", "pass"]
            assert report["propagator"]["pass"] is False
            assert "need n_max" in report["propagator"]["error"]

    def test_infinite_t_max_exit_3(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "inf", "--sweep-states", "1"], capsys
        )
        assert (code, out) == (3, "")
        assert "t_max = inf must be finite" in err

    def test_negative_t_max_exit_3(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--sweep-states", "1", "--t-max", "-5"], capsys
        )
        assert (code, out) == (3, "")
        assert "t_max = -5.0 must be nonnegative" in err

    def test_horizon_is_the_config_t_max(self, capsys, tmp_path):
        config = PRESETS["fig1"].to_dict()
        config["grid"]["t_max"] = 2.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(["verify", "--config", str(path), "--sweep-states", "0"], capsys)
        assert code == 0
        assert json.loads(out)["propagator"]["t_max"] == 2.0

    def test_preset_checks_its_whole_horizon(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig3-separable", "--sweep-states", "0"], capsys
        )
        propagator = json.loads(out)["propagator"]
        assert code == 0
        assert (propagator["t_max"], propagator["pass"]) == (300.0, True)

    @pytest.mark.parametrize("n_max", ["-1", "-5"])
    @pytest.mark.parametrize("alpha_sq", [0.5922, 0.0])
    def test_negative_n_max_exit_3(self, n_max, alpha_sq, capsys, tmp_path):
        config = PRESETS["fig1"].to_dict()
        config["params"]["alpha_sq"] = alpha_sq
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["verify", "--config", str(path), "--n-max", n_max, "--sweep-states", "0"], capsys
        )
        assert (code, out) == (3, "")
        assert f"n_max = {n_max} must be nonnegative" in err

    def test_empty_sweep_draws_nothing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an empty sweep must not draw or search")

        monkeypatch.setattr("xdiscord.cli.random_xstate", refuse)
        monkeypatch.setattr("xdiscord.cli.minimize_numeric", refuse)
        code, out, _ = run_cli(
            ["verify", "--preset", "fig1", "--sweep-states", "0", "--t-max", "0.3"], capsys
        )
        assert code == 0
        assert json.loads(out)["measurement_sweep"] == {
            "n_states": 0,
            "seed": 0,
            "max_gap": 0.0,
            "gap_tolerance": 0.01,
            "numeric_above_closed_by": 0.0,
            "interior_optima": 0,
            "fraction_within_1e-4": 1.0,
            "discrepancies": [],
            "pass": True,
        }

    def test_negative_sweep_states_exit_3(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--sweep-states", "-3", "--t-max", "0.1"], capsys
        )
        assert (code, out) == (3, "")
        assert "sweep_states = -3 must be nonnegative" in err
        assert "propagator" not in err and "measurement sweep" not in err

    def test_oversized_sweep_exit_3(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--sweep-states", "100001", "--t-max", "0.1"], capsys
        )
        assert (code, out) == (3, "")
        assert f"sweep_states = 100001 exceeds {MAX_SWEEP_STATES}" in err
        assert "propagator" not in err and "measurement sweep" not in err

    def test_negative_seed_exit_3(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "0.1", "--sweep-states", "1",
             "--seed", "-1"], capsys
        )
        assert (code, out) == (3, "")
        assert "seed = -1 must be nonnegative" in err
        assert "propagator" not in err and "measurement sweep" not in err

    def test_oversized_n_max_exit_3_before_allocating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized cutoff must be refused before any work")

        monkeypatch.setattr("xdiscord.cli.compare", refuse)
        for n_max in (MAX_N_MAX + 1, 10**9):
            code, out, err = run_cli(
                ["verify", "--preset", "fig1", "--t-max", "0.1", "--sweep-states", "0",
                 "--n-max", str(n_max)], capsys
            )
            assert (code, out) == (3, "")
            assert f"n_max = {n_max} exceeds {MAX_N_MAX}" in err

    def test_strong_field_needs_larger_cutoff_exit_4(self, capsys, tmp_path):
        # At alpha_sq = 1000 the Poisson terms near n_max = 25 underflow; the
        # tail is still ~1, so the cutoff is refused, not accepted.
        config = PRESETS["fig1"].to_dict()
        config["params"]["alpha_sq"] = 1000.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["verify", "--config", str(path), "--t-max", "0.3", "--n-max", "25",
             "--sweep-states", "0"], capsys
        )
        assert code == 4
        propagator = json.loads(out)["propagator"]
        assert list(propagator) == PROPAGATOR_KEYS + ["error", "pass"]
        error = propagator["error"]
        assert error.endswith(
            f"tail of 1.000e+00 > 1.000e-12 even at n_max = {MAX_N_MAX}, the largest cutoff"
        )
        assert "1230" not in error
        assert "propagator: FAIL" in err

    def test_huge_field_refused_without_searching_its_cutoff(self, capsys, tmp_path):
        # The smallest cutoff for alpha_sq = 1e12 is near 10**12; the oracle
        # refuses the field from its tail at MAX_N_MAX and searches no cutoff.
        config = PRESETS["fig1"].to_dict()
        config["params"]["alpha_sq"] = 1e12
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["verify", "--config", str(path), "--t-max", "0.3", "--sweep-states", "0"], capsys
        )
        assert code == 4
        assert json.loads(out)["propagator"]["error"] == (
            "alpha_sq = 1e+12 leaves a coherent tail of 1.000e+00 > 1.000e-12 even at "
            f"n_max = {MAX_N_MAX}, the largest cutoff"
        )

    def test_huge_kappa_reports_steady_coherence(self, capsys, tmp_path):
        # kappa^2 overflows a float, which the steady values no longer square,
        # and the oracle's closed-form decay keeps the trace, so verify passes
        config = PRESETS["fig1"].to_dict()
        config["params"]["kappa"] = 1e155
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(
            ["evolve", "--config", str(path), "--samples", "3", "--t-max", "1.0",
             "--show-eq13-as-printed"], capsys
        )
        assert code == 0
        assert "long-time limit 0.25; as-printed alternative 0.25" in err
        code, out, _ = run_cli(
            ["verify", "--config", str(path), "--t-max", "0.3", "--sweep-states", "0"], capsys
        )
        assert code == 0
        steady = json.loads(out)["steady_coherence"]
        assert steady["long_time_limit"] == steady["as_printed_alternative"] == 0.25

    def test_stiff_kappa_passes_verify(self, capsys, tmp_path):
        # at kappa = 1e8 the Padé exponential of the decay ladder lost 1.5e-8
        # of the trace, past its 1e-8 tolerance, and verify exited 4
        config = PRESETS["fig1"].to_dict()
        config["params"]["kappa"] = 1e8
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            ["verify", "--config", str(path), "--t-max", "0.3", "--sweep-states", "0"], capsys
        )
        assert code == 0
        propagator = json.loads(out)["propagator"]
        assert propagator["max_trace_drift"] <= 1e-14
        assert propagator["max_deviation"] <= 1e-14

    def test_non_finite_oracle_fails_verify_exit_4(self, capsys, tmp_path):
        # at lam = 1e20 no radian of the oracle's largest phase survives in
        # double precision; the propagation is refused, and the report stays
        # valid JSON
        config = PRESETS["fig1"].to_dict()
        config["params"]["lambda"] = 1e20
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["verify", "--config", str(path), "--t-max", "0.3", "--sweep-states", "0"], capsys
        )
        assert code == 4
        propagator = json.loads(out)["propagator"]
        assert propagator["error"] == (
            "the largest phase of the propagation, 1.530e+21, is not below 2**53: "
            "not one radian of it survives"
        )
        assert not propagator["pass"] and "propagator: FAIL" in err

    def test_poisson_tail_summed_once(self, capsys, monkeypatch):
        # once, for the requested cutoff: only the oracle reads the tail
        calls = []

        def spy(alpha_sq, n_max):
            calls.append(n_max)
            return poisson_tail(alpha_sq, n_max)

        monkeypatch.setattr("xdiscord.oracle.poisson_tail", spy)
        code, _, _ = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "0.3", "--sweep-states", "0"], capsys
        )
        assert code == 0 and calls == [25]

    def test_largest_cutoff_passes(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--n-max", str(MAX_N_MAX), "--t-max", "0.3",
             "--sweep-states", "0"], capsys
        )
        assert code == 0
        propagator = json.loads(out)["propagator"]
        assert propagator["n_max"] == MAX_N_MAX and propagator["pass"]
        assert propagator["max_deviation"] <= 1e-12

    def test_oversized_oracle_grid_exit_3(self, capsys):
        code, out, err = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "1e12", "--sweep-states", "1"], capsys
        )
        assert (code, out) == (3, "")
        assert f"more than {MAX_SAMPLES} oracle samples" in err

    def test_fig3_separable_steady_report(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig3-separable", "--t-max", "1.0",
             "--n-max", "20", "--sweep-states", "5"], capsys
        )
        assert code == 0
        steady = json.loads(out)["steady_coherence"]
        assert steady["limit_matches_target"] is True
        assert steady["as_printed_matches_target"] is False
        assert_allclose(steady["long_time_limit"], 0.0736, atol=5e-4)
        assert abs(steady["as_printed_alternative"] - 0.0736) > 0.05

    def test_seed_determinism(self, capsys):
        args = ["verify", "--preset", "fig1", "--t-max", "0.5", "--n-max", "15",
                "--sweep-states", "30", "--seed", "7"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "n_states, seed, max_gap, n_discrepancies, fraction",
        [
            # the measure-sweep benchmark's command at workload seed 1
            (300, 577090037, 1.5922539748913778e-06, 0, 1.0),
            (10_000, 1, 5.211731561958477e-04, 2, 0.9998),
        ],
    )
    def test_sweep_verdicts_are_pinned(
        self, capsys, n_states, seed, max_gap, n_discrepancies, fraction
    ):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig3-separable", "--n-max", "14", "--t-max", "0.1",
             "--sweep-states", str(n_states), "--seed", str(seed)], capsys
        )
        assert code == 0
        sweep = json.loads(out)["measurement_sweep"]
        assert sweep["pass"] is True
        assert len(sweep["discrepancies"]) == n_discrepancies
        assert sweep["fraction_within_1e-4"] == fraction
        assert abs(sweep["max_gap"] - max_gap) <= 1e-15

    @pytest.mark.parametrize("n_states, seed, interior", [(300, 577090037, 1), (10_000, 1, 6)])
    def test_sweep_counts_interior_optima(self, capsys, n_states, seed, interior):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig3-separable", "--n-max", "14", "--t-max", "0.1",
             "--sweep-states", str(n_states), "--seed", str(seed)], capsys
        )
        assert code == 0
        assert json.loads(out)["measurement_sweep"]["interior_optima"] == interior

    @pytest.mark.parametrize("seed", range(6))
    def test_numeric_above_closed_by_is_never_negative_zero(self, capsys, seed):
        # a one-state sweep whose gap is 0 or positive
        code, out, _ = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "0.1", "--n-max", "14",
             "--sweep-states", "1", "--seed", str(seed)], capsys
        )
        assert code == 0
        excess = json.loads(out)["measurement_sweep"]["numeric_above_closed_by"]
        assert math.copysign(1.0, excess) == 1.0
        assert "-0.0" not in out

    def test_sweep_gap_is_closed_form_minus_exact_minimum(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "0.5", "--n-max", "15",
             "--sweep-states", "30", "--seed", "7"], capsys
        )
        assert code == 0
        sweep = json.loads(out)["measurement_sweep"]
        rng = np.random.default_rng(7)
        batch = random_xstate(rng, 30)
        br = discord(batch)
        gaps = np.minimum(br.c_m1, br.c_m2) - minimize_numeric(batch)[2]
        assert sweep["max_gap"] == max(float(gaps.max()), 0.0)
        assert sweep["numeric_above_closed_by"] <= 1e-12


class TestJsonOutput:
    def test_non_finite_value_refused(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json({"discord": math.nan}, tmp_path / "out.json")

    @pytest.mark.parametrize(
        "args", [["preset", "list"], ["evolve", "--preset", "fig1", "--samples", "3"]]
    )
    def test_unwritable_out_exit_3(self, args, capsys, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(args + ["--out", str(path)], capsys)
        assert (code, out) == (3, "")
        assert "cannot write output file" in err
        assert not path.exists()


@pytest.mark.parametrize(
    "command, flag", UNREAD_FLAGS, ids=[c + f[0] for c, f in UNREAD_FLAGS]
)
def test_unread_flag_exit_3(command, flag, capsys):
    code, out, err = run_cli([command, "--preset", "fig1"] + flag, capsys)
    assert (code, out) == (3, "")
    assert "unrecognized arguments" in err


class TestCsvFormatting:
    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--preset", "fig1", "--t-max", "1.0", "--samples", "3"], capsys
        )
        assert code == 0
        row = out.strip().splitlines()[2].split(",")
        t_mid = float(row[0])
        assert t_mid == 0.5
        # full round-trip precision survives parsing
        value = row[CSV_COLUMNS.index("abs_rho14")]
        assert float(value) == float(f"{float(value):.17g}")
        assert "," not in value and " " not in value

    @pytest.mark.parametrize(
        "table",
        [
            np.arange(12.0).reshape(4, 3) / 7.0,  # no constant column
            np.column_stack(  # one constant column
                [np.linspace(0, 1, 5), np.full(5, 1 / 3), np.geomspace(1e-300, 1e300, 5)]
            ),
            np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0]]),  # 0.0 and -0.0 are not merged
            np.array([[0.1, -0.0, 5e-324], [0.1, -0.0, 5e-324]]),  # every column constant
            np.array([[-2.5, 3e-7], [-1 / 3, -4.25e-12]]),  # negative and exponent-form values
            np.array([[-0.0, 1.5], [-0.0, 2.5], [-0.0, 3.5]]),  # a constant -0.0 column
        ],
    )
    def test_rows_match_plain_formatting(self, table):
        plain = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
        assert csv_rows(table) == plain

    @staticmethod
    def assert_column_matches(values):
        values = np.asarray(values, dtype=float)
        assert csv_rows(values[:, None]) == "".join("%.17g\n" % v for v in values.tolist())

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_arbitrary_bit_patterns_match_plain_formatting(self, patterns):
        self.assert_column_matches(np.array(patterns, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300)
    @given(st.lists(st.floats(1e-30, 1e18), min_size=1, max_size=200))
    def test_values_in_the_array_range_match_plain_formatting(self, values):
        # the range that the array arithmetic formats, and a margin on each side
        self.assert_column_matches(values)

    @staticmethod
    def near_ties():
        """Values x = m * 2**-(j + s) whose digits x * 10**s = m * 5**s / 2**j
        lie in [1e16, 1e17) with a fraction 1/2 + r / 2**j: within 1e-12 of a
        rounding tie (j >= 42, 0 < |r| <= 3) but not on it. That needs
        m = (2**(j-1) + r) * 5**-s modulo 2**j, 5**-s the inverse of 5**s
        there; the first eight such m of each (s, j, r) in range and below
        2**53, where x is exact."""
        values = set()
        for s, j, r in itertools.product(range(46), range(42, 54), (1, -1, 2, -2, 3, -3)):
            step = 2**j
            m = (step // 2 + r) * pow(5, -s, step) % step
            low = -(-(10**16) * step // 5**s)  # ceil(1e16 * 2**j / 5**s)
            m += max(0, -(-(low - m) // step)) * step  # the least such m >= low
            top = min(-(-(10**17) * step // 5**s), 2**53)
            values.update(math.ldexp(m, -(j + s)) for m in range(m, top, step)[:8])
        return sorted(values)

    def test_edge_values_match_plain_formatting(self):
        powers = 10.0 ** np.arange(-40, 26)
        tiny = np.finfo(float).tiny
        edges = [
            *powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf),
            0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0.0),
            1e-4, np.nextafter(1e-4, 0.0), 1e17, np.nextafter(1e17, 0.0),  # `g` switches form
            1e-29, np.nextafter(1e-29, 1.0), 1.5e-120, 1.7976931348623157e308,  # exponents
            1e14 + 0.125, 1e14 + 0.375, 0.5, 1 / 3, 123456789.0, 0.1, 0.3,  # ties, decimals
            np.nan, np.inf, -np.inf,  # through the fallback
            *self.near_ties(),  # the scaling's error must not cross a tie
        ]
        self.assert_column_matches(edges)
        self.assert_column_matches(np.negative(edges))

    @pytest.mark.parametrize(
        "preset, t_max, n_samples",
        [("fig1", 30.0, 3001), ("fig2", 30.0, 3001), ("fig3-separable", 300.0, 3001),
         ("fig3-entangled", 50.0, 2001)],
    )
    def test_benchmark_grids_match_plain_formatting(self, preset, t_max, n_samples, capsys):
        code, out, _ = run_cli(
            ["evolve", "--preset", preset, "--t-max", str(t_max), "--samples", str(n_samples)],
            capsys,
        )
        config = PRESETS[preset]
        traj = trajectory(config.initial, config.params, t_max, n_samples)
        columns = operator.attrgetter(*CSV_SOURCES.values())(traj)
        rows = (",".join("%.17g" % v for v in row) for row in np.column_stack(columns).tolist())
        assert code == 0
        assert out == "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"


README = Path(__file__).parents[1] / "README.md"


def test_readme_csv_columns_match_evolve():
    (columns,) = re.findall(r"`evolve` emits the columns\s+`([^`]*)`", README.read_text())
    assert " ".join(columns.split()) == ", ".join(CSV_COLUMNS)


def test_readme_flag_table_matches_parser():
    # each row lists the subcommand's flags in order, with the default of each
    # flag that has one; the positional `action` of `preset` reads `list`
    text = README.read_text()
    table = text[text.index("| subcommand | flags |") :].split("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table, flags=re.MULTILINE)
    entry = re.compile(r"`([^`]+)`(?: \(default (\S+)\))?")
    documented = {name: entry.findall(cell) for name, cell in rows}
    expected = {
        name: [
            (flag if flag.startswith("--") else "list", str(FLAGS[flag].get("default", "")))
            for flag in flags.split()
        ]
        for name, _, _, flags in SUBCOMMANDS
    }
    assert documented == expected


def test_readme_library_example_runs(capsys):
    # the README's one python block, so that it stays in step with the API
    readme = README.read_text()
    (code,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].max_deviation <= 1e-12
    assert "NullityVerdict(kind='not-null'" in capsys.readouterr().out


def test_cli_import_loads_only_stdlib_and_numpy():
    # Import time counts in every CLI run; a new third-party import fails here,
    # and so does loading the CSV formatter, whose tables only `evolve` needs.
    code = (
        "import sys; before = set(sys.modules); import xdiscord.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    loaded = proc.stdout.split()
    assert "xdiscord.cli" in loaded
    assert "xdiscord._csvtext" not in loaded
    allowed = sys.stdlib_module_names | {"numpy", "xdiscord"}
    assert [m for m in loaded if m.partition(".")[0] not in allowed] == []


#: Functions whose calls the benchmark counts per layer in its `figures`
#: workload (perfbench's EXERCISED), as `<module>.<function>`.
COUNTED = (
    "dynamics.evolve", "dynamics.find_zeros", "discord.discord",
    "xstate.eigenvalues", "xstate.entropy_bits",
)


@pytest.fixture
def counted_calls(monkeypatch):
    """(function, innermost counted caller or None) of each call of a COUNTED
    function, spied on at every xdiscord module attribute bound to it, as
    the benchmark's tracer wraps them."""
    calls, stack = [], []
    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "xdiscord" and m]

    def spy(qualname, fn):
        def spied(*args, **kwargs):
            calls.append((qualname, stack[-1] if stack else None))
            stack.append(qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return spied

    for qualname in COUNTED:
        module_name, attr = qualname.rsplit(".", 1)
        original = getattr(importlib.import_module(f"xdiscord.{module_name}"), attr)
        wrapper = spy(qualname, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def test_figure_commands_keep_the_benchmark_call_structure(counted_calls, tmp_path):
    # The benchmark counts refinement evaluations as evolve calls under
    # find_zeros, and expects the evolve command to reach the public discord
    # and spectrum entries; zeros computes its discord without them.
    grid = ["--preset", "fig1", "--t-max", "30", "--samples", "3001", "--out", str(tmp_path / "o")]
    assert main(["zeros", *grid]) == 0
    zeros_calls = set(counted_calls)
    assert ("dynamics.evolve", "dynamics.find_zeros") in zeros_calls
    assert {name for name, _ in zeros_calls}.isdisjoint(COUNTED[2:])
    counted_calls.clear()
    assert main(["evolve", *grid]) == 0
    assert {name for name, _ in counted_calls} >= set(COUNTED[2:]) | {"dynamics.evolve"}
