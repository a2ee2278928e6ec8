import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xdiscord import PRESETS, XColumns, discord, minimize_numeric, nullity_check, random_xstate
from xdiscord.cli import CSV_COLUMNS, _write_json, main
from xdiscord.presets import MAX_SAMPLES, config_from_json, state_from_dict, state_to_dict

BELL_STATE_JSON = json.dumps({"populations": [0.5, 0.0, 0.0, 0.5], "r14": 0.5})
EQ9_STATE_JSON = json.dumps(
    {"populations": [0.3, 0.3, 0.2, 0.2], "r14": 0.1, "r23": 0.1}
)
INVALID_STATE_JSON = json.dumps({"populations": [0.25, 0.25, 0.25, 0.25], "r14": 0.3})


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


class TestPresetCommand:
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

    def test_nan_kappa_config_exit_3(self, capsys, tmp_path):
        config = PRESETS["fig1"].to_dict()
        config["params"]["kappa"] = math.nan
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(["evolve", "--config", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_config_serialization_roundtrips_bit_exact(self):
        for config in PRESETS.values():
            assert config_from_json(config.to_json()) == config
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
        assert report["propagator"]["max_deviation"] <= 1e-3
        assert report["measurement_sweep"]["max_gap"] <= 1e-2
        assert "long_time_limit" in report["steady_coherence"]
        assert "as_printed_alternative" in report["steady_coherence"]
        assert "overall: PASS" in err

    def test_undersized_truncation_exit_4(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "1.0", "--n-max", "3",
             "--sweep-states", "5"], capsys
        )
        assert code == 4
        report = json.loads(out)
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

    def test_sweep_gap_is_closed_form_minus_exact_minimum(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--preset", "fig1", "--t-max", "0.5", "--n-max", "15",
             "--sweep-states", "30", "--seed", "7"], capsys
        )
        assert code == 0
        sweep = json.loads(out)["measurement_sweep"]
        rng = np.random.default_rng(7)
        batch = XColumns.from_states([random_xstate(rng) for _ in range(30)])
        br = discord(batch)
        gaps = np.minimum(br.c_m1, br.c_m2) - minimize_numeric(batch)[2]
        assert sweep["max_gap"] == max(float(gaps.max()), 0.0)
        assert sweep["numeric_above_closed_by"] <= 1e-12


class TestJsonOutput:
    def test_non_finite_value_refused(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json({"discord": math.nan}, tmp_path / "out.json")


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
