"""Self-tests of the benchmark: smoke runs, exact counts, metric names and the
reference gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import spans
import worker
import workloads
import xdiscord.cli as cli

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Layer metrics each workload must exercise (nonzero), and ones it must not.
EXERCISED = {
    "figures": (
        "cli.main.calls", "cli.out_bytes", "dynamics.trajectory.calls", "dynamics.evolve.calls",
        "dynamics.find_zeros.calls", "dynamics.find_zeros.refine_evals", "discord.discord.calls",
        "xstate.require_valid.calls", "xstate.entropy_bits.calls", "xstate.eigenvalues.calls",
    ),
    "oracle-check": (
        "oracle.compare.calls", "oracle.integrate.calls", "oracle.trace_out_field.calls",
        "oracle.integrate.steps", "oracle.state_bytes", "dynamics.evolve.calls",
    ),
    "measure-sweep": (
        "discord.minimize_numeric.calls", "sampling.random_xstate.calls", "discord.discord.calls",
        "oracle.integrate.calls",
    ),
}
UNUSED = {
    "figures": ("oracle.compare.calls", "oracle.integrate.calls", "discord.minimize_numeric.calls"),
    "oracle-check": ("discord.discord.calls", "dynamics.trajectory.calls"),
    "measure-sweep": ("dynamics.trajectory.calls",),
}
COUNT_UNITS = ("count", "B")


@pytest.fixture(scope="module")
def reference():
    return checks.Reference()


def _one_pass(name, seed=5):
    return replace(workloads.build(name, seed), min_ops=1)


def _traced_run(name, reference, tmp_path):
    tracer = spans.Tracer()
    ops = worker.run_loop(cli, _one_pass(name), reference, 0.0, tmp_path / "out.txt", tracer)
    metrics = worker.per_layer(ops, tracer, tmp_path / "spans.npz")
    return ops, metrics


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_smoke_run_counts_repeat_exactly(name, reference, tmp_path):
    ops1, first = _traced_run(name, reference, tmp_path)
    ops2, second = _traced_run(name, reference, tmp_path)
    assert [op["reason"] for op in ops1 + ops2] == [None] * (len(ops1) + len(ops2))
    assert {op["traced"] for op in ops1} == {False, True}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [k for k in first if units[k] in COUNT_UNITS]
    assert counts and all(isinstance(first[k], int) for k in counts)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert all(first[k] > 0 for k in EXERCISED[name])
    assert all(first[k] == 0 for k in UNUSED[name])

    untraced = [op for op in ops1 if not op["traced"]]
    e2e = worker.end_to_end(untraced, workloads.build(name, 5))
    assert set(e2e) == set(run.END_TO_END_UNITS) - {"setup_s"}
    assert all(v > 0 for v in e2e.values())
    assert all(op["probe_ms"] > 0 and op["scaled"] > 0 for op in ops1)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [f"{f}.{s}" for f in spans.FUNCTIONS for s in ("calls", "self_ms", "total_ms")]
    layer_names += ["dynamics.find_zeros.refine_evals", *worker.OP_COUNTS]
    layer_names += ["trace.items_per_s", "trace.untraced_items_per_s", "trace.overhead_pct"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in layer_names
    }


class _CorruptingCli:
    """Runs the real CLI, then nudges the second CSV field of the first row."""

    def main(self, argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        header, first, rest = out.read_text().split("\n", 2)
        fields = first.split(",")
        fields[1] = f"{float(fields[1]) + 1e-9:.17g}"
        out.write_text("\n".join((header, ",".join(fields), rest)))
        return code


class _RaisingCli:
    def main(self, argv):
        raise RuntimeError("boom")


class _FailingCli:
    def main(self, argv):
        return 4


@pytest.mark.parametrize("fake", [_CorruptingCli(), _RaisingCli(), _FailingCli()])
def test_failed_command_counts_in_error_rate(fake, reference, tmp_path):
    evolve_fig1 = next(c for c in workloads.build("figures", 0).commands if c.ref_key == "fig1")
    workload = workloads.Workload("one", (evolve_fig1,), min_ops=1)
    ops = worker.run_loop(fake, workload, reference, 0.0, tmp_path / "out.txt")
    assert len(ops) == 1 and ops[0]["reason"] is not None


def test_zero_event_and_verify_checks(reference):
    events = reference.zeros["fig1/5e-3"]
    assert len(events) == 8
    assert checks.check_zeros(json.dumps(events), events) is None
    assert "zero events" in checks.check_zeros(json.dumps(events[:-1]), events)
    moved = [dict(events[0], t_center=events[0]["t_center"] + 1e-5)] + events[1:]
    assert "t_center" in checks.check_zeros(json.dumps(moved), events)
    report = {"pass": True, "propagator": {"max_deviation": float("nan")},
              "measurement_sweep": {"n_states": 0}}
    with pytest.raises(ValueError):
        checks.check_verify(json.dumps(report), 0)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
