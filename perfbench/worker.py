"""One workload run in a fresh process: set up, loop, check, report.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 [--setup-only]

Set-up is timed from before `import xdiscord` until the workload's commands
are built. The loop is closed: one caller runs the next CLI command when the
previous one returns, calling `xdiscord.cli.main(argv)` in-process with
`--out` pointed at a file under DIR/.bench_out. The host-speed probe
(probe.py) runs before the first command and after each one, and each
latency is also kept scaled to the probe's reference speed. Every output is
checked against the reference gate; a nonzero exit, an exception or a
rejected output counts as a failed command. The last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def setup(root: Path, name: str, seed: int):
    # Benchmark modules that import numpy (checks, spans, probe) are imported
    # only after this, so numpy's import counts toward the program's set-up.
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import xdiscord.cli as cli

    workload = workloads.build(name, seed)
    setup_s = time.perf_counter() - t0
    where = Path(cli.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise SystemExit(f"xdiscord imported from {where}, not from {root / 'src'}")
    return cli, workload, setup_s


def _oracle_counts(text: str) -> tuple[int, int]:
    """RK4 steps (t_max/dt, from the verify JSON) and the joint density
    matrix size in bytes, computed as 16*(4*(n_max+1))**2."""
    prop = json.loads(text)["propagator"]
    steps = round(prop["t_max"] / prop["dt"]) if "dt" in prop else 0
    return steps, 16 * (4 * (prop["n_max"] + 1)) ** 2


def run_command(cli, command, out_path: Path, reference) -> dict:
    import checks

    argv = list(command.argv) + ["--out", str(out_path)]
    out_path.unlink(missing_ok=True)
    err = io.StringIO()
    reason = None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # the program failed; count it and go on
            code, reason = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
    op = {"latency": latency, "items": command.items, "out_bytes": 0, "steps": 0, "state_bytes": 0}
    if code is not None and code != 0:
        tail = err.getvalue().strip().splitlines()
        reason = f"exit {code}: {tail[-1] if tail else ''}"
    if reason is None:
        try:
            text = out_path.read_text(encoding="utf-8")
            op["out_bytes"] = out_path.stat().st_size
            reason = checks.check(command, text, reference)
            if reason is None and command.argv[0] == "verify":
                op["steps"], op["state_bytes"] = _oracle_counts(text)
        except Exception as exc:  # unreadable output is a failed command
            reason = f"output rejected: {type(exc).__name__}: {exc}"
    op["reason"] = reason
    return op


def run_loop(cli, workload, reference, seconds: float, out_path: Path, tracer=None) -> list:
    """Whole passes until `seconds` have passed and enough commands are in:
    `workload.min_ops` untraced, or with a tracer at least one untraced and
    one traced pass (they alternate, untraced first)."""
    import probe

    ops = []
    t_start = time.perf_counter()
    n_pass = 0
    probe_before = probe.probe()
    while True:
        traced = tracer is not None and n_pass % 2 == 1
        if traced:
            tracer.install()
        try:
            for command in workload.commands:
                if tracer is not None:
                    tracer.current_op = len(ops)
                op = run_command(cli, command, out_path, reference)
                probe_after = probe.probe()
                probe_ms = 500.0 * (probe_before + probe_after)
                probe_before = probe_after
                op.update({
                    "pass": n_pass,
                    "traced": traced,
                    "probe_ms": probe_ms,
                    "scaled": op["latency"] * probe.REFERENCE_MS / probe_ms,
                })
                ops.append(op)
        finally:
            if traced:
                tracer.uninstall()
        n_pass += 1
        done = n_pass >= 2 if tracer is not None else len(ops) >= workload.min_ops
        if done and time.perf_counter() - t_start >= seconds:
            return ops


def _items_per_s(ops, latency="scaled") -> float:
    """Median over passes of the items that passed the gate per second of
    command latency; a median, like op_p50_ms, so one slow stretch of a
    shared machine moves it less than a run-wide mean."""
    per_pass = {}
    for op in ops:
        items, secs = per_pass.get(op["pass"], (0, 0.0))
        ok_items = op["items"] if op["reason"] is None else 0
        per_pass[op["pass"]] = (items + ok_items, secs + op[latency])
    return statistics.median(items / secs for items, secs in per_pass.values())


def _timings(ops, workload, latency) -> dict:
    import numpy as np

    lat_ms = np.array([op[latency] for op in ops]) * 1e3
    return {
        "items_per_s": _items_per_s(ops, latency),
        "op_p50_ms": float(np.quantile(lat_ms, 0.5)),
        "op_tail_ms": float(np.quantile(lat_ms, workload.tail_quantile)),
    }


def end_to_end(ops, workload) -> dict:
    """Timing metrics from the probe-scaled latencies, and peak memory."""
    return {
        **_timings(ops, workload, "scaled"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: Per-layer counts taken from each command's output, per traced pass.
OP_COUNTS = {
    "oracle.integrate.steps": "steps",
    "oracle.state_bytes": "state_bytes",
    "cli.out_bytes": "out_bytes",
}


def _per_pass(total: int, n: int):
    return total // n if total % n == 0 else total / n


def per_layer(ops, tracer, spans_path: Path) -> dict:
    """Per-layer metrics, per traced pass: calls, self and total time (ms)
    of each traced function, and the counts taken from the outputs."""
    import numpy as np
    import spans

    traced_ops = [i for i, op in enumerate(ops) if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n_traced = len({ops[i]["pass"] for i in traced_ops})
    arrays = tracer.arrays()
    np.savez(spans_path, functions=np.array(spans.FUNCTIONS), **arrays)
    summary = spans.summarize(arrays, traced_ops)

    metrics = {}
    for qualname in spans.FUNCTIONS:
        s = summary[qualname]
        metrics[f"{qualname}.calls"] = _per_pass(s["calls"], n_traced)
        metrics[f"{qualname}.self_ms"] = 1e3 * s["self_s"] / n_traced
        metrics[f"{qualname}.total_ms"] = 1e3 * s["total_s"] / n_traced
    metrics["dynamics.find_zeros.refine_evals"] = _per_pass(
        summary["dynamics.find_zeros"]["refine_evals"], n_traced
    )
    for name, key in OP_COUNTS.items():
        metrics[name] = _per_pass(sum(ops[i][key] for i in traced_ops), n_traced)
    traced_rate = _items_per_s([ops[i] for i in traced_ops])
    untraced_rate = _items_per_s(untraced)
    metrics["trace.items_per_s"] = traced_rate
    metrics["trace.untraced_items_per_s"] = untraced_rate
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / untraced_rate)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, workload, setup_s = setup(args.root, args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import spans
    from probe import REFERENCE_MS

    out_dir = args.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"out-{args.workload}.txt"
    tracer = spans.Tracer() if args.trace else None
    try:
        ops = run_loop(cli, workload, checks.Reference(), args.seconds, out_path, tracer)
    finally:
        out_path.unlink(missing_ok=True)

    result = {
        "setup_s": setup_s,
        "attempted": len(ops),
        "failed": sum(op["reason"] is not None for op in ops),
        "reasons": sorted({op["reason"] for op in ops if op["reason"] is not None})[:5],
        "passes": ops[-1]["pass"] + 1,
        "tail_quantile": workload.tail_quantile,
        "probe_ms_median": statistics.median(op["probe_ms"] for op in ops),
        "probe_reference_ms": REFERENCE_MS,
    }
    if tracer is None:
        result["metrics"] = end_to_end(ops, workload)
        result["unscaled"] = _timings(ops, workload, "latency")
    else:
        result["metrics"] = per_layer(ops, tracer, out_dir / f"{args.workload}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
