"""xdiscord benchmark: time one workload end to end and check its outputs.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0

Run from the repository root. The program is imported from ./src, so nothing
needs to be built or installed. The workload runs in a fresh process
(worker.py) with BLAS/OpenMP pools capped at one thread. With `--trace 0`
the end-to-end metrics are printed, set-up time being the median over that
process and several set-up-only ones, and command timings scaled by the
host-speed probe (probe.py); with `--trace 1` the per-layer metrics of a
traced run. Every metric is printed by name and unit,
then a run record, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits nonzero without that line when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh set-up-only processes per `--trace 0` run; the worker's own set-up
#: is one more.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 30
#: Worker time beyond `--seconds`: set-up plus the last whole pass.
WORKER_SLACK_S = 120

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_state() -> dict:
    """The commit, and whether ./src differs from it: a run of an uncommitted
    tree must not read as a run of its parent commit."""
    if not (ROOT / ".git").exists():
        return {"git_commit": "unavailable: not a git checkout"}

    def git(*args):
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
        return done.stdout

    changed = git("status", "--porcelain", "--", "src").splitlines()
    diff = git("diff", "HEAD", "--", "src")
    return {
        "git_commit": git("rev-parse", "HEAD").strip() or "unavailable",
        "git_src_changed_files": len(changed),
        "git_src_diff_sha256": hashlib.sha256(diff.encode()).hexdigest() if changed else None,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(args, env, *extra, timeout) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=list(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xdiscord" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'xdiscord'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # One thread: the load is one closed-loop caller, and a BLAS pool as wide
    # as a shared host's few cores waits on its slowest thread.
    cap = {var: "1" for var in THREAD_VARS}
    env = {**os.environ, **cap}

    probes = 0 if args.trace else SETUP_PROBES
    setups = [
        _worker(args, env, "--setup-only", timeout=PROBE_TIMEOUT_S)["setup_s"]
        for _ in range(probes)
    ]
    result = _worker(args, env, timeout=args.seconds + WORKER_SLACK_S)
    setups.append(result["setup_s"])

    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in result["metrics"].items()}
    else:
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update((k, (v, END_TO_END_UNITS[k])) for k, v in result["metrics"].items())
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": attempted,
        "passes": result["passes"],
        "error_rate": failed / attempted,
        "failures": result["reasons"],
        "op_tail_percentile": 100.0 * result["tail_quantile"],
        "probe_ms_median": result["probe_ms_median"],
        "probe_reference_ms": result["probe_reference_ms"],
        "unscaled": result.get("unscaled"),
        "setup_samples_s": setups,
        "nproc": nproc,
        "thread_cap": cap,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        **_git_state(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
    }
    print("run_record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
