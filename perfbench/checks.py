"""Reference-output gate: judge one command's output file.

`evolve` and `zeros` outputs are compared against the outputs recorded at the
commit that introduced the benchmark (see record_reference.py). `verify`
outputs depend on the sweep seed, so they are checked structurally: the run
passes, the propagator deviation is within the acceptance bound and the sweep
checked the requested number of states.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CSV_COLUMNS = (
    "lambda_t,rho11,rho22,rho33,rho44,abs_rho14,abs_rho23,"
    "mutual_info,c_m1,c_m2,classical_corr,discord,concurrence"
)
CSV_TOL = 1e-12
EVENT_TIME_TOL = 1e-6
EVENT_MIN_TOL = 1e-9
PROPAGATOR_TOL = 1e-3


class Reference:
    """Recorded evolve columns (one array per preset) and zero-event lists."""

    def __init__(self):
        with np.load(REFERENCE_DIR / "evolve.npz") as data:
            self.evolve = {key: data[key] for key in data.files}
        self.zeros = json.loads((REFERENCE_DIR / "zeros.json").read_text(encoding="utf-8"))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _load_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def check_evolve(text: str, expected: np.ndarray) -> str | None:
    header, _, body = text.partition("\n")
    if header != CSV_COLUMNS:
        return f"CSV header {header[:80]!r} differs"
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape != expected.shape:
        return f"CSV shape {rows.shape} != {expected.shape}"
    dev = np.abs(rows - expected)
    if not np.all(dev <= CSV_TOL):  # also false for NaN
        r, c = np.unravel_index(np.nanargmax(np.where(np.isnan(dev), np.inf, dev)), dev.shape)
        return f"CSV field row {r} col {c} deviates by {dev[r, c]:.3e}"
    return None


def check_zeros(text: str, expected: list) -> str | None:
    events = _load_json(text)
    if len(events) != len(expected):
        return f"{len(events)} zero events, reference has {len(expected)}"
    for k, (got, ref) in enumerate(zip(events, expected)):
        if got["kind"] != ref["kind"]:
            return f"event {k} kind {got['kind']!r} != {ref['kind']!r}"
        for key in ("t_center", "t_enter", "t_exit"):
            if not abs(got[key] - ref[key]) <= EVENT_TIME_TOL:
                return f"event {k} {key} {got[key]!r} != {ref[key]!r}"
        if not abs(got["min_discord"] - ref["min_discord"]) <= EVENT_MIN_TOL:
            return f"event {k} min_discord {got['min_discord']!r} != {ref['min_discord']!r}"
    return None


def check_verify(text: str, sweep_states: int) -> str | None:
    report = _load_json(text)
    if report.get("pass") is not True:
        return "verify did not pass"
    deviation = report["propagator"]["max_deviation"]
    if not (math.isfinite(deviation) and deviation <= PROPAGATOR_TOL):
        return f"propagator max_deviation {deviation!r} above {PROPAGATOR_TOL}"
    if report["measurement_sweep"]["n_states"] != sweep_states:
        return f"sweep checked {report['measurement_sweep']['n_states']} states"
    return None


def check(command, text: str, reference: Reference) -> str | None:
    """None when the output of `command` is right, else a one-line reason."""
    argv = command.argv
    if argv[0] == "evolve":
        return check_evolve(text, reference.evolve[command.ref_key])
    if argv[0] == "zeros":
        return check_zeros(text, reference.zeros[command.ref_key])
    if argv[0] == "verify":
        return check_verify(text, int(argv[argv.index("--sweep-states") + 1]))
    return f"no check for command {argv[0]!r}"
