"""The figure outputs against the benchmark's recorded references.

The benchmark's `figures` commands (`evolve`, and `zeros` at two thresholds,
on the four presets) run through cli.main, and perfbench/checks.py judges each
output with the benchmark's own tolerances: CSV fields within 1e-12, event
times within 1e-6 and min_discord within 1e-9 of perfbench/reference/. The
benchmark's modules are only imported, under names of their own.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from xdiscord.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


checks, workloads = _load("checks"), _load("workloads")
COMMANDS = workloads.build("figures", 0).commands


@pytest.fixture(scope="module")
def reference():
    return checks.Reference()


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: f"{c.argv[0]}-{c.ref_key}")
def test_output_matches_reference(command, reference, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(list(command.argv) + ["--out", str(out)]) == 0
    assert checks.check(command, out.read_text(encoding="utf-8"), reference) is None


def test_all_figure_commands_are_checked():
    assert sorted(f"{c.argv[0]}-{c.ref_key}" for c in COMMANDS) == sorted(
        [f"evolve-{p}" for p in workloads.PRESET_GRIDS]
        + [f"zeros-{p}/{t}" for p in workloads.PRESET_GRIDS for t in workloads.ZERO_THRESHOLDS]
    )
