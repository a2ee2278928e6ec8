"""Every benchmark command's output, judged as the benchmark judges it.

The benchmark's commands run through cli.main: the `figures` commands
(`evolve`, and `zeros` at two thresholds, on the four presets), the
`oracle-check` command and the `measure-sweep` command at workload seeds 1-3
(the seed picks its sweep seed). perfbench/checks.py judges each output with
the benchmark's own tolerances: CSV fields within 1e-12, event times within
1e-6 and min_discord within 1e-9 of perfbench/reference/, and a `verify`
report by its verdict, propagator deviation and sweep size. Each
`measure-sweep` command's search work is pinned too. The benchmark's
modules are only imported, under names of their own.
"""

import importlib.util
import json
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
#: The commands by test id. Only `measure-sweep` depends on the workload seed.
COMMANDS = {f"{c.argv[0]}-{c.ref_key}": c for c in workloads.build("figures", 0).commands}
(COMMANDS["verify-oracle-check"],) = workloads.build("oracle-check", 0).commands
for _seed in (1, 2, 3):
    (COMMANDS[f"verify-measure-sweep/{_seed}"],) = workloads.build("measure-sweep", _seed).commands


@pytest.fixture(scope="module")
def reference():
    return checks.Reference()


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_reference(name, reference, tmp_path, capsys):
    command = COMMANDS[name]
    out = tmp_path / "out"
    assert main(list(command.argv) + ["--out", str(out)]) == 0
    assert checks.check(command, out.read_text(encoding="utf-8"), reference) is None


@pytest.mark.parametrize("seed, live", [(1, 1), (2, 0), (3, 0)])
def test_measure_sweep_refines_only_interior_rows(seed, live, grid_points, tmp_path):
    # discord's C_m1 and C_m2 of the 300 states, then the search: a probe of
    # 4 points per state, and the 65-point grid and 12 rounds of 8 points
    # for each state whose grid minimum is interior
    out = tmp_path / "out"
    assert main(list(COMMANDS[f"verify-measure-sweep/{seed}"].argv) + ["--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["measurement_sweep"]["interior_optima"] == live
    assert grid_points[0] == 2 * 300
    assert sum(grid_points[1:]) == 1200 + 161 * live


def test_all_benchmark_commands_are_checked():
    assert list(workloads.BUILDERS) == ["figures", "oracle-check", "measure-sweep"]
    assert sorted(COMMANDS) == sorted(
        [f"evolve-{p}" for p in workloads.PRESET_GRIDS]
        + [f"zeros-{p}/{t}" for p in workloads.PRESET_GRIDS for t in workloads.ZERO_THRESHOLDS]
        + ["verify-oracle-check"]
        + [f"verify-measure-sweep/{seed}" for seed in (1, 2, 3)]
    )
