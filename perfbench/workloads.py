"""Workload definitions: the CLI commands one pass of each workload runs.

A pass is the unit of repetition. Every pass of a workload runs the same
commands (in a seed-dependent order for `figures`), so per-pass counts repeat
exactly. Only problem-stating flags are passed: preset, grid, threshold,
Fock cutoff, sweep size and sweep seed. Algorithm knobs such as `--dt` are
left at the program's defaults so that the algorithm behind them may change.

This module imports nothing from the program, so building a workload costs
the same whatever the program imports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Preset grids, spelled out so each command states its problem size and the
#: item count is known without asking the program.
PRESET_GRIDS = {
    "fig1": ("30", 3001),
    "fig2": ("30", 3001),
    "fig3-separable": ("300", 3001),
    "fig3-entangled": ("50", 2001),
}

#: `zeros` thresholds: the program default and a tight one that yields many
#: more golden-section refinements (33 events on fig3-separable).
ZERO_THRESHOLDS = ("5e-3", "1e-4")

#: oracle-check horizon: 300 RK4 steps at the default dt and 4 verified grid
#: times (spacing 0.1); under a second per command on a 2-CPU machine.
ORACLE_T_MAX = "0.3"
ORACLE_GRID_SPACING = 0.1

#: measure-sweep size: the measurement search takes about 77% of a command
#: and the oracle about 10%, while a command stays under a second.
SWEEP_STATES = 300


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without --out) and how to judge its output."""

    argv: tuple[str, ...]
    #: Work items the command completes: grid samples, verified grid times or
    #: random states checked.
    items: int
    #: Key of the recorded reference output, or None for a structural check.
    ref_key: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    #: A run makes whole passes until both `--seconds` have elapsed and at
    #: least this many commands are timed. The tail percentile is fixed from
    #: it, so every run reports the same percentile with >= 10 commands above.
    min_ops: int

    @property
    def tail_quantile(self) -> float:
        return (self.min_ops - 10) / self.min_ops


def _figures(seed: int) -> Workload:
    commands = []
    for preset, (t_max, n) in PRESET_GRIDS.items():
        grid = ("--preset", preset, "--t-max", t_max, "--samples", str(n))
        commands.append(Command(("evolve",) + grid, n, preset))
        for thr in ZERO_THRESHOLDS:
            argv = ("zeros",) + grid + ("--zero-threshold", thr)
            commands.append(Command(argv, n, f"{preset}/{thr}"))
    random.Random(seed).shuffle(commands)
    return Workload("figures", tuple(commands), min_ops=4 * len(commands))


def _oracle_check(seed: int) -> Workload:
    argv = (
        "verify", "--preset", "fig1", "--n-max", "25", "--sweep-states", "0",
        "--t-max", ORACLE_T_MAX,
    )
    n_grid = round(float(ORACLE_T_MAX) / ORACLE_GRID_SPACING) + 1
    return Workload("oracle-check", (Command(argv, n_grid),), min_ops=30)


def sweep_seed(seed: int) -> int:
    """The `verify --seed` a workload seed maps to."""
    return random.Random(seed).randrange(2**31)


def _measure_sweep(seed: int) -> Workload:
    argv = (
        "verify", "--preset", "fig3-separable", "--n-max", "14", "--t-max", "0.1",
        "--sweep-states", str(SWEEP_STATES), "--seed", str(sweep_seed(seed)),
    )
    return Workload("measure-sweep", (Command(argv, SWEEP_STATES),), min_ops=30)


BUILDERS = {
    "figures": _figures,
    "oracle-check": _oracle_check,
    "measure-sweep": _measure_sweep,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
