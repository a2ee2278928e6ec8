"""Record the reference outputs the benchmark checks `evolve` and `zeros` against.

    python3 perfbench/record_reference.py

Run from the repository root. It runs each `figures` command once through
`xdiscord.cli.main` and writes perfbench/reference/evolve.npz (the CSV
columns of each preset) and perfbench/reference/zeros.json (the zero events
of each preset and threshold). The files in the repository were recorded
from the program as it stood when the benchmark was added; re-record only
when a change to the program's output is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import xdiscord.cli as cli

    out = ROOT / ".bench_out" / "reference.tmp"
    out.parent.mkdir(exist_ok=True)
    evolve, zeros = {}, {}
    for command in workloads.build("figures", 0).commands:
        if cli.main(list(command.argv) + ["--out", str(out)]) != 0:
            raise SystemExit(f"command failed: {' '.join(command.argv)}")
        text = out.read_text(encoding="utf-8")
        if command.argv[0] == "evolve":
            header, _, body = text.partition("\n")
            if header != checks.CSV_COLUMNS:
                raise SystemExit(f"unexpected CSV header {header!r}")
            evolve[command.ref_key] = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        else:
            zeros[command.ref_key] = json.loads(text)
    out.unlink()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(checks.REFERENCE_DIR / "evolve.npz", **evolve)
    (checks.REFERENCE_DIR / "zeros.json").write_text(
        json.dumps(dict(sorted(zeros.items())), indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
