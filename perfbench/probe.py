"""Host-speed probe: a fixed piece of work that uses no program code.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over tens of seconds (neighbours' load, caches, clocks), far
more than the run-to-run noise of the program itself. The probe runs before
the first command and after every command; a command's latency is scaled by
`REFERENCE_MS` over the mean of the two probes around it, so the timing
metrics read in milliseconds at the host speed at which the probe takes
`REFERENCE_MS`. A change to the program cannot change the probe's time, so
every program gain or regression shows in full.

The work mirrors the program's three kinds of cost, about equal in time:
per-sample float math with numpy calls on 4-element spectra (the trajectory
chain), numpy on a 65x64 angle grid (the measurement search) and dense
complex matrix products at the oracle's size (the master-equation
integrator).
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

#: Probe time, in ms, that scaled timings are expressed at; it is near the
#: probe's median on the 2-vCPU machine the seed baseline was measured on.
#: It fixes the scale only: any constant gives the same ratios between runs.
REFERENCE_MS = 35.0

_THETA = np.linspace(0.0, math.pi / 2, 65)
_PHI = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
_RNG = np.random.default_rng(12345)
_H = _RNG.standard_normal((104, 104)) + 1j * _RNG.standard_normal((104, 104))
_H = 0.01 * (_H + _H.conj().T)
_RHO0 = np.eye(104, dtype=complex) / 104


def _per_sample(n: int) -> float:
    acc = 0.0
    for k in range(n):
        t = 0.01 * k
        r = abs(0.25 * cmath.exp(-1j * t))
        p1, p4 = 0.4 + 0.1 * math.cos(t), 0.4 - 0.1 * math.cos(t)
        mid, rad = 0.5 * (p1 + p4), math.hypot(0.5 * (p1 - p4), r)
        lam = np.clip(np.sort(np.array([mid + rad, mid - rad, 0.1, 0.1]))[::-1], 0.0, None)
        nz = lam[lam > 0.0]
        acc -= float(np.sum(nz * np.log2(nz)))
    return acc


def _grid(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        c = np.cos(_THETA)[:, None] * np.cos(_PHI)[None, :]
        q = 0.5 * (1.0 + 0.6 * c)
        acc += float((-(q * np.log2(q) + (1 - q) * np.log2(1 - q))).min())
    return acc


def _matrix(n: int) -> float:
    rho = _RHO0
    for _ in range(n):
        rho = rho + 1e-3 * (-1j) * (_H @ rho - rho @ _H)
    return float(rho.real.trace())


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _per_sample(600)
    _grid(180)
    _matrix(20)
    return time.perf_counter() - t0
