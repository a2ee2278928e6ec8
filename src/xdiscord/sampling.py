"""Seeded random-state generators for sweeps and property suites."""

from __future__ import annotations

import math

import numpy as np

from .xstate import TWO_PI, XState


def random_xstate(rng: np.random.Generator, boundary_fraction: float = 0.1) -> XState:
    """A random valid X state: Dirichlet populations, coherence magnitudes
    uniform within their positivity bounds, uniform phases. A fraction of
    draws sits exactly on a positivity boundary."""
    p = rng.dirichlet(np.ones(4))
    u = rng.random(2)
    if rng.random() < boundary_fraction:
        u[rng.integers(0, 2)] = 1.0
    r14 = u[0] * math.sqrt(p[0] * p[3])
    r23 = u[1] * math.sqrt(p[1] * p[2])
    phi1, phi2 = rng.uniform(0.0, TWO_PI, 2)
    return XState(p[0], p[1], p[2], p[3], r14=r14, phi1=phi1, r23=r23, phi2=phi2)
