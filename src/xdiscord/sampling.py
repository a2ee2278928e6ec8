"""Seeded random-state generators for sweeps and property suites.

`random_xstate(rng, n)` draws a batch of n random X states as columns, each
field with one whole-array call; `random_xstate(rng)` draws one state, the
single row of a batch of one. There is one draw path.
"""

from __future__ import annotations

import numbers

import numpy as np

from .xstate import TWO_PI, XColumns


def random_xstate(rng: np.random.Generator, n=None, *, boundary_fraction: float = 0.1):
    """Random valid X states: Dirichlet populations, coherence magnitudes
    uniform within their positivity bounds, uniform phases in [0, 2*pi). In
    about `boundary_fraction` of the rows one of the two magnitudes, either
    one with equal odds, sits exactly on its positivity bound.

    An integer `n` gives an XColumns batch of n rows; `n=None` gives one
    XState, `random_xstate(rng, 1).row(0)`. A negative, fractional or boolean
    `n`, or a `boundary_fraction` outside [0, 1], raises ValueError.
    """
    if n is None:
        return random_xstate(rng, 1, boundary_fraction=boundary_fraction).row(0)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n = {n!r} must be a nonnegative integer")
    if not 0.0 <= boundary_fraction <= 1.0:
        raise ValueError(f"boundary_fraction = {boundary_fraction!r} must lie in [0, 1]")
    p = rng.dirichlet(np.ones(4), n)
    u = rng.random((n, 2))
    hit = np.flatnonzero(rng.random(n) < boundary_fraction)
    u[hit, rng.integers(0, 2, hit.size)] = 1.0
    phi = rng.uniform(0.0, TWO_PI, (n, 2))
    p1, p2, p3, p4 = p.T
    r14 = u[:, 0] * np.sqrt(p1 * p4)
    r23 = u[:, 1] * np.sqrt(p2 * p3)
    return XColumns(p1, p2, p3, p4, r14, phi[:, 0], r23, phi[:, 1])
