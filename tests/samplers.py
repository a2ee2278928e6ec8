"""Seeded samplers of the two zero-discord families, for the test suites."""

import math

import numpy as np

from xdiscord.xstate import TWO_PI, XState


def random_coherence_free(rng: np.random.Generator) -> XState:
    """A random diagonal (coherence-free) state."""
    p = rng.dirichlet(np.ones(4))
    return XState(p[0], p[1], p[2], p[3])


def random_degenerate_balanced(rng: np.random.Generator) -> XState:
    """A random state with pairwise-degenerate populations and equal coherence
    magnitudes (the nontrivial zero-discord family), arbitrary phases."""
    s = rng.uniform(0.05, 0.95)
    top = 0.5 * s
    bottom = 0.5 * (1.0 - s)
    r = rng.random() * math.sqrt(top * bottom)
    phi1, phi2 = rng.uniform(0.0, TWO_PI, 2)
    return XState(top, top, bottom, bottom, r14=r, phi1=phi1, r23=r, phi2=phi2)
