"""Seeded samplers of the two zero-discord families, and hypothesis
strategies of X states at the edges of validity, for the test suites."""

import math

import numpy as np
from hypothesis import strategies as st

from xdiscord.xstate import DEFAULT_TOL, FIELDS, TWO_PI, XState


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


#: The coherence blocks: each magnitude and the populations of its block.
BLOCKS = {"r14": ("p1", "p4"), "r23": ("p2", "p3")}

_fractions = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_ulps = st.sampled_from([-2, -1, 0, 1, 2])


def _ulp_shift(x: float, n: int) -> float:
    """x moved by n units in the last place."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _edit_magnitude(draw, values):
    """Set one coherence magnitude to the bound sqrt(p*q) +- DEFAULT_TOL, or
    ulps about the tolerant bound sqrt((p + tol)(q + tol)) that the check
    compares against."""
    r = draw(st.sampled_from(sorted(BLOCKS)))
    p, q = (values[f] for f in BLOCKS[r])
    if draw(st.booleans()):
        bound = math.sqrt(max(p * q, 0.0)) + draw(st.sampled_from([-1, 0, 1])) * DEFAULT_TOL
    else:
        tolerant = (p + DEFAULT_TOL) * (q + DEFAULT_TOL)
        bound = _ulp_shift(math.sqrt(max(tolerant, 0.0)), draw(_ulps))
    values[r] = bound


def _edit_trace(draw, values):
    """Move one population so that the trace sits at 1 or 1 +- DEFAULT_TOL,
    give or take a few ulps."""
    field = draw(st.sampled_from(FIELDS[:4]))
    trace = sum(values[f] for f in FIELDS[:4])
    shift = 1.0 - trace + draw(st.sampled_from([-1, 0, 1])) * DEFAULT_TOL
    values[field] = _ulp_shift(values[field] + shift, draw(_ulps))


@st.composite
def _edit(draw, values):
    """Change one field of `values` in place to a value at an edge of a
    check: the 1e-12 scale of DEFAULT_TOL, a population at -DEFAULT_TOL, a
    magnitude at its bound, the trace at 1 +- DEFAULT_TOL, or a non-finite
    field."""
    kind = draw(st.sampled_from(["shift", "set", "population", "magnitude", "trace"]))
    if kind in ("shift", "set"):
        field = draw(st.sampled_from(FIELDS))
        x = draw(st.one_of(
            st.floats(-3e-12, 3e-12), st.sampled_from([-DEFAULT_TOL, math.nan, math.inf, -math.inf])
        ))
        values[field] = values[field] + x if kind == "shift" else x
    elif kind == "population":
        values[draw(st.sampled_from(FIELDS[:4]))] = _ulp_shift(-DEFAULT_TOL, draw(_ulps))
    elif kind == "magnitude":
        _edit_magnitude(draw, values)
    else:
        _edit_trace(draw, values)


@st.composite
def edge_xstates(draw):
    """X states at the edges of validity: a valid state with normalized
    weights and coherences a fraction of their bounds (both blocks on their
    bounds, maybe), then up to three edits, each at the edge of one check
    (_edit). Non-finite edits stay in the XState; a finite phase is wrapped
    to [0, 2*pi) by the constructor."""
    weights = draw(st.lists(_fractions, min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3))
    p = np.array(weights) / sum(weights)
    phases = st.floats(0.0, TWO_PI, exclude_max=True)
    values = dict(zip(FIELDS[:4], p.tolist()))
    on_bound = draw(st.booleans())
    for r, (a, b) in BLOCKS.items():
        values[r] = (1.0 if on_bound else draw(_fractions)) * math.sqrt(values[a] * values[b])
    values["phi1"], values["phi2"] = draw(phases), draw(phases)
    for _ in range(draw(st.integers(0, 3))):
        draw(_edit(values))
    return XState(**values)


@st.composite
def family_edge_xstates(draw):
    """Finite X states at the edges that require_valid tolerates: a state of
    either zero-discord family (coherence-free, or degenerate-balanced with
    any phases) or a generic one, then up to three edits, each of a
    population set to -DEFAULT_TOL/2 (its weight moved to the other
    population of its block, whose magnitude drops to 0), a magnitude at its
    bound (_edit_magnitude) or the trace at 1 +- DEFAULT_TOL (_edit_trace).
    Most draws pass require_valid; some miss it by a tolerance or an ulp."""
    family = draw(st.sampled_from(["coherence-free", "degenerate-balanced", "generic"]))
    if family == "degenerate-balanced":
        top = 0.5 * draw(_fractions)
        bottom = 0.5 - top
        r = draw(_fractions) * math.sqrt(top * bottom)
        values = {"p1": top, "p2": top, "p3": bottom, "p4": bottom, "r14": r, "r23": r}
    else:
        weights = draw(st.lists(_fractions, min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3))
        values = dict(zip(FIELDS[:4], (np.array(weights) / sum(weights)).tolist()))
        for r, (a, b) in BLOCKS.items():
            fraction = 0.0 if family == "coherence-free" else draw(_fractions)
            values[r] = fraction * math.sqrt(values[a] * values[b])
    phases = st.floats(0.0, TWO_PI, exclude_max=True)
    values["phi1"], values["phi2"] = draw(phases), draw(phases)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["population", "magnitude", "trace"]))
        if kind == "population":
            r = draw(st.sampled_from(sorted(BLOCKS)))
            field, other = BLOCKS[r][:: draw(st.sampled_from([1, -1]))]
            values[other] += values[field] + 0.5 * DEFAULT_TOL
            values[field], values[r] = -0.5 * DEFAULT_TOL, 0.0
        elif kind == "magnitude":
            _edit_magnitude(draw, values)
        else:
            _edit_trace(draw, values)
    return XState(**values)
