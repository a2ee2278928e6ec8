"""Property tests of the batched evolve -> discord kernel, and a check of the
zero-event refinement against a dense kernel scan."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from xdiscord import (
    InvalidStateError,
    TCParams,
    XColumns,
    XState,
    discord,
    evolve,
    preset_config,
    require_valid,
    trajectory,
    validate,
)
from xdiscord.xstate import FIELDS

TWO_PI = 2.0 * math.pi
BREAKDOWN_FIELDS = (
    "mutual_info", "c_m1", "c_m2", "upsilon", "classical_corr", "discord", "concurrence"
)

# Weights and coherence fractions hit the boundaries 0 and 1 exactly as well
# as the interior: empty populations, pure blocks and coherence-free states.
fractions = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
phases = st.floats(0.0, TWO_PI, exclude_max=True)


@st.composite
def xstates(draw):
    """Valid X states: normalized weights, coherences a fraction of their
    positivity bound, random phases."""
    weights = draw(st.lists(fractions, min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3))
    p = np.array(weights) / sum(weights)
    return XState(
        *p,
        r14=draw(fractions) * math.sqrt(p[0] * p[3]),
        phi1=draw(phases),
        r23=draw(fractions) * math.sqrt(p[1] * p[2]),
        phi2=draw(phases),
    )


batches = st.lists(xstates(), min_size=1, max_size=12)
params = st.builds(
    TCParams,
    lam=st.floats(0.1, 3.0),
    kappa=st.floats(0.0, 2.0),
    alpha_sq=st.floats(0.0, 3.0),
)


@given(batches)
def test_batch_equals_rows_one_at_a_time(states):
    batch = discord(XColumns.from_states(states))
    for i, state in enumerate(states):
        got, want = batch.row(i), discord(state)
        for field in BREAKDOWN_FIELDS:
            assert_allclose(getattr(got, field), getattr(want, field), rtol=0, atol=1e-15)


@given(batches)
def test_discord_nonnegative_and_classical_within_mutual(states):
    br = discord(XColumns.from_states(states))
    assert np.all(br.discord >= -1e-12)
    assert np.all(br.classical_corr >= -1e-12)
    assert np.all(br.classical_corr <= br.mutual_info + 1e-12)


@given(xstates(), phases, phases)
def test_breakdown_independent_of_phases(state, phi1, phi2):
    shifted = XState(*state.populations, r14=state.r14, phi1=phi1, r23=state.r23, phi2=phi2)
    a, b = discord(XColumns.from_states([state])), discord(XColumns.from_states([shifted]))
    for field in BREAKDOWN_FIELDS:
        assert_array_equal(getattr(a, field), getattr(b, field))


@given(xstates(), params, st.lists(st.floats(0.0, 60.0), min_size=1, max_size=12))
def test_evolve_over_times_equals_evolve_at_each_time(state, par, times):
    cols = evolve(state, par, np.array(times))
    assert len(cols) == len(times)
    for i, t in enumerate(times):
        row, alone = cols.row(i), evolve(state, par, t)
        assert_allclose(row.populations, alone.populations, rtol=0, atol=1e-15)
        assert_allclose([row.rho14, row.rho23], [alone.rho14, alone.rho23], rtol=0, atol=1e-15)


# A valid state with one field shifted: often still valid, otherwise failing
# one or more checks (trace, a population, a block, finiteness).
shifts = st.one_of(st.just(0.0), st.floats(-0.2, 0.2), st.sampled_from([math.nan, math.inf]))
perturbed = st.tuples(xstates(), st.sampled_from(FIELDS), shifts)


@given(st.lists(perturbed, min_size=1, max_size=8))
def test_require_valid_batch_agrees_with_validate(rows):
    states = []
    for state, field, shift in rows:
        values = {f: getattr(state, f) for f in FIELDS}
        values[field] += shift
        states.append(XState(**values))
    bad = [i for i, s in enumerate(states) if not validate(s).ok]
    if not bad:
        require_valid(XColumns.from_states(states))
        return
    with pytest.raises(InvalidStateError) as info:
        require_valid(XColumns.from_states(states))
    i = bad[0]
    assert str(info.value) == (
        f"row {i} of {len(states)} ({len(bad)} invalid): "
        + "; ".join(validate(states[i]).violations)
    )


@pytest.mark.parametrize("name", ["fig1", "fig3-separable"])
def test_refined_minima_match_dense_scan(name):
    # Each event's minimum is refined inside the bracket of the sampled
    # minimum and its two neighbours. A dense scan of that bracket (20,001
    # kernel points) must find nothing below the refined minimum by more than
    # 1e-13, the rise of the discord over the 1e-6 refinement resolution near
    # these zeros, and its argmin must lie within 1e-6 plus the scan spacing
    # of t_center. A t_center on the event interval's edge was clamped there:
    # the bracket's minimum then lies outside the interval.
    cfg = preset_config(name)
    traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples, zero_threshold=1e-4)
    times, disc = traj.times, traj.breakdowns.discord
    assert traj.zero_events
    for e in traj.zero_events:
        run = np.flatnonzero((times >= e.t_enter) & (times <= e.t_exit))
        k = run[np.argmin(disc[run])]
        scan = np.linspace(times[max(k - 1, 0)], times[min(k + 1, len(times) - 1)], 20001)
        dense = discord(evolve(cfg.initial, cfg.params, scan)).discord
        j = int(np.argmin(dense))
        assert e.min_discord <= disc[run].min()
        assert e.min_discord <= dense[j] + 1e-13
        if e.t_enter < e.t_center < e.t_exit:
            assert abs(e.t_center - scan[j]) <= 1e-6 + (scan[1] - scan[0])
        else:
            assert not e.t_enter <= scan[j] <= e.t_exit
