"""Property tests of the batched evolve -> discord kernel, and a check of the
zero-event refinement against a dense kernel scan."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from xdiscord import (
    InvalidStateError,
    TCParams,
    XColumns,
    XState,
    discord,
    evolve,
    find_zeros,
    preset_config,
    random_xstate,
    require_valid,
    trajectory,
)
from xdiscord.discord import _discord_column
from xdiscord.xstate import DEFAULT_TOL, FIELDS, _batch_passes, _predicates

from samplers import edge_xstates, family_edge_xstates

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


def assert_discord_column_exact(c):
    """find_zeros' discord column has the bits of the public discord's."""
    assert_array_equal(_discord_column(c).view(np.int64), discord(c).discord.view(np.int64))


times_lists = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12)


@given(xstates(), params, times_lists)
def test_evolve_from_a_valid_state_builds_valid_rows(state, par, times):
    # find_zeros computes the discord of the rows evolve builds with
    # _discord_column, which skips require_valid.
    rows = evolve(state, par, np.array(times))
    require_valid(rows)
    assert_discord_column_exact(rows)


def passes_within(c, tol):
    """Each row of the batch passes require_valid's checks at tolerance tol
    in place of DEFAULT_TOL, its fields being finite."""
    q1, q2, q3, q4 = (getattr(c, f) + tol for f in FIELDS[:4])
    ok = np.abs(c.p1 + c.p2 + c.p3 + c.p4 - 1.0) <= tol
    ok &= np.minimum(np.minimum(q1, q2), np.minimum(q3, q4)) >= 0.0
    return ok & (q1 * q4 >= c.r14 * c.r14) & (q2 * q3 >= c.r23 * c.r23)


@given(family_edge_xstates().filter(lambda s: refusal(s) is None), params, times_lists)
@example(XState(0.0, 0.0, 0.5, 0.5, r23=7.071067811872544e-07), TCParams(lam=1.375), [2.0])
@example(XState(-5e-13, -5e-13, 5e-13, 1.0000000000015), TCParams(), [0.0])
def test_evolve_from_a_valid_edge_state_stays_within_twice_the_tolerance(state, par, times):
    # At the edges, evolve's rows can fail require_valid: p3 closes the
    # trace and so absorbs the initial trace's distance from 1, up to
    # DEFAULT_TOL (the second example: p3 = -1.2e-12 at t = 0), and the
    # rotation of a block on its tolerant bound rounds past it (the first:
    # r23^2 exceeds (p2 + 1e-12)*(p3 + 1e-12) by 1 ulp). trajectory refuses
    # such samples. Nothing worse: every row passes the checks at twice
    # DEFAULT_TOL plus 8 units of rounding, the discord column is finite,
    # and it is exact on the rows that pass.
    rows = evolve(state, par, np.array(times))
    assert passes_within(rows, 2.0 * DEFAULT_TOL + 8.0 * np.finfo(float).eps).all()
    assert np.isfinite(_discord_column(rows)).all()
    ok = _batch_passes(*(getattr(rows, f) for f in FIELDS))
    assert_discord_column_exact(XColumns(*(getattr(rows, f)[ok] for f in FIELDS)))


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3-separable", "fig3-entangled"])
def test_discord_column_exact_on_preset_grids(name):
    cfg = preset_config(name)
    assert_discord_column_exact(trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples).states)


@given(st.lists(family_edge_xstates(), min_size=1, max_size=30))
def test_discord_column_exact_on_edge_rows(states):
    valid = [s for s in states if refusal(s) is None]
    assume(valid)
    assert_discord_column_exact(XColumns.from_states(valid))


@given(st.integers(0, 2**32 - 1), st.integers(1, 500))
def test_discord_column_exact_on_random_batches(seed, n):
    assert_discord_column_exact(random_xstate(np.random.default_rng(seed), n))


# A valid state with one field shifted: often still valid, otherwise failing
# one or more checks (trace, a population, a block, finiteness).
shifts = st.one_of(st.just(0.0), st.floats(-0.2, 0.2), st.sampled_from([math.nan, math.inf]))
perturbed = st.tuples(xstates(), st.sampled_from(FIELDS), shifts)


def refusal(state):
    """require_valid's message for an XState or an XColumns batch, or None
    when it is valid."""
    try:
        require_valid(state)
    except InvalidStateError as exc:
        return str(exc)
    return None


@given(st.lists(perturbed, min_size=1, max_size=8))
def test_require_valid_batch_agrees_with_rows(rows):
    states = []
    for state, field, shift in rows:
        values = {f: getattr(state, f) for f in FIELDS}
        values[field] += shift
        states.append(XState(**values))
    messages = [refusal(s) for s in states]
    bad = [i for i, m in enumerate(messages) if m is not None]
    if not bad:
        require_valid(XColumns.from_states(states))
        return
    with pytest.raises(InvalidStateError) as info:
        require_valid(XColumns.from_states(states))
    i = bad[0]
    assert str(info.value) == f"row {i} of {len(states)} ({len(bad)} invalid): {messages[i]}"


def mask_messages(c):
    """The checks as one elementwise mask each, with the message of every
    failed check: for each row of the batch its message, None if it is
    valid. A row with a non-finite field fails that check alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace = c.p1 + c.p2 + c.p3 + c.p4
        finite = np.isfinite(trace + c.r14 + c.phi1 + c.r23 + c.phi2)
        # each block plus 1e-12 times the identity must be positive semidefinite
        outer = (c.p1 + 1e-12) * (c.p4 + 1e-12)
        inner = (c.p2 + 1e-12) * (c.p3 + 1e-12)
        r14_sq, r23_sq = c.r14**2, c.r23**2
        masks = [np.abs(trace - 1.0) > 1e-12]
        masks += [getattr(c, f) < -1e-12 for f in FIELDS[:4]]
        masks += [outer < r14_sq, inner < r23_sq]
    messages = []
    for i in range(len(c)):
        if not finite[i]:
            messages.append(f"non-finite field in {c.row(i)!r}")
            continue
        texts = [f"trace {trace.item(i)!r} differs from 1 by more than 1e-12"]
        texts += [f"population {f} = {getattr(c, f).item(i)!r} is negative" for f in FIELDS[:4]]
        texts += [
            "outer block has an eigenvalue below -1e-12: (p1 + 1e-12)*(p4 + 1e-12) = "
            f"{outer.item(i)!r} < r14^2 = {r14_sq.item(i)!r}",
            "inner block has an eigenvalue below -1e-12: (p2 + 1e-12)*(p3 + 1e-12) = "
            f"{inner.item(i)!r} < r23^2 = {r23_sq.item(i)!r}",
        ]
        failed = [text for text, mask in zip(texts, masks) if mask[i]]
        messages.append("; ".join(failed) if failed else None)
    return messages


@given(st.lists(edge_xstates(), min_size=1, max_size=30))
def test_require_valid_agrees_with_per_check_masks(states):
    # The check on one XState's floats and on a batch's arrays accepts and
    # rejects what the per-check masks do, with their messages: the whole
    # batch, and each state alone as a batch of one.
    want = mask_messages(XColumns.from_states(states))
    assert [refusal(s) for s in states] == want
    for state, message in zip(states, want):
        one = None if message is None else f"row 0 of 1 (1 invalid): {message}"
        assert refusal(XColumns.from_states([state])) == one
    bad = [i for i, m in enumerate(want) if m is not None]
    whole = f"row {bad[0]} of {len(states)} ({len(bad)} invalid): {want[bad[0]]}" if bad else None
    assert refusal(XColumns.from_states(states)) == whole


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
    traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
    times, disc = traj.times, traj.breakdowns.discord
    events = find_zeros(traj, 1e-4)
    assert events
    for e in events:
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


#: Phases no XState holds (it wraps finite phases to [0, 2*pi)), whose sums
#: overflow or cancel in the finiteness check.
raw_phases = st.sampled_from([0.0, 1e308, -1e308, 1.7976931348623157e308, 2.0**970, 1e17, math.nan])


@given(st.lists(st.tuples(edge_xstates(), raw_phases, raw_phases), min_size=1, max_size=30))
@example([(XState(-1e-12, 0.55, 0.55 + 1e-12, -0.1), 0.0, 0.0)])
def test_batch_conjunction_equals_the_per_check_conjunction(rows):
    # Also on XColumns rows with raw phases, the conjunction in fewer
    # passes passes exactly the rows that pass every check of _predicates.
    # The example: p1 at exactly -1e-12 makes its block's product 0, so
    # only the population check refuses p4 = -0.1.
    batch = XColumns.from_states([state for state, _, _ in rows])
    fields = [getattr(batch, f).copy() for f in FIELDS]
    fields[5][:] = [phi1 for _, phi1, _ in rows]
    fields[7][:] = [phi2 for _, _, phi2 in rows]
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.logical_and.reduce(_predicates(*fields))
        assert_array_equal(_batch_passes(*fields), want)
