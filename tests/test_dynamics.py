import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xdiscord import (
    ASYMPTOTIC,
    DISCRETE,
    PERIODIC_MEMBER,
    DispersiveRegimeWarning,
    TCParams,
    XState,
    discord,
    evolve,
    find_zeros,
    lambda_from_g_delta,
    preset_config,
    random_xstate,
    steady_coherence,
    steady_coherence_as_printed,
    require_valid,
    trajectory,
)
from xdiscord import dynamics
from xdiscord.dynamics import LOOKAHEAD, _golden_min

TWO_PI = 2.0 * math.pi


class TestLambdaFromGDelta:
    def test_basic_value(self):
        assert_allclose(lambda_from_g_delta(1.0, 50.0), 0.01)

    def test_negative_detuning_gives_magnitude(self):
        assert_allclose(lambda_from_g_delta(2.0, -40.0), 0.05)

    def test_dispersive_guard_warns(self):
        with pytest.warns(DispersiveRegimeWarning):
            value = lambda_from_g_delta(1.0, 5.0)
        assert_allclose(value, 0.1)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_g_delta(1.0, 0.0)

    @pytest.mark.parametrize(
        "g, delta, text",
        [
            (1.0, math.nan, "delta = nan must be finite"),
            (math.nan, 20.0, "g = nan and"),
            (math.inf, 20.0, "g = inf and"),
            (1.0, -math.inf, "delta = -inf must be finite"),
            (0.0, 5.0, "g = 0.0 must be nonzero"),
            (1e-200, 1.0, r"give lam = 0\.0, not finite and positive"),
            (1e-170, -1e150, r"give lam = 0\.0, not finite and positive"),
        ],
    )
    def test_non_finite_or_zero_coupling_rejected(self, g, delta, text):
        # each used to return nan or 0.0, which no TCParams takes as lam
        with pytest.raises(ValueError, match=text):
            lambda_from_g_delta(g, delta)

    @pytest.mark.parametrize(
        "g, delta, lam",
        [(1e200, 1e300, 5e99), (1e160, -1e170, 5e149), (1e300, 1e308, 5e291)],
    )
    def test_large_coupling_does_not_overflow(self, g, delta, lam):
        # g*g overflowed to inf (or inf/inf = nan) although lam is finite
        assert_allclose(lambda_from_g_delta(g, delta), lam, rtol=1e-15)


class TestEvolve:
    def test_inner_block_at_zero_and_quarter_cycle(self):
        # p2(t) = c_plus + c_minus*cos(lam t) - c2*sin(lam t) and
        # rho23(t) = c1 + i*(c2*cos(lam t) + c_minus*sin(lam t)), with
        # c_plus/c_minus = (p2(0) +- p3(0))/2 and rho23(0) = c1 + i*c2
        s = XState(0.25, 3 / 16, 5 / 16, 0.25, r23=0.05, phi2=0.4)
        c_plus, c_minus = 0.5 * (s.p2 + s.p3), 0.5 * (s.p2 - s.p3)
        c1, c2 = s.rho23.real, s.rho23.imag
        cols = evolve(s, TCParams(), [0.0, math.pi / 2])
        rho23 = cols.r23 * np.exp(1j * cols.phi2)
        assert_allclose(cols.p2, [s.p2, c_plus - c2], atol=1e-15)
        assert_allclose(rho23, [s.rho23, complex(c1, c_minus)], atol=1e-15)

    def test_identity_at_t_zero(self):
        rng = np.random.default_rng(30)
        params = TCParams(lam=1.0, kappa=0.07, alpha_sq=0.9)
        for _ in range(20):
            s = random_xstate(rng)
            out = evolve(s, params, 0.0)
            assert_allclose(out.populations, s.populations, atol=1e-15)
            assert_allclose(out.rho14, s.rho14, atol=1e-15)
            assert_allclose(out.rho23, s.rho23, atol=1e-15)

    def test_negative_time_rejected(self):
        for t in (-1.0, math.inf, math.nan, [0.0, -1.0]):
            with pytest.raises(ValueError):
                evolve(XState(0.25, 0.25, 0.25, 0.25), TCParams(), t)

    @pytest.mark.parametrize("t", [0.0, [0.0, 1.0, 10.0]])
    def test_non_finite_propagation_rejected(self, t):
        # lam*t and 2*lam overflow; this used to warn and return NaN
        # coherences, which the validity check then blamed on the state
        cfg = preset_config("fig1")
        params = TCParams(lam=1e308, kappa=cfg.params.kappa, alpha_sq=cfg.params.alpha_sq)
        with pytest.raises(ValueError, match="^the analytic propagation is not finite$"):
            evolve(cfg.initial, params, t)

    def test_fig3_separable_inner_block_frozen(self):
        cfg = preset_config("fig3-separable")
        for t in np.linspace(0.0, 40.0, 37):
            out = evolve(cfg.initial, cfg.params, float(t))
            assert_allclose(out.p2, 0.25, atol=1e-15)
            assert_allclose(out.r23, 0.0736, atol=1e-15)

    def test_fig1_population_degeneracy_at_quarter_cycle(self):
        cfg = preset_config("fig1")
        out = evolve(cfg.initial, cfg.params, math.pi / 2)
        assert_allclose(out.p2, 0.25, atol=1e-15)
        assert_allclose(out.p3, 0.25, atol=1e-15)

    def test_constants_of_motion(self):
        rng = np.random.default_rng(32)
        params = TCParams(lam=1.0, kappa=0.2, alpha_sq=1.1)
        for _ in range(25):
            s = random_xstate(rng)
            t = float(rng.uniform(0.0, 50.0))
            out = evolve(s, params, t)
            assert out.p1 == s.p1
            assert out.p4 == s.p4
            assert_allclose(sum(out.populations), 1.0, atol=1e-15)

    def test_inner_coherence_periodic(self):
        rng = np.random.default_rng(34)
        params = TCParams(lam=1.0, kappa=0.15, alpha_sq=0.7)
        for _ in range(25):
            s = random_xstate(rng)
            t = float(rng.uniform(0.0, 20.0))
            a = evolve(s, params, t)
            b = evolve(s, params, t + TWO_PI)
            assert_allclose(b.r23, a.r23, atol=1e-12)

    def test_outer_coherence_periodic_without_damping(self):
        s = XState(0.3, 0.2, 0.2, 0.3, r14=0.2, r23=0.1)
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.8)
        for t in (0.3, 2.0, 5.5):
            a = evolve(s, params, t)
            b = evolve(s, params, t + TWO_PI)
            assert_allclose(b.r14, a.r14, atol=1e-12)

    def test_outer_envelope_decays_to_steady_value(self):
        s = XState(0.3, 0.2, 0.2, 0.3, r14=0.2, r23=0.1)
        params = TCParams(lam=1.0, kappa=0.1, alpha_sq=0.9)
        # sample the oscillation at its period; the envelope never increases
        samples = [evolve(s, params, n * math.pi).r14 for n in range(0, 60)]
        assert all(a >= b - 1e-12 for a, b in zip(samples, samples[1:]))
        assert_allclose(samples[-1], steady_coherence(s.r14, params), rtol=1e-6)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(36)
        params = TCParams(lam=1.0, kappa=0.05, alpha_sq=1.0)
        for _ in range(30):
            s = random_xstate(rng)
            for t in rng.uniform(0.0, 40.0, 6):
                require_valid(evolve(s, params, float(t)))


class TestSteadyCoherence:
    def test_no_field_no_dephasing(self):
        params = TCParams(lam=1.0, kappa=0.3, alpha_sq=0.0)
        assert steady_coherence(0.25, params) == 0.25

    def test_fig3_value(self):
        params = TCParams(lam=1.0, kappa=0.05, alpha_sq=1.0)
        value = steady_coherence(0.2, params)
        assert_allclose(value, 0.0736218587971385, atol=1e-15)
        assert_allclose(value, 0.0736, atol=5e-4)

    def test_fast_decay_limit(self):
        params = TCParams(lam=1.0, kappa=1e9, alpha_sq=1.0)
        assert_allclose(steady_coherence(0.25, params), 0.25, rtol=1e-8)

    @pytest.mark.parametrize(
        "lam, kappa", [(1e200, 0.0), (1e200, 1e-200), (1e-200, 1.0), (1.0, 1e155), (1e300, 1e300)]
    )
    def test_extreme_rates_stay_finite(self, lam, kappa):
        # lam^2 or kappa^2 overflows a float here; neither value needs it
        params = TCParams(lam=lam, kappa=kappa, alpha_sq=1.0)
        for value in (steady_coherence(0.25, params), steady_coherence_as_printed(0.25, params)):
            assert math.isfinite(value) and 0.0 <= value <= 0.25

    def test_as_printed_disagrees(self):
        params = TCParams(lam=1.0, kappa=0.05, alpha_sq=1.0)
        printed = steady_coherence_as_printed(0.2, params)
        assert_allclose(printed, 0.2 * math.exp(-4.0 / (0.05**2 + 16.0)), atol=1e-15)
        assert abs(printed - 0.0736) > 0.05


class TestTrajectory:
    def test_degenerate_grid_rejected(self):
        s = XState(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError):
            trajectory(s, TCParams(), t_max=0.0, n_samples=2)
        with pytest.raises(ValueError):
            trajectory(s, TCParams(), t_max=10.0, n_samples=1)
        for t_max in (math.inf, math.nan):
            with pytest.raises(ValueError):
                trajectory(s, TCParams(), t_max=t_max, n_samples=2)

    def test_grid_and_payload(self):
        cfg = preset_config("fig1")
        traj = trajectory(cfg.initial, cfg.params, 5.0, 51)
        assert_allclose(traj.times, np.linspace(0.0, 5.0, 51))
        assert len(traj.states) == 51
        assert len(traj.breakdowns) == 51
        assert traj.states.r14.shape == traj.breakdowns.discord.shape == (51,)

    def test_fig3_separable_reaches_zero_discord(self):
        cfg = preset_config("fig3-separable")
        traj = trajectory(cfg.initial, cfg.params, 300.0, 1501)
        assert traj.breakdowns.discord[-1] <= 1e-3

    def test_fig3_entangled_discord_never_small(self):
        cfg = preset_config("fig3-entangled")
        traj = trajectory(cfg.initial, cfg.params, 50.0, 1001)
        assert traj.breakdowns.discord.min() > 1e-2


class TestFindZeros:
    def test_balanced_diagonal_state_is_one_asymptotic_event(self):
        # p2 = p3 keeps the exchange from building inner coherence, so the
        # state stays coherence-free and the discord is zero for all times
        s = XState(0.4, 0.25, 0.25, 0.1)
        traj = trajectory(s, TCParams(lam=1.0, kappa=0.1, alpha_sq=0.5), 20.0, 401)
        (event,) = find_zeros(traj)
        assert event.kind == ASYMPTOTIC
        assert event.t_enter == 0.0
        assert event.t_exit == 20.0
        assert event.min_discord <= 1e-12

    def test_unbalanced_diagonal_state_grows_coherence(self):
        # with p2 != p3 the exchange interaction converts the population
        # imbalance into inner coherence, so the discord leaves zero between
        # the instants where sin(lam t) = 0
        s = XState(0.4, 0.3, 0.2, 0.1)
        traj = trajectory(s, TCParams(lam=1.0, kappa=0.1, alpha_sq=0.5), 20.0, 401)
        mid = evolve(s, TCParams(lam=1.0, kappa=0.1, alpha_sq=0.5), math.pi / 2)
        assert mid.r23 > 0.04
        events = find_zeros(traj)
        assert len(events) > 1
        assert all(e.min_discord <= 1e-10 for e in events)

    def test_events_sorted_and_disjoint(self):
        cfg = preset_config("fig1")
        traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
        events = find_zeros(traj)
        for a, b in zip(events, events[1:]):
            assert a.t_exit <= b.t_enter
        for e in events:
            assert e.t_enter <= e.t_center <= e.t_exit
            assert e.min_discord < 5e-3

    def test_refinement_locates_fig1_exact_zero(self):
        cfg = preset_config("fig1")
        traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
        (event,) = find_zeros(traj, 1e-4)
        assert event.kind == DISCRETE
        assert abs(event.t_center - math.pi / 2) < 1e-4
        assert event.min_discord < 1e-8

    # The exact-zero structure of the bundled scenarios shows up at a tight
    # threshold (1e-4): shallow near-zero dips recur each half cycle, but the
    # discord only truly vanishes where the coherence magnitudes merge on a
    # population-degeneracy instant.

    def test_fig1_single_exact_zero_in_first_cycle(self):
        cfg = preset_config("fig1")
        traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
        (event,) = find_zeros(traj, 1e-4)
        assert 0.0 < event.t_center <= TWO_PI

    def test_fig2_no_early_zero_then_periodic(self):
        cfg = preset_config("fig2")
        traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
        events = find_zeros(traj, 1e-4)
        assert events, "expected zero events at later times"
        assert all(e.t_center >= TWO_PI for e in events)
        assert sum(1 for e in events if e.kind == PERIODIC_MEMBER) >= 2

    def test_non_finite_threshold_rejected(self):
        cfg = preset_config("fig1")
        traj = trajectory(cfg.initial, cfg.params, 5.0, 11)
        for threshold in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                find_zeros(traj, threshold)

    def test_find_zeros_empty_trajectory_rejected(self):
        cfg = preset_config("fig1")
        traj = trajectory(cfg.initial, cfg.params, 5.0, 11)
        pruned = traj.__class__(
            times=np.array([]), states=(),
            initial=traj.initial, params=traj.params,
        )
        with pytest.raises(ValueError):
            find_zeros(pruned, 5e-3)


def sequential_golden_min(fn, a, b, tol):
    """Reference lockstep golden-section search with one fn call per step,
    which the lookahead search must match bit for bit. Returns the midpoints,
    fn there, each bracket's number of steps and its (a, b, c, d) after
    every step: a (steps + 1, 4, len(a)) array, frozen once it stops."""
    gr = (1.0 + math.sqrt(5.0)) / 2.0
    a, b = a.copy(), b.copy()
    c = b - (b - a) / gr
    d = a + (b - a) / gr
    fc, fd = np.split(fn(np.concatenate([c, d])), 2)
    active = np.abs(c - d) > tol
    steps = np.zeros(len(a), dtype=int)
    nodes = [np.stack([a, b, c, d])]
    while active.any():
        i = np.flatnonzero(active)
        steps[i] += 1
        left = fc[i] < fd[i]
        lo, hi = i[left], i[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - (b[lo] - a[lo]) / gr
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + (b[hi] - a[hi]) / gr
        f = fn(np.concatenate([c[lo], d[hi]]))
        fc[lo], fd[hi] = f[: lo.size], f[lo.size :]
        active[i] = np.abs(c[i] - d[i]) > tol
        nodes.append(np.stack([a, b, c, d]))
    m = 0.5 * (a + b)
    return m, fn(m), steps, np.array(nodes)


def stop_nodes(node, levels, tol, parent_wide=True):
    """The nodes where a walk can stop, within tol with a parent wider, in
    the tree of a node (a, b, c, d) and its steps `levels` deep: a scalar
    model of the midpoints a lookahead call evaluates besides its points."""
    a, b, c, d = node
    wide = abs(c - d) > tol
    count = int(parent_wide and not wide)
    if levels:
        gr = (1.0 + math.sqrt(5.0)) / 2.0
        for child in ((a, d, d - (d - a) / gr, c), (c, b, d, c + (b - c) / gr)):
            count += stop_nodes(child, levels - 1, tol, wide)
    return count


#: Elementwise test functions of (x, x0): a smooth bowl, a staircase of
#: plateaus, a bowl with a flat bottom, a constant (every comparison a tie)
#: and a wiggle with many local minima.
SHAPES = {
    "bowl": lambda x, x0: (x - x0) ** 2,
    "stairs": lambda x, x0: np.floor(4.0 * np.abs(x - x0)),
    "flat-bottom": lambda x, x0: np.maximum((x - x0) ** 2, 0.5),
    "constant": lambda x, x0: np.zeros_like(x),
    "wiggle": lambda x, x0: np.cos(7.0 * x) + 0.1 * (x - x0),
}

#: Bracket widths: some already within tol at the start, the rest spread over
#: decades so that brackets finish in different rounds.
WIDTHS = st.one_of(st.sampled_from([0.0, 1e-9, 2e-6, 4.2e-6]), st.floats(1e-6, 10.0))


def refined_brackets(monkeypatch, preset, thresholds):
    """The (a, b, tol) of every search find_zeros makes on the preset's
    figure grid at each threshold, and the trajectory."""
    cfg = preset_config(preset)
    traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
    searches = []

    def spy(fn, a, b, tol):
        searches.append((a.copy(), b.copy(), tol))
        return _golden_min(fn, a, b, tol)

    monkeypatch.setattr(dynamics, "_golden_min", spy)
    for threshold in thresholds:
        find_zeros(traj, threshold)
    monkeypatch.undo()
    return searches, traj


class TestGoldenLookahead:
    @given(
        st.lists(st.tuples(st.floats(-10.0, 10.0), WIDTHS), min_size=1, max_size=40),
        st.sampled_from(sorted(SHAPES)),
        st.floats(-10.0, 10.0),
        st.sampled_from([1e-6, 1e-3, 0.05]),
    )
    def test_matches_sequential_search_bit_for_bit(self, brackets, shape, x0, tol):
        a = np.array([lo for lo, _ in brackets])
        b = a + np.array([w for _, w in brackets])
        calls = []

        def fn(x):
            calls.append(x.size)
            return SHAPES[shape](x, x0)

        m_ref, f_ref, steps, nodes = sequential_golden_min(fn, a, b, tol)
        calls.clear()
        m, f = _golden_min(fn, a, b, tol)
        assert m.view(np.int64).tolist() == m_ref.view(np.int64).tolist()
        assert f.view(np.int64).tolist() == f_ref.view(np.int64).tolist()
        assert len(calls) == max(1, -(-steps.max() // LOOKAHEAD))
        # The first call evaluates c and d and the 30-point tree below them
        # for every bracket wider than tol, and the midpoint of every other.
        # Each later call evaluates, for every bracket still walking, the
        # step its last comparison picked and the 2 + 4 + 8 points below
        # it, 15 in all; besides them, in every call, the midpoints of the
        # nodes where a walk can stop.
        live = steps > 0
        stops = sum(stop_nodes(nodes[0, :, j], LOOKAHEAD, tol) for j in np.flatnonzero(live))
        assert calls[0] == 32 * live.sum() + (~live).sum() + stops
        for k, size in enumerate(calls[1:], start=1):
            live = np.flatnonzero(steps > k * LOOKAHEAD)
            roots = nodes[k * LOOKAHEAD + 1][:, live].T
            assert size == 15 * live.size + sum(stop_nodes(r, LOOKAHEAD - 1, tol) for r in roots)

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3-separable", "fig3-entangled"])
    def test_real_objective_matches_sequential_search_bit_for_bit(self, monkeypatch, preset):
        # The kernel's bits must not depend on the size or layout of its
        # batch: the lookahead search evaluates the points in other calls
        # and orders than the sequential one does.
        searches, traj = refined_brackets(monkeypatch, preset, (5e-3, 1e-4, 1e-5))
        assert bool(searches) == (preset != "fig3-entangled")

        def fn(t):
            return discord(evolve(traj.initial, traj.params, t)).discord

        for a, b, tol in searches:
            m_ref, f_ref, _, _ = sequential_golden_min(fn, a, b, tol)
            m, f = _golden_min(fn, a, b, tol)
            assert m.view(np.int64).tolist() == m_ref.view(np.int64).tolist()
            assert f.view(np.int64).tolist() == f_ref.view(np.int64).tolist()

    def test_fig3_separable_refines_in_six_calls(self, monkeypatch):
        # 33 events at 1e-4, each bracket two samples (0.2) wide, need 23
        # steps: six lookahead rounds, where one call per step made 25. The
        # first call evaluates c and d and the 30 points of the 4 steps
        # below them. Each later call starts with the step the last
        # comparison picked and evaluates its point and the 14 below it.
        # The last round stops at its third step, so it also evaluates the
        # midpoints of the 4 third-step nodes per bracket, and no closing
        # call is made.
        cfg = preset_config("fig3-separable")
        traj = trajectory(cfg.initial, cfg.params, 300.0, 3001)
        calls = []

        def counted(*args):
            calls.append(args[2].size)
            return evolve(*args)

        monkeypatch.setattr(dynamics, "evolve", counted)
        assert len(find_zeros(traj, 1e-4)) == 33
        assert calls == [33 * 32] + [33 * 15] * 4 + [33 * 19]


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TCParams(lam=0.0)
        with pytest.raises(ValueError):
            TCParams(lam=1.0, kappa=-0.1)
        with pytest.raises(ValueError):
            TCParams(lam=1.0, alpha_sq=-1.0)
