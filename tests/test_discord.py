import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xdiscord import (
    COHERENCE_FREE,
    DEGENERATE_BALANCED,
    NOT_NULL,
    InvalidStateError,
    MeasurementBasis,
    XColumns,
    XState,
    build_chi_m1,
    build_chi_m2,
    discord,
    discord_numeric,
    minimize_numeric,
    nullity_check,
    random_degenerate_balanced,
    random_xstate,
)
from xdiscord.discord import cond_entropy_basis

TWO_PI = 2.0 * math.pi

BELL = XState(0.5, 0.0, 0.0, 0.5, r14=0.5)
MIXED = XState(0.25, 0.25, 0.25, 0.25)
FIG1 = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
FIG3_SEP = XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736)
FIG3_ENT = XState(0.4, 0.1, 0.1, 0.4, r14=0.4, r23=0.05)
EQ9 = XState(0.3, 0.3, 0.2, 0.2, r14=0.1, r23=0.1)


def dense_cond_entropy(state, theta, phi):
    """Independent route: explicit projectors, matrix products, partial trace.
    Elementwise over theta and phi broadcast together."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    rho = state.to_matrix().reshape(2, 2, 2, 2)  # [A, B, A', B'], index 0 = ground
    # components (g, e) of |+> = cos(theta)|e> + sin(theta)e^{i phi}|g> and of
    # its complement |-> = sin(theta)|e> - cos(theta)e^{i phi}|g>
    phase = np.exp(1j * phi)
    plus = np.stack([np.sin(theta) * phase, np.cos(theta) + 0j], axis=-1)
    minus = np.stack([-np.cos(theta) * phase, np.sin(theta) + 0j], axis=-1)
    total = np.zeros(theta.shape)
    for k in (plus, minus):
        # A state left by outcome k, unnormalized: <k|_B rho |k>_B
        post = np.einsum("...b,abcd,...d->...ac", k.conj(), rho, k)
        pk = np.trace(post, axis1=-2, axis2=-1).real[..., None]
        ev = np.linalg.eigvalsh(post)
        keep = (pk > 1e-15) & (ev > 1e-16 * pk)
        ratio = np.divide(ev, pk, out=np.ones_like(ev), where=keep)
        total -= (ev * np.log2(ratio)).sum(axis=-1)
    return total


def search_2d(state):
    """Direct search for the measured-entropy minimum over both angles: a 65x65
    (theta, phi) grid holding theta = pi/4 and the phase-matched azimuth, then
    six rounds of 9x9 local grids, each 4x narrower, evaluated by
    dense_cond_entropy. Returns the lowest value found."""
    thetas = np.unique(np.append(np.linspace(0.0, math.pi / 2, 64), math.pi / 4))
    phi_star = (0.5 * (state.phi1 - state.phi2)) % TWO_PI
    phis = np.unique(np.append(np.linspace(0.0, TWO_PI, 64, endpoint=False), phi_star))
    values = dense_cond_entropy(state, thetas[:, None], phis)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    theta, phi, best = thetas[i], phis[j], values[i, j]
    span_theta, span_phi = math.pi / 2 / 63, TWO_PI / 64
    for _ in range(6):
        t_local = np.linspace(
            max(0.0, theta - span_theta), min(math.pi / 2, theta + span_theta), 9
        )
        p_local = np.linspace(phi - span_phi, phi + span_phi, 9)
        local = dense_cond_entropy(state, t_local[:, None], p_local)
        i, j = np.unravel_index(np.argmin(local), local.shape)
        if local[i, j] < best:
            theta, phi, best = t_local[i], p_local[j], local[i, j]
        span_theta /= 4.0
        span_phi /= 4.0
    return float(best)


#: Generators of the property tests' states: random, on a positivity boundary,
#: and on the degenerate-balanced zero-discord family.
STATE_KINDS = {
    "random": random_xstate,
    "boundary": lambda rng: random_xstate(rng, boundary_fraction=1.0),
    "degenerate-balanced": random_degenerate_balanced,
}
x_states = st.builds(
    lambda kind, seed: STATE_KINDS[kind](np.random.default_rng(seed)),
    st.sampled_from(sorted(STATE_KINDS)),
    st.integers(0, 2**32 - 1),
)


class TestCondEntropyBasis:
    def test_matches_dense_projector_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            s = random_xstate(rng)
            theta = rng.uniform(0.0, math.pi / 2)
            phi = rng.uniform(0.0, TWO_PI)
            got = cond_entropy_basis(s, MeasurementBasis(theta, phi))
            want = dense_cond_entropy(s, theta, phi)
            assert_allclose(got, want, atol=1e-12)

    def test_theta_zero_equals_c_m1(self):
        rng = np.random.default_rng(4)
        for s in [BELL, MIXED, FIG1] + [random_xstate(rng) for _ in range(30)]:
            assert_allclose(
                cond_entropy_basis(s, MeasurementBasis(0.0)), discord(s).c_m1, atol=1e-12
            )
            assert_allclose(
                cond_entropy_basis(s, MeasurementBasis(math.pi / 2)), discord(s).c_m1, atol=1e-12
            )

    def test_bell_any_basis_is_zero(self):
        # conditioned A state is pure for every basis (checked via the dense
        # oracle as well, which computes the post-measurement state explicitly)
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = rng.uniform(0.0, math.pi / 2)
            phi = rng.uniform(0.0, TWO_PI)
            assert_allclose(cond_entropy_basis(BELL, MeasurementBasis(theta, phi)), 0.0, atol=1e-12)
            assert_allclose(dense_cond_entropy(BELL, theta, phi), 0.0, atol=1e-12)

    def test_maximally_mixed_any_basis_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            basis = MeasurementBasis(rng.uniform(0, math.pi / 2), rng.uniform(0, TWO_PI))
            assert_allclose(cond_entropy_basis(MIXED, basis), 1.0, atol=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            cond_entropy_basis(XState(0.25, 0.25, 0.25, 0.25, r23=0.5), MeasurementBasis(0.3))


class TestClosedForms:
    def test_c_m1_bell(self):
        assert_allclose(discord(BELL).c_m1, 0.0, atol=1e-15)

    def test_c_m1_maximally_mixed(self):
        assert_allclose(discord(MIXED).c_m1, 1.0, atol=1e-15)

    def test_c_m1_empty_branch(self):
        # p2 = p4 = 0 leaves only the (p1, p3) branch
        s = XState(0.6, 0.0, 0.4, 0.0)
        assert_allclose(discord(s).c_m1, (0.6 + 0.4) * entropy([0.6, 0.4]), atol=1e-12)

    def test_upsilon_bell(self):
        assert_allclose(discord(BELL).upsilon, 1.0, atol=1e-15)

    def test_upsilon_maximally_mixed(self):
        assert_allclose(discord(MIXED).upsilon, 0.0, atol=1e-15)

    def test_upsilon_fig3_separable(self):
        assert_allclose(discord(FIG3_SEP).upsilon, 0.5472, atol=1e-15)

    def test_upsilon_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u = discord(random_xstate(rng)).upsilon
            assert -1e-12 <= u <= 1.0 + 1e-12

    def test_c_m2_bell(self):
        assert_allclose(discord(BELL).c_m2, 0.0, atol=1e-15)

    def test_c_m2_maximally_mixed(self):
        assert_allclose(discord(MIXED).c_m2, 1.0, atol=1e-15)

    def test_c_m2_fig3_separable_frozen(self):
        # binary entropy of (1 + 0.5472)/2, evaluated independently
        assert_allclose(discord(FIG3_SEP).c_m2, 0.7716827126890268, atol=1e-14)

    def test_c_m2_equals_basis_evaluation(self):
        rng = np.random.default_rng(12)
        for s in [FIG1, FIG3_SEP, EQ9] + [random_xstate(rng) for _ in range(30)]:
            basis = MeasurementBasis(math.pi / 4, (0.5 * (s.phi1 - s.phi2)) % TWO_PI)
            assert_allclose(discord(s).c_m2, cond_entropy_basis(s, basis), atol=1e-10)


def entropy(p):
    p = np.asarray(p, float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


class TestDiscord:
    def test_bell_benchmark(self):
        br = discord(BELL)
        assert_allclose(br.discord, 1.0, atol=1e-12)
        assert_allclose(br.mutual_info, 2.0, atol=1e-12)
        assert_allclose(br.classical_corr, 1.0, atol=1e-12)

    def test_diagonal_states_have_zero_discord(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            br = discord(XState(*p))
            assert abs(br.discord) <= 1e-9

    def test_degenerate_balanced_zero(self):
        assert abs(discord(EQ9).discord) <= 1e-9

    def test_breakdown_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            br = discord(random_xstate(rng))
            assert_allclose(br.discord, br.mutual_info - br.classical_corr, atol=1e-12)
            assert br.discord >= -1e-9

    def test_classical_corr_identity(self):
        from xdiscord import entropy_bits

        rng = np.random.default_rng(17)
        for _ in range(50):
            s = random_xstate(rng)
            br = discord(s)
            s_a = entropy_bits([s.p1 + s.p2, s.p3 + s.p4])
            assert_allclose(br.classical_corr, s_a - min(br.c_m1, br.c_m2), atol=1e-12)

    def test_phase_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            s = random_xstate(rng)
            shifted = XState(
                s.p1, s.p2, s.p3, s.p4,
                r14=s.r14, phi1=s.phi1 + 1.1, r23=s.r23, phi2=s.phi2 + 0.4,
            )
            assert abs(discord(shifted).discord - discord(s).discord) < 1e-12


class TestMinimizeNumeric:
    def test_bell(self):
        _, value = minimize_numeric(BELL)
        assert_allclose(value, 0.0, atol=1e-9)

    def test_maximally_mixed(self):
        _, value = minimize_numeric(MIXED)
        assert_allclose(value, 1.0, atol=1e-9)

    def test_never_above_closed_form(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            s = random_xstate(rng)
            br = discord(s)
            _, value = minimize_numeric(s)
            closed = min(br.c_m1, br.c_m2)
            assert value <= closed + 1e-6
            assert value >= closed - 5e-3

    @given(state=x_states)
    def test_2d_search_never_beats_exact(self, state):
        basis, value = minimize_numeric(state)
        assert search_2d(state) >= value - 1e-12
        assert_allclose(cond_entropy_basis(state, basis), value, rtol=0, atol=1e-15)

    @given(state=x_states)
    def test_closed_form_never_below_exact(self, state):
        br = discord(state)
        _, value = minimize_numeric(state)
        assert min(br.c_m1, br.c_m2) >= value - 1e-12

    @given(states=st.lists(x_states, min_size=1, max_size=8))
    def test_batch_equals_rows_one_at_a_time(self, states):
        thetas, phis, values = minimize_numeric(XColumns.from_states(states))
        for state, theta, phi, value in zip(states, thetas, phis, values):
            basis, want = minimize_numeric(state)
            assert_allclose(
                [theta, phi, value], [basis.theta, basis.phi, want], rtol=0, atol=1e-15
            )

    @given(state=x_states, shift=st.floats(-10.0, 10.0))
    def test_common_phase_shift_leaves_minimum(self, state, shift):
        shifted = XState(
            state.p1, state.p2, state.p3, state.p4,
            r14=state.r14, phi1=state.phi1 + shift, r23=state.r23, phi2=state.phi2 + shift,
        )
        want = minimize_numeric(state)[1]
        assert_allclose(minimize_numeric(shifted)[1], want, rtol=0, atol=1e-15)

    def test_interior_optimum_beyond_closed_form(self):
        # Draw 16691 of default_rng(7): both closed-form candidates miss the
        # optimum, which sits at an interior theta.
        rng = np.random.default_rng(7)
        for _ in range(16691):
            random_xstate(rng)
        state = random_xstate(rng)
        br = discord(state)
        basis, value = minimize_numeric(state)
        assert_allclose(min(br.c_m1, br.c_m2) - value, 1.81e-3, atol=5e-6)
        # theta and pi/2 - theta give the same two outcomes, swapped
        assert_allclose(max(basis.theta, math.pi / 2 - basis.theta), 1.203, atol=1e-3)
        assert abs(search_2d(state) - value) <= 1e-9

    def test_numeric_discord_nonnegative_for_null_states(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = random_degenerate_balanced(rng)
            value, _ = discord_numeric(s)
            assert -1e-9 <= value <= 1e-6


class TestNullity:
    def test_diagonal_is_coherence_free(self):
        v = nullity_check(XState(0.4, 0.3, 0.2, 0.1))
        assert v.kind == COHERENCE_FREE
        assert v.coherence_residual == 0.0

    def test_degenerate_balanced(self):
        v = nullity_check(EQ9)
        assert v.kind == DEGENERATE_BALANCED
        assert v.balance_residual <= 1e-15

    def test_fig1_not_null(self):
        v = nullity_check(FIG1)
        assert v.kind == NOT_NULL
        assert_allclose(v.balance_residual, 0.2, atol=1e-15)  # |r14 - r23|

    def test_verdict_implies_small_discord(self):
        rng = np.random.default_rng(24)
        tol = 1e-8
        for _ in range(100):
            s = random_xstate(rng)
            v = nullity_check(s, tol=tol)
            if v.kind != NOT_NULL:
                assert discord(s).discord <= 10 * tol


class TestChiBuilders:
    def test_chi_m1_idempotent_on_diagonal(self):
        s = XState(0.4, 0.3, 0.2, 0.1)
        assert build_chi_m1(s) == s

    def test_chi_m2_bell(self):
        chi = build_chi_m2(BELL)
        assert_allclose(chi.populations, (0.25, 0.25, 0.25, 0.25))
        assert_allclose(chi.r14, 0.25)
        assert_allclose(chi.r23, 0.25)
        assert abs(discord(chi).discord) <= 1e-9

    def test_chi_m2_fig1_values(self):
        chi = build_chi_m2(FIG1)
        assert_allclose(chi.populations, (0.21875, 0.21875, 0.28125, 0.28125))
        assert_allclose(chi.r14, 0.15)
        assert_allclose(chi.r23, 0.15)

    def test_chi_m2_preserves_phases(self):
        s = XState(0.3, 0.25, 0.25, 0.2, r14=0.1, phi1=1.2, r23=0.05, phi2=4.0)
        chi = build_chi_m2(s)
        assert_allclose(chi.phi1, 1.2)
        assert_allclose(chi.phi2, 4.0)

    def test_builders_produce_null_states(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            s = random_xstate(rng)
            for chi in (build_chi_m1(s), build_chi_m2(s)):
                assert nullity_check(chi).kind != NOT_NULL
                assert abs(discord(chi).discord) <= 1e-9


class TestConcurrence:
    def test_bell(self):
        assert_allclose(discord(BELL).concurrence, 1.0, atol=1e-15)

    def test_fig3_separable_unentangled(self):
        assert discord(FIG3_SEP).concurrence == 0.0

    def test_fig3_entangled(self):
        assert_allclose(discord(FIG3_ENT).concurrence, 0.6, atol=1e-15)

    def test_within_unit_interval(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            c = discord(random_xstate(rng)).concurrence
            assert 0.0 <= c <= 1.0 + 1e-12
