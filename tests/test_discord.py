import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xdiscord import (
    COHERENCE_FREE,
    DEGENERATE_BALANCED,
    NOT_NULL,
    InvalidStateError,
    MeasurementBasis,
    XState,
    build_chi_m1,
    build_chi_m2,
    cond_entropy_basis,
    discord,
    discord_numeric,
    minimize_numeric,
    nullity_check,
    random_degenerate_balanced,
    random_xstate,
)

TWO_PI = 2.0 * math.pi

BELL = XState(0.5, 0.0, 0.0, 0.5, r14=0.5)
MIXED = XState(0.25, 0.25, 0.25, 0.25)
FIG1 = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
FIG3_SEP = XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736)
FIG3_ENT = XState(0.4, 0.1, 0.1, 0.4, r14=0.4, r23=0.05)
EQ9 = XState(0.3, 0.3, 0.2, 0.2, r14=0.1, r23=0.1)


def dense_cond_entropy(state, theta, phi):
    """Independent route: explicit projectors, matrix products, partial trace."""
    rho = state.to_matrix()
    g = np.array([1.0, 0.0], complex)
    e = np.array([0.0, 1.0], complex)
    plus = math.cos(theta) * e + math.sin(theta) * np.exp(1j * phi) * g
    minus = math.sin(theta) * e - math.cos(theta) * np.exp(1j * phi) * g
    total = 0.0
    for k in (plus, minus):
        proj = np.kron(np.eye(2), np.outer(k, k.conj()))
        post = proj @ rho @ proj
        pk = np.trace(post).real
        if pk <= 1e-15:
            continue
        rho_k = np.einsum("abcb->ac", post.reshape(2, 2, 2, 2)) / pk
        ev = np.linalg.eigvalsh(rho_k)
        ev = ev[ev > 1e-16]
        total += pk * float(-(ev * np.log2(ev)).sum())
    return total


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

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            minimize_numeric(BELL, grid=(4, 4))

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
