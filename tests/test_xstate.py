import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xdiscord import (
    InvalidStateError,
    XState,
    discord,
    eigenvalues,
    entropy_bits,
    random_xstate,
    validate,
)

BELL = XState(0.5, 0.0, 0.0, 0.5, r14=0.5)
FIG1 = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
MIXED = XState(0.25, 0.25, 0.25, 0.25)


class TestValidate:
    def test_bell_boundary_is_valid(self):
        # pure-state boundary: p1*p4 = r14^2 exactly
        assert validate(BELL).ok

    def test_fig1_initial_is_valid(self):
        # outer block exactly on the boundary: 1/16 = 0.25^2
        assert validate(FIG1).ok

    def test_outer_block_violation(self):
        bad = XState(0.25, 0.25, 0.25, 0.25, r14=0.3)
        report = validate(bad)
        assert not report.ok
        assert any("outer block" in v for v in report.violations)

    def test_trace_violation(self):
        report = validate(XState(0.5, 0.5, 0.5, 0.5))
        assert any("trace" in v for v in report.violations)

    def test_negative_population(self):
        report = validate(XState(-0.1, 0.5, 0.3, 0.3))
        assert any("negative" in v for v in report.violations)


class TestXStateModel:
    def test_phase_normalization(self):
        s = XState(0.5, 0, 0, 0.5, r14=0.5, phi1=-math.pi / 2)
        assert_allclose(s.phi1, 1.5 * math.pi)

    def test_negative_magnitude_folds_into_phase(self):
        s = XState(0.5, 0, 0, 0.5, r14=-0.5)
        assert s.r14 == 0.5
        assert_allclose(s.phi1, math.pi)
        assert_allclose(s.rho14, -0.5 + 0j, atol=1e-15)

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_xstate(rng)
            m = s.to_matrix()
            assert_allclose(m, m.conj().T)
            assert_allclose(np.trace(m).real, 1.0, atol=1e-12)
            back = XState.from_coherences(
                m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real,
                rho14=m[0, 3], rho23=m[1, 2],
            )
            assert_allclose(back.to_matrix(), m, atol=1e-15)


class TestEigenvalues:
    def test_diagonal_state(self):
        s = XState(0.4, 0.3, 0.2, 0.1)
        assert_allclose(sorted(eigenvalues(s)), [0.1, 0.2, 0.3, 0.4])

    def test_bell_state_is_pure(self):
        assert_allclose(eigenvalues(BELL), [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_against_dense_eigensolver(self):
        # oracle: full 4x4 Hermitian eigendecomposition of the assembled matrix
        rng = np.random.default_rng(11)
        for s in [FIG1] + [random_xstate(rng) for _ in range(50)]:
            dense = np.linalg.eigvalsh(s.to_matrix())
            assert_allclose(np.sort(eigenvalues(s)), np.sort(dense), atol=1e-12)

    def test_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = random_xstate(rng)
            assert_allclose(eigenvalues(s).sum(), 1.0, atol=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            eigenvalues(XState(0.25, 0.25, 0.25, 0.25, r14=0.3))


class TestEntropyBits:
    def test_pure(self):
        assert entropy_bits([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert_allclose(entropy_bits([0.5, 0.5]), 1.0, atol=1e-15)

    def test_quarter_three_quarter(self):
        # frozen from the exact expression 2 - 0.75*log2(3)
        assert_allclose(entropy_bits([0.25, 0.75]), 0.8112781244591328, atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_bits([-0.2, 1.2])

    def test_at_most_two_bits(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            s = random_xstate(rng)
            assert entropy_bits(eigenvalues(s)) <= 2.0 + 1e-12
        assert_allclose(entropy_bits([0.25] * 4), 2.0, atol=1e-15)


def marginal_entropies(state):
    """S(A) and S(B) as the discord kernel uses them, read back from its
    breakdown: S(A) = classical_corr + min(C_m1, C_m2) and
    S(B) = mutual_info - S(A) + S(AB)."""
    br = discord(state)
    s_a = br.classical_corr + min(br.c_m1, br.c_m2)
    return s_a, br.mutual_info - s_a + entropy_bits(eigenvalues(state))


class TestMarginals:
    def test_maximally_mixed(self):
        assert_allclose(marginal_entropies(MIXED), (1.0, 1.0), atol=1e-12)

    def test_fig1_values(self):
        # marginals (7/16, 9/16) for A and (9/16, 7/16) for B
        h = entropy_bits([7 / 16, 9 / 16])
        assert_allclose(marginal_entropies(FIG1), (h, h), atol=1e-12)

    def test_bell(self):
        assert_allclose(marginal_entropies(BELL), (1.0, 1.0), atol=1e-12)

    def test_coherences_never_enter(self):
        base = XState(0.3, 0.25, 0.25, 0.2)
        bumped = XState(0.3, 0.25, 0.25, 0.2, r14=0.2, phi1=1.0, r23=0.1, phi2=2.0)
        assert_allclose(marginal_entropies(bumped), marginal_entropies(base), atol=1e-12)
        assert_allclose(
            marginal_entropies(base),
            (entropy_bits([0.55, 0.45]), entropy_bits([0.55, 0.45])),
            atol=1e-12,
        )


class TestMutualInformation:
    def test_product_diagonal_state(self):
        pa, pb = 0.3, 0.65
        s = XState(pa * pb, pa * (1 - pb), (1 - pa) * pb, (1 - pa) * (1 - pb))
        assert_allclose(discord(s).mutual_info, 0.0, atol=1e-12)

    def test_bell(self):
        assert_allclose(discord(BELL).mutual_info, 2.0, atol=1e-12)

    def test_against_dense_oracle(self):
        # oracle: dense eigendecomposition plus marginal entropies
        s = XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736)
        ev = np.clip(np.linalg.eigvalsh(s.to_matrix()), 0.0, None)
        expected = 2.0 - entropy_bits(ev)
        assert_allclose(discord(s).mutual_info, expected, atol=1e-12)
        assert_allclose(expected, 0.297230270977322, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            assert discord(random_xstate(rng)).mutual_info >= -1e-12

    def test_phase_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = random_xstate(rng)
            shifted = XState(
                s.p1, s.p2, s.p3, s.p4,
                r14=s.r14, phi1=s.phi1 + 0.7, r23=s.r23, phi2=s.phi2 + 2.3,
            )
            assert_allclose(discord(shifted).mutual_info, discord(s).mutual_info, atol=1e-12)
