import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xdiscord import (
    FockTruncation,
    TCParams,
    XState,
    build_hamiltonian,
    coherent_vector,
    compare,
    integrate,
    joint_initial,
    poisson_tail,
    preset_config,
    random_xstate,
    steady_coherence,
    trace_out_field,
)
from xdiscord.oracle import EXCITED_COUNT, _make_sector


class TestFockTruncation:
    def test_vacuum_needs_single_level(self):
        trunc = FockTruncation.for_alpha_sq(0.0)
        assert trunc.n_max == 0
        assert trunc.tail_mass == 0.0

    def test_tail_small_at_20_for_unit_field(self):
        assert poisson_tail(1.0, 20) < 1e-12

    def test_tail_matches_direct_sum(self):
        # oracle: directly summed Poisson pmf over the retained levels
        for alpha_sq, n_max in ((0.5922, 10), (1.1434, 12), (1.2, 16)):
            pmf = [
                math.exp(-alpha_sq) * alpha_sq**n / math.factorial(n)
                for n in range(n_max + 1)
            ]
            assert_allclose(poisson_tail(alpha_sq, n_max), 1.0 - sum(pmf), atol=1e-13)

    def test_automatic_cutoff_respects_bound(self):
        for alpha_sq in (0.3, 0.5922, 1.0, 1.2):
            trunc = FockTruncation.for_alpha_sq(alpha_sq)
            assert trunc.tail_mass <= 1e-12
            assert trunc.n_max <= 25
            if trunc.n_max > 0:
                assert poisson_tail(alpha_sq, trunc.n_max - 1) > 1e-12

    def test_explicit_cutoff_too_small_rejected_with_hint(self):
        with pytest.raises(ValueError, match="need n_max"):
            FockTruncation.for_alpha_sq(1.0, n_max=3)


class TestCoherentVector:
    def test_vacuum(self):
        trunc = FockTruncation.for_alpha_sq(0.0)
        assert_allclose(coherent_vector(0.0, trunc), [1.0 + 0j])

    def test_normalized(self):
        trunc = FockTruncation.for_alpha_sq(1.0, n_max=20)
        vec = coherent_vector(1.0, trunc)
        assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-14)

    def test_amplitude_ratios(self):
        alpha = 0.8 + 0.3j
        trunc = FockTruncation.for_alpha_sq(abs(alpha) ** 2, n_max=25)
        vec = coherent_vector(alpha, trunc)
        for n in range(6):
            assert_allclose(vec[n + 1] / vec[n], alpha / math.sqrt(n + 1), atol=1e-12)

    def test_rejects_undersized_truncation(self):
        trunc = FockTruncation.for_alpha_sq(0.1)
        with pytest.raises(ValueError, match="need n_max"):
            coherent_vector(2.0, trunc)


class TestHamiltonian:
    def test_hermitian(self):
        params = TCParams(lam=0.7, kappa=0.1, alpha_sq=1.0)
        trunc = FockTruncation.for_alpha_sq(1.0, n_max=16)
        h = build_hamiltonian(params, trunc)
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_elementwise_rule(self):
        # oracle: quantum-number rule for every element, checked directly
        lam = 1.3
        n_max = 7
        params = TCParams(lam=lam, kappa=0.0, alpha_sq=0.0)
        trunc = FockTruncation(n_max=n_max, tail_mass=0.0)
        h = build_hamiltonian(params, trunc)
        fdim = n_max + 1
        for j in range(4):
            for n in range(fdim):
                idx = j * fdim + n
                expected = 0.5 * lam * (
                    EXCITED_COUNT[j] * (n + 1) - (2 - EXCITED_COUNT[j]) * n
                )
                assert_allclose(h[idx, idx], expected, atol=1e-14)
        for n in range(fdim):
            assert_allclose(h[1 * fdim + n, 2 * fdim + n], 0.5 * lam, atol=1e-14)
            assert_allclose(h[2 * fdim + n, 1 * fdim + n], 0.5 * lam, atol=1e-14)
        # nothing else is nonzero
        mask = np.zeros_like(h, dtype=bool)
        np.fill_diagonal(mask, True)
        for n in range(fdim):
            mask[1 * fdim + n, 2 * fdim + n] = True
            mask[2 * fdim + n, 1 * fdim + n] = True
        assert np.abs(h[~mask]).max() == 0.0

    def test_single_level_edge(self):
        # with one retained level the photon-number shift is n+1 = 1 for the
        # excited projectors and 0 for the ground ones
        params = TCParams(lam=2.0, kappa=0.0, alpha_sq=0.0)
        trunc = FockTruncation(n_max=0, tail_mass=0.0)
        h = build_hamiltonian(params, trunc)
        assert_allclose(np.diag(h).real, [0.0, 1.0, 1.0, 2.0])


class TestSectorGenerator:
    def test_sectors_match_dense_superoperator(self):
        # oracle: the dense superoperator -i[H, .] + kappa*D[a] on row-major
        # vec(rho), from build_hamiltonian and an inline truncated a
        params = TCParams(lam=0.9, kappa=0.23, alpha_sq=0.6)
        trunc = FockTruncation(n_max=6, tail_mass=0.0)
        fdim = trunc.dim
        dim = 4 * fdim
        h = build_hamiltonian(params, trunc)
        a = np.kron(np.eye(4), np.diag(np.sqrt(np.arange(1.0, fdim)), k=1))
        n_op = a.T @ a
        eye = np.eye(dim)
        dense = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + params.kappa * (
            np.kron(a, a) - 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T))
        )
        # label every element of rho by its sector; off-X elements get -1
        label = np.full((4, fdim, 4, fdim), -1)
        sector = _make_sector(params, trunc)
        generators = []
        for d in range(-trunc.n_max, fdim):
            index, gen = sector(d)
            flat = np.ravel_multi_index(np.broadcast_arrays(*index), label.shape)
            for g in range(2):
                assert np.all(label.flat[flat[g]] == -1)
                label.flat[flat[g]] = len(generators)
                generators.append((flat[g].ravel(), gen[g]))
        assert len(generators) == 2 * (2 * trunc.n_max + 1)
        assert np.count_nonzero(label >= 0) == 8 * fdim * fdim
        rows, cols = np.nonzero(dense)
        assert np.array_equal(label.flat[rows], label.flat[cols])
        for flat, gen in generators:
            assert np.abs(dense[np.ix_(flat, flat)] - gen).max() <= 1e-12


class TestIntegrate:
    def test_pure_exchange_rabi_oscillation(self):
        # two-level analytic solution: starting in |ge>, the inner population
        # oscillates as (1 + cos(lam t))/2 with no field present
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.0)
        trunc = FockTruncation.for_alpha_sq(0.0)
        initial = XState(0.0, 1.0, 0.0, 0.0)
        sample_times = [0.5, 1.0, 2.0, 3.0]
        result = integrate(initial, params, trunc, sample_times)
        for t, joint in zip(result.times, result.states):
            reduced, off_x = trace_out_field(joint)
            assert_allclose(reduced.p2, 0.5 * (1.0 + math.cos(t)), atol=1e-12)
            assert off_x <= 1e-10

    def test_trace_preserved(self):
        params = TCParams(lam=1.0, kappa=0.2, alpha_sq=0.8)
        trunc = FockTruncation.for_alpha_sq(0.8)
        initial = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
        result = integrate(initial, params, trunc, 2.0)
        assert result.max_trace_drift <= 1e-8
        assert result.min_eigenvalue >= -1e-8

    def test_arbitrary_unsorted_times(self):
        # non-uniform, unsorted, with a repeat: the result is sorted by time and
        # each sample matches a propagation straight to that time
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        trunc = FockTruncation.for_alpha_sq(0.8)
        initial = random_xstate(np.random.default_rng(45))
        times = [2.5, 0.0, 0.31, 1.7, 0.31, 4.0]
        result = integrate(initial, params, trunc, times)
        assert np.array_equal(result.times, np.sort(times))
        for t, joint in zip(result.times, result.states):
            alone = integrate(initial, params, trunc, t).states[0]
            assert np.abs(joint - alone).max() <= 1e-12
        report = compare(initial, params, times, trunc)
        assert np.array_equal(report.times, np.sort(times))
        assert report.max_deviation <= 1e-12

    def test_rejects_negative_or_empty_times(self):
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.0)
        trunc = FockTruncation.for_alpha_sq(0.0)
        for times in ([], [1.0, -0.5], [math.nan], [math.inf]):
            with pytest.raises(ValueError, match="times"):
                integrate(XState(1, 0, 0, 0), params, trunc, times)


class TestTraceOutField:
    def test_product_state_recovers_atoms(self):
        rng = np.random.default_rng(42)
        atoms = random_xstate(rng)
        trunc = FockTruncation.for_alpha_sq(0.9)
        joint = joint_initial(atoms, coherent_vector(0.9, trunc))
        reduced, off_x = trace_out_field(joint)
        assert_allclose(reduced.to_matrix(), atoms.to_matrix(), atol=1e-14)
        assert off_x <= 1e-14

    def test_maximally_mixed_joint(self):
        dim = 4 * 5
        joint = np.eye(dim, dtype=complex) / dim
        reduced, off_x = trace_out_field(joint)
        assert_allclose(reduced.populations, (0.25, 0.25, 0.25, 0.25))
        assert off_x == 0.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            trace_out_field(np.eye(6, dtype=complex) / 6.0)


class TestCompare:
    def test_zero_time_grid(self):
        params = TCParams(lam=1.0, kappa=0.05, alpha_sq=0.5922)
        trunc = FockTruncation.for_alpha_sq(0.5922)
        initial = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
        report = compare(initial, params, [0.0], trunc)
        assert report.max_deviation <= 1e-14

    def test_field_decoupled_case(self):
        # no photons, no damping: both paths are exact up to roundoff
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.0)
        trunc = FockTruncation.for_alpha_sq(0.0)
        initial = XState(0.3, 0.25, 0.25, 0.2, r14=0.15, r23=0.1)
        report = compare(initial, params, np.linspace(0.0, 5.0, 11), trunc)
        assert report.max_deviation <= 1e-12

    def test_random_phase_initial_state(self):
        rng = np.random.default_rng(44)
        initial = random_xstate(rng)
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        trunc = FockTruncation.for_alpha_sq(0.8)
        report = compare(initial, params, np.linspace(0.0, 2.0, 5), trunc)
        assert report.max_deviation <= 1e-9
        assert report.max_off_x_residual <= 1e-10
        assert report.p1_drift <= 1e-9
        assert report.p4_drift <= 1e-9

    def test_truncation_convergence(self):
        # doubling the cutoff must not move the reduced state
        params = TCParams(lam=1.0, kappa=0.1, alpha_sq=1.0)
        initial = XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736)
        finals = []
        for n_max in (14, 28):
            trunc = FockTruncation.for_alpha_sq(1.0, n_max=n_max)
            result = integrate(initial, params, trunc, 2.0)
            reduced, _ = trace_out_field(result.states[-1])
            finals.append(reduced.to_matrix())
        assert np.abs(finals[0] - finals[1]).max() <= 1e-9

    def test_fig3_separable_long_time_steady_coherence(self):
        # |rho14| reaches the stationary value and the analytic propagator
        # holds to roundoff over 300/lambda
        cfg = preset_config("fig3-separable")
        trunc = FockTruncation.for_alpha_sq(cfg.params.alpha_sq)
        assert trunc.n_max == 14
        times = [0.0, 100.0, 200.0, 300.0]
        report = compare(cfg.initial, cfg.params, times, trunc)
        assert report.max_deviation <= 1e-12
        result = integrate(cfg.initial, cfg.params, trunc, times)
        reduced, _ = trace_out_field(result.states[-1])
        steady = steady_coherence(cfg.initial.r14, cfg.params)
        assert abs(reduced.r14 - steady) <= 1e-6
