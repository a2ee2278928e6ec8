import itertools
import math
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xdiscord import (
    PRESETS,
    TCParams,
    XState,
    compare,
    evolve,
    integrate,
    preset_config,
    random_xstate,
    steady_coherence,
)
from xdiscord.cli import PROPAGATOR_TOL, main
from xdiscord.oracle import (
    EXCITED_COUNT,
    MAX_N_MAX,
    SAMPLE_CHUNK,
    TAIL_BOUND,
    _PAIR_J,
    _PAIR_K,
    _exchange,
    _make_sector,
    _stark,
    photon_weights,
    poisson_tail,
)


def hamiltonian(params, n_max):
    """Dense effective Hamiltonian on the joint space, index (j, n):
    (lam/2) * [ sum_j (|e_j><e_j| a a+ - |g_j><g_j| a+ a) + exchange ]."""
    diagonal = np.diag(_stark(params, n_max + 1).ravel())
    return (diagonal + np.kron(_exchange(params), np.eye(n_max + 1))).astype(complex)


#: Higham's bound on the 1-norm up to which the [13/13] Padé approximant of
#: exp is accurate to double precision, and its numerator coefficients b0..b13
#: (the denominator's alternate in sign).
THETA_13 = 5.371920351148152
PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm(m):
    """exp of a stack of square matrices by scaling and squaring (Higham,
    SIMAX 26, 2005): the [13/13] Padé approximant r(a) = q(a)^-1 p(a) of
    a = m / 2^s, where s is the least power that brings the 1-norm to at most
    THETA_13, then squared s times. The generic reference the closed-form
    propagator is checked against."""
    norm = np.abs(m).sum(axis=-2).max()
    s = math.ceil(math.log2(norm / THETA_13)) if norm > THETA_13 else 0
    a = m / 2.0**s if s else m
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    diag = np.arange(m.shape[-1])

    def even(b):
        """b[0]*I + b[1]*a^2 + b[2]*a^4 (+ b[3]*a^6), summed in place."""
        w = b[1] * a2
        for c, power in zip(b[2:], (a4, a6)):
            w += c * power
        w[..., diag, diag] += b[0]
        return w

    u = a6 @ even(PADE_13[7::2])
    u += even(PADE_13[1:7:2])
    u = a @ u
    v = a6 @ even(PADE_13[6::2])
    v += even(PADE_13[0:6:2])
    q = v - u
    v += u
    out = np.linalg.solve(q, v)
    for _ in range(s):
        out = out @ out
    return out


def sector(params, n_max, d):
    """Both groups' offset-d X elements, from _stark and the decay ladder of
    D[a]: their joint indices (j, n, k, m), broadcasting to shape (2, 4, L),
    and their Fock blocks D_p, shape (2, 4, L, L), with the diagonal
    -i(stark[j, n] - stark[k, m]) - kappa(n + m)/2 and the superdiagonal
    kappa*sqrt(nm) (a rho a+)."""
    stark = _stark(params, n_max + 1)
    n = np.arange(max(d, 0), n_max + 1 + min(d, 0))
    m = n - d
    i = np.arange(n.size)
    fock = np.zeros((2, 4, n.size, n.size), dtype=complex)
    fock[..., i, i] = -1j * (stark[_PAIR_J, n] - stark[_PAIR_K, m]) - 0.5 * params.kappa * (n + m)
    fock[..., i[:-1], i[1:]] = params.kappa * np.sqrt(n[1:] * m[1:])
    return (_PAIR_J, n, _PAIR_K, m), fock


def whole(pair, fock):
    """Each group's generator X (x) I + blockdiag(D_p) assembled from its
    factors, shape (2, 4L, 4L), index (pair, Fock level)."""
    size = fock.shape[-1]
    gen = np.kron(pair, np.eye(size))
    for p in range(4):
        gen[:, p * size : (p + 1) * size, p * size : (p + 1) * size] += fock[:, p]
    return gen


def joint_states(initial, params, n_max, times):
    """Every sector propagated to each time with _expm, assembled into dense
    joint states, shape (len(times), 4, F, 4, F)."""
    fdim = n_max + 1
    v = np.sqrt(photon_weights(params.alpha_sq, n_max))  # alpha is real
    rho0 = np.kron(initial.to_matrix(), np.outer(v, v.conj())).reshape(4, fdim, 4, fdim)
    states = np.zeros((len(times), 4, fdim, 4, fdim), dtype=complex)
    pair = -1j * _make_sector(params, n_max)[0]
    for d in range(-n_max, fdim):
        index, fock = sector(params, n_max, d)
        gen = whole(pair, fock)
        vec = rho0[index].reshape(2, -1, 1)
        for s, t in enumerate(times):
            states[(s,) + index] = (_expm(gen * t) @ vec).reshape(2, 4, -1)
    return states


def unsplit_reduced(initial, params, n_max, times):
    """Reduced states from the assembled (2, 4L, 4L) offset-0 generators,
    exponentiated whole with _expm straight to each time, shape
    (len(times), 4, 4)."""
    (pair_j, _, pair_k, _), fock = sector(params, n_max, 0)
    gen = whole(-1j * _make_sector(params, n_max)[0], fock)
    photons = photon_weights(params.alpha_sq, n_max)
    vec = (initial.to_matrix()[pair_j, pair_k] * photons).reshape(2, -1, 1)
    reduced = np.zeros((len(times), 4, 4), dtype=complex)
    for s, t in enumerate(times):
        elements = (_expm(gen * t) @ vec).reshape(2, 4, -1).sum(axis=-1)
        reduced[s][pair_j[..., 0], pair_k[..., 0]] = elements
    return reduced


@pytest.fixture
def work(monkeypatch):
    """The shape of every array integrate decomposes with eigh or
    exponentiates elementwise, by function, in call order."""
    calls = {"eigh": [], "exp": [], "expm1": []}

    def spy(name, real):
        def wrapped(x, *args, **kwargs):
            calls[name].append(np.shape(x))
            return real(x, *args, **kwargs)

        return wrapped

    monkeypatch.setattr("xdiscord.oracle.np.linalg.eigh", spy("eigh", np.linalg.eigh))
    monkeypatch.setattr("xdiscord.oracle.np.exp", spy("exp", np.exp))
    monkeypatch.setattr("xdiscord.oracle.np.expm1", spy("expm1", np.expm1))
    return calls


def planted_outer_exchange(params):
    """_exchange plus an |gg><ee| exchange, which couples the outer chains."""
    e = _exchange(params)
    e[0, 3] = e[3, 0] = 0.3 * params.lam
    return e


def min_cutoff(alpha_sq):
    """Brute-force reference: the least n_max whose Poisson tail is at most
    TAIL_BOUND."""
    return next(n for n in itertools.count() if poisson_tail(alpha_sq, n) <= TAIL_BOUND)


def cutoff_hint(alpha_sq):
    """The cutoff that photon_weights names when it refuses n_max = 0, or 0
    when it accepts it."""
    try:
        photon_weights(alpha_sq, 0)
    except ValueError as exc:
        return int(re.fullmatch(r".*; need n_max >= (\d+)", str(exc)).group(1))
    return 0


BEYOND_LIMIT = f"even at n_max = {MAX_N_MAX}, the largest cutoff$"


class TestFockTruncation:
    """The cutoff n_max: the Poisson tail it leaves, the smallest one that
    TAIL_BOUND allows, and the largest, MAX_N_MAX."""

    def test_vacuum_needs_single_level(self):
        assert cutoff_hint(0.0) == 0
        assert poisson_tail(0.0, 0) == 0.0

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

    @given(st.floats(1e-3, 3000.0), st.integers(0, 5000))
    def test_tail_matches_log_space_sum(self, alpha_sq, n_max):
        # Direct sum of the tail's terms in log space, over all n where the
        # terms are not negligible: no recurrence, no underflow.
        top = int(max(n_max + 1, alpha_sq + 50.0 * math.sqrt(alpha_sq))) + 200
        logs = [
            -alpha_sq + n * math.log(alpha_sq) - math.lgamma(n + 1)
            for n in range(n_max + 1, top)
        ]
        peak = max(logs)
        expected = math.exp(peak) * math.fsum(math.exp(x - peak) for x in logs)
        assert_allclose(poisson_tail(alpha_sq, n_max), expected, rtol=1e-9, atol=1e-290)

    def test_tail_below_an_underflowing_mode_is_one(self):
        # without the early return the terms summed from n_max + 1 underflow
        # to 0, and so would the tail
        assert poisson_tail(700.0, 0) == 1.0
        assert poisson_tail(900.0, 25) == 1.0
        assert poisson_tail(1e12, 25) == 1.0
        assert poisson_tail(1000.0, 1230) <= 1e-12 < poisson_tail(1000.0, 1229)

    def test_automatic_cutoff_respects_bound(self):
        for alpha_sq in (0.3, 0.5922, 1.0, 1.2):
            n_max = cutoff_hint(alpha_sq)
            assert 0 < n_max <= 25
            assert poisson_tail(alpha_sq, n_max) <= 1e-12 < poisson_tail(alpha_sq, n_max - 1)

    @given(st.floats(0.0, 116.8))
    @example(116.8)  # leaves a tail of 1.003e-12 at the limit
    @example(116.7)
    def test_hint_is_the_least_sufficient_cutoff(self, alpha_sq):
        need = min_cutoff(alpha_sq)
        if need > MAX_N_MAX:
            with pytest.raises(ValueError, match=BEYOND_LIMIT):
                photon_weights(alpha_sq, 0)
        else:
            assert cutoff_hint(alpha_sq) == need

    def test_field_past_the_limit_refused(self):
        assert min_cutoff(116.7) == MAX_N_MAX
        with pytest.raises(ValueError, match=r"alpha_sq = 116.9 leaves a coherent tail of "
                           r"1\.\d{3}e-12 > 1\.000e-12 " + BEYOND_LIMIT):
            photon_weights(116.9, 25)

    def test_huge_field_refused_within_a_second(self):
        # a field beyond the limit is refused from its tail there, with no
        # cutoff searched: the search took over 5 s here without a bound
        start = time.perf_counter()
        with pytest.raises(ValueError, match="alpha_sq = 1e\\+12 leaves a coherent tail of "
                           "1.000e\\+00 > 1.000e-12 " + BEYOND_LIMIT):
            photon_weights(1e12, 25)
        assert time.perf_counter() - start < 1.0

    def test_explicit_cutoff_too_small_rejected_with_hint(self):
        with pytest.raises(ValueError, match=f"need n_max >= {min_cutoff(1.0)}$"):
            photon_weights(1.0, 3)

    def test_negative_cutoff_rejected(self):
        # A zero field leaves no tail at any cutoff, so only the sign check refuses it.
        for n_max in (-1, -5):
            with pytest.raises(ValueError, match=f"n_max = {n_max} must be nonnegative"):
                photon_weights(0.0, n_max)

    @pytest.mark.parametrize("n_max", [MAX_N_MAX + 1, 10**6])
    def test_oversized_cutoff_refused_before_allocating(self, n_max):
        # at 10**6 the binomial table alone needed 7.28 TiB, and numpy raised
        # MemoryError instead of the documented ValueError
        cfg = preset_config("fig1")
        start = time.perf_counter()
        for run in (
            lambda: integrate(cfg.initial, cfg.params, n_max, [0.1]),
            lambda: compare(cfg.initial, cfg.params, [0.1], n_max),
            lambda: photon_weights(0.0, n_max),
        ):
            with pytest.raises(ValueError, match=f"^n_max = {n_max} exceeds {MAX_N_MAX}$"):
                run()
        assert time.perf_counter() - start < 1.0


class TestCoherentVector:
    """The coherent field |alpha> as the oracle sees it: its photon-number
    weights on the retained Fock levels."""

    def test_vacuum(self):
        assert photon_weights(0.0, 0).tolist() == [1.0]
        assert photon_weights(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_normalized(self):
        for alpha_sq, n_max in ((1.0, 20), (0.5922, 25), (115.0, 200)):
            weights = photon_weights(alpha_sq, n_max)
            assert weights.shape == (n_max + 1,)
            assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("alpha_sq", [0.5922, 1.1434, 115.0])
    def test_poisson_ratios(self, alpha_sq):
        weights = photon_weights(alpha_sq, 200)
        n = np.arange(60)
        assert_allclose(weights[n + 1] / weights[n], alpha_sq / (n + 1), rtol=1e-12)

    def test_rejects_undersized_truncation(self):
        with pytest.raises(ValueError, match="need n_max"):
            photon_weights(4.0, min_cutoff(0.1))

    @pytest.mark.parametrize(
        "alpha_sq, n_max, text",
        [
            (0.5922, 25.0, "n_max = 25.0 must be an integer"),
            (0.5922, True, "n_max = True must be an integer"),
            (0.5922, "25", "n_max = '25' must be an integer"),
            (math.nan, 25, "alpha_sq = nan must be finite and nonnegative"),
            (math.inf, 25, "alpha_sq = inf must be finite and nonnegative"),
            (-0.5, 25, "alpha_sq = -0.5 must be finite and nonnegative"),
        ],
    )
    def test_rejects_invalid_arguments(self, alpha_sq, n_max, text):
        with pytest.raises(ValueError, match=re.escape(text)):
            photon_weights(alpha_sq, n_max)

    def test_invalid_arguments_refused_at_the_boundary(self):
        # a float cutoff used to fail deep in the sector build with an
        # IndexError, and an infinite field to leave a tail of 0.0
        cfg = preset_config("fig1")
        with pytest.raises(ValueError, match="n_max = 25.0 must be an integer"):
            compare(cfg.initial, cfg.params, [0.1], 25.0)
        with pytest.raises(ValueError, match="alpha_sq = inf"):
            poisson_tail(math.inf, 25)
        assert np.array_equal(photon_weights(0.5922, np.int64(25)), photon_weights(0.5922, 25))


class TestHamiltonian:
    def test_hermitian(self):
        params = TCParams(lam=0.7, kappa=0.1, alpha_sq=1.0)
        n_max = 16
        h = hamiltonian(params, n_max)
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_elementwise_rule(self):
        # oracle: quantum-number rule for every element, checked directly
        lam = 1.3
        n_max = 7
        params = TCParams(lam=lam, kappa=0.0, alpha_sq=0.0)
        h = hamiltonian(params, n_max)
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
        h = hamiltonian(params, 0)
        assert_allclose(np.diag(h).real, [0.0, 1.0, 1.0, 2.0])


class TestSectorGenerator:
    def test_sectors_match_dense_superoperator(self):
        # oracle: the dense superoperator -i[H, .] + kappa*D[a] on row-major
        # vec(rho), from the dense H and an inline truncated a
        params = TCParams(lam=0.9, kappa=0.23, alpha_sq=0.6)
        n_max = 6
        fdim = n_max + 1
        dim = 4 * fdim
        h = hamiltonian(params, n_max)
        a = np.kron(np.eye(4), np.diag(np.sqrt(np.arange(1.0, fdim)), k=1))
        n_op = a.T @ a
        eye = np.eye(dim)
        dense = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + params.kappa * (
            np.kron(a, a) - 0.5 * (np.kron(n_op, eye) + np.kron(eye, n_op.T))
        )
        # label every element of rho by its sector; off-X elements get -1
        label = np.full((4, fdim, 4, fdim), -1)
        coupling, rate, slope = _make_sector(params, n_max)
        pair = -1j * coupling  # X
        generators = []
        for d in range(-n_max, fdim):
            index, fock = sector(params, n_max, d)
            gen = whole(pair, fock)
            flat = np.ravel_multi_index(np.broadcast_arrays(*index), label.shape)
            for g in range(2):
                assert np.all(label.flat[flat[g]] == -1)
                label.flat[flat[g]] = len(generators)
                generators.append((flat[g].ravel(), gen[g]))
        assert len(generators) == 2 * (2 * n_max + 1)
        assert np.count_nonzero(label >= 0) == 8 * fdim * fdim
        rows, cols = np.nonzero(dense)
        assert np.array_equal(label.flat[rows], label.flat[cols])
        for flat, gen in generators:
            assert np.abs(dense[np.ix_(flat, flat)] - gen).max() <= 1e-12
        # the offset-0 factors integrate reads: D_p upper bidiagonal, with the
        # diagonal rate + slope * n and the superdiagonal kappa * (n + 1)
        n = np.arange(fdim)
        ladder = np.zeros((2, 4, fdim, fdim), dtype=complex)
        ladder[..., n, n] = rate[..., None] + slope[..., None] * n
        ladder[..., n[:-1], n[1:]] = params.kappa * n[1:]
        zero = generators[2 * n_max : 2 * n_max + 2]  # d = 0, both groups
        for g, (flat, _) in enumerate(zero):
            assert np.abs(dense[np.ix_(flat, flat)] - whole(pair, ladder)[g]).max() <= 1e-12


def scaled(rng, n, norm, hermitian=False):
    """A random complex n x n matrix with the given 1-norm, Hermitian if asked."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if hermitian:
        x += x.conj().T
    return x * (norm / np.abs(x).sum(axis=0).max())


class TestExpm:
    """_expm against references that share no code with it."""

    @pytest.mark.parametrize("norm", [0.5, 5.0, 50.0, 200.0])
    def test_unitary_matches_eigendecomposition(self, norm):
        # 50 and 200 lie well above THETA_13, so those run the squarings
        h = scaled(np.random.default_rng(81), 16, norm, hermitian=True)
        w, v = np.linalg.eigh(h)
        want = (v * np.exp(-1j * w)) @ v.conj().T
        assert np.abs(_expm(-1j * h) - want).max() <= 1e-13

    def test_diagonal_is_elementwise_exp(self):
        # a normal matrix whose 1-norm, its spectral radius, is 1.9 * THETA_13:
        # the approximant alone would be off by ~1e-8 there
        w = np.linspace(-1.9, 1.9, 8) * THETA_13
        d = -0.1 * np.abs(w) + 1j * w * np.sqrt(0.99)
        assert np.abs(_expm(np.diag(d)) - np.diag(np.exp(d))).max() <= 1e-13

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_nilpotent_series_is_finite(self, scale):
        n = np.triu(np.random.default_rng(82).normal(size=(6, 6)), 1) * scale
        want, term = np.eye(6), np.eye(6)
        for k in range(1, 6):  # n^6 = 0
            term = term @ n / k
            want = want + term
        assert np.abs(_expm(n) - want).max() <= 1e-13

    @pytest.mark.parametrize("norm", [0.3, 2.5])
    def test_double_argument_is_square(self, norm):
        # both a and 2a lie below THETA_13, so neither side is a squaring of the other
        a = scaled(np.random.default_rng(83), 12, norm)
        assert 2.0 * norm <= THETA_13
        e = _expm(a)
        assert np.abs(_expm(2.0 * a) - e @ e).max() <= 1e-13

    def test_zero_gives_identity(self):
        assert np.abs(_expm(np.zeros((3, 3), dtype=complex)) - np.eye(3)).max() <= 1e-15

    def test_stack_equals_slices(self):
        # the stack shares the scaling of its larger slice, a unitary generator
        rng = np.random.default_rng(84)
        stack = np.stack([scaled(rng, 10, 1.0), -1j * scaled(rng, 10, 30.0, hermitian=True)])
        out = _expm(stack)
        assert out.shape == stack.shape
        for got, slice_ in zip(out, stack):
            assert np.abs(got - _expm(slice_)).max() <= 1e-13


class TestIntegrate:
    def test_pure_exchange_rabi_oscillation(self):
        # two-level analytic solution: starting in |ge>, the inner population
        # oscillates as (1 + cos(lam t))/2 with no field present
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.0)
        n_max = 0
        initial = XState(0.0, 1.0, 0.0, 0.0)
        sample_times = [0.5, 1.0, 2.0, 3.0]
        result = integrate(initial, params, n_max, sample_times)
        assert_allclose(result.states.p2, 0.5 * (1.0 + np.cos(result.times)), atol=1e-12)

    def test_trace_preserved(self):
        params = TCParams(lam=1.0, kappa=0.2, alpha_sq=0.8)
        n_max = min_cutoff(0.8)
        initial = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
        result = integrate(initial, params, n_max, 2.0)
        assert result.max_trace_drift <= 1e-8
        assert result.min_eigenvalue >= -1e-8

    def test_joint_state_positive_and_reduces_to_result(self):
        # oracle: all 2*n_max+1 sectors propagated and assembled into the
        # joint state, which integrate never forms
        params = TCParams(lam=1.0, kappa=0.2, alpha_sq=0.8)
        n_max = min_cutoff(0.8)  # n_max = 13
        initial = random_xstate(np.random.default_rng(46))
        times = [0.0, 0.7, 2.0]
        joint = joint_states(initial, params, n_max, times)
        dim = 4 * (n_max + 1)
        joint_min = np.linalg.eigvalsh(joint.reshape(len(times), dim, dim)).min()
        assert joint_min >= -1e-8
        result = integrate(initial, params, n_max, times)
        # each block <n|rho|n> is a compression of the joint state (Cauchy interlacing)
        assert result.min_eigenvalue >= joint_min - 1e-12
        conditioned = np.moveaxis(np.diagonal(joint, axis1=2, axis2=4), -1, 1)
        assert_allclose(result.min_eigenvalue, np.linalg.eigvalsh(conditioned).min(), atol=1e-12)
        traced = np.einsum("sanbn->sab", joint)
        reduced = [result.states.row(i).to_matrix() for i in range(len(times))]
        assert np.abs(traced - reduced).max() <= 1e-12

    def test_arbitrary_unsorted_times(self):
        # non-uniform, unsorted, with a repeat: the result is sorted by time and
        # each sample matches a propagation straight to that time
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        n_max = min_cutoff(0.8)
        initial = random_xstate(np.random.default_rng(45))
        times = [2.5, 0.0, 0.31, 1.7, 0.31, 4.0]
        result = integrate(initial, params, n_max, times)
        assert np.array_equal(result.times, np.sort(times))
        for i, t in enumerate(result.times):
            alone = integrate(initial, params, n_max, t).states.row(0)
            assert np.abs(result.states.row(i).to_matrix() - alone.to_matrix()).max() <= 1e-12
        report = compare(initial, params, times, n_max)
        assert np.array_equal(report.times, np.sort(times))
        assert report.max_deviation <= 1e-12

    def test_split_matches_unsplit_exponential(self):
        # fig1 at n_max = 25: one eigh of the 4 x 4 pair parts and the closed
        # form of the 26 x 26 Fock ones replace the stacked (2, 104, 104)
        # exponential
        cfg = preset_config("fig1")
        n_max = 25
        result = integrate(cfg.initial, cfg.params, n_max, [0.1])
        want = unsplit_reduced(cfg.initial, cfg.params, n_max, [0.1])
        assert np.abs(result.states.row(0).to_matrix() - want[0]).max() <= 1e-15

    def test_planted_outer_exchange_is_refused(self, monkeypatch):
        # an |gg><ee| exchange couples outer pairs whose Fock blocks differ, so
        # the terms X (x) I and blockdiag(D_p) do not commute: refused
        monkeypatch.setattr("xdiscord.oracle._exchange", planted_outer_exchange)
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        n_max = min_cutoff(0.8)
        initial = random_xstate(np.random.default_rng(47))
        with pytest.raises(ValueError, match="coupled atomic pairs have different Fock blocks"):
            integrate(initial, params, n_max, [0.0, 0.4, 1.3, 2.0])

    def test_planted_outer_exchange_exponentiates_nothing(self, monkeypatch, work):
        # the refusal comes before the eigh of X and before any exponential,
        # so nothing is propagated as a fallback
        monkeypatch.setattr("xdiscord.oracle._exchange", planted_outer_exchange)
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        n_max = min_cutoff(0.8)
        with pytest.raises(ValueError, match="coupled atomic pairs have different Fock blocks"):
            integrate(random_xstate(np.random.default_rng(48)), params, n_max, [0.4])
        assert work["eigh"] == work["expm1"] == []
        assert set(work["exp"]) == {(n_max + 1,)}  # photon_weights' amplitudes alone

    def test_n_dependent_coupled_shift_is_not_split(self, monkeypatch):
        # an n-dependent shift of |eg> gives the exchange-coupled inner pairs
        # different Fock blocks: the terms do not commute, and the
        # commutation check must refuse the generator
        def shifted(params, fdim):
            s = _stark(params, fdim)
            s[2] += 0.1 * params.lam * np.arange(fdim)
            return s

        monkeypatch.setattr("xdiscord.oracle._stark", shifted)
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        n_max = min_cutoff(0.8)
        initial = random_xstate(np.random.default_rng(49))
        with pytest.raises(ValueError, match="coupled atomic pairs have different Fock blocks"):
            integrate(initial, params, n_max, [0.0, 0.4, 1.3, 2.0])

    def test_non_affine_fock_diagonal_is_refused(self, monkeypatch):
        # a Kerr-like n^2 shift of |ee> bends the outer coherences' Fock
        # diagonals, which the closed form needs affine in n: refused
        def bent(params, fdim):
            s = _stark(params, fdim)
            s[3] += 0.01 * params.lam * np.arange(fdim) ** 2
            return s

        monkeypatch.setattr("xdiscord.oracle._stark", bent)
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        with pytest.raises(ValueError, match="diagonal is not affine in n"):
            integrate(random_xstate(np.random.default_rng(50)), params, 13, [0.4])

    @pytest.mark.parametrize("n_max", [25, MAX_N_MAX])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_exponentials_are_elementwise(self, name, n_max, work):
        # per chunk of samples, exp and expm1 act elementwise on (group, pair,
        # sample) arrays, after one eigh of the two groups' 4 x 4 pair parts:
        # no L x L exponential is formed
        cfg = preset_config(name)
        integrate(cfg.initial, cfg.params, n_max, [0.1, 0.2, 0.5])
        assert work["eigh"] == [(2, 4, 4)]
        assert work["expm1"] == [(2, 4, 3)]
        # photon_weights takes one over the Fock levels
        assert sorted(set(work["exp"])) == [(2, 4, 3), (n_max + 1,)]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        params=st.builds(
            TCParams,
            lam=st.floats(0.1, 3.0),
            kappa=st.just(0.0) | st.floats(0.0, 2.0),
            alpha_sq=st.just(0.0) | st.floats(0.0, 1.5),
        ),
        times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
    )
    def test_factored_matches_unsplit_exponential(self, seed, params, times):
        # alpha_sq = 0 keeps one Fock level, so the field factor is 1 x 1
        initial = random_xstate(np.random.default_rng(seed))
        n_max = min_cutoff(params.alpha_sq)
        result = integrate(initial, params, n_max, times)
        want = unsplit_reduced(initial, params, n_max, result.times)
        for i in range(len(times)):
            assert np.abs(result.states.row(i).to_matrix() - want[i]).max() <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.1, 3.0),
        alpha_sq=st.floats(0.01, 1.5),
        times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
    )
    def test_undamped_field_matches_unsplit_exponential(self, seed, lam, alpha_sq, times):
        # kappa = 0 zeroes b_p = -i lam (e_j - e_k) - kappa on the pairs with
        # e_j = e_k, where q_p = kappa (e^{b_p t} - 1) / b_p is 0/0 and takes
        # its limit kappa t = 0, on a field with more than one Fock level
        params = TCParams(lam=lam, kappa=0.0, alpha_sq=alpha_sq)
        initial = random_xstate(np.random.default_rng(seed))
        n_max = min_cutoff(alpha_sq)
        result = integrate(initial, params, n_max, times)
        want = unsplit_reduced(initial, params, n_max, result.times)
        for i in range(len(times)):
            assert np.abs(result.states.row(i).to_matrix() - want[i]).max() <= 1e-13

    def test_peak_memory_at_largest_cutoff(self):
        # one L x L table of binomial weights, 8*L^2 bytes (~0.3 MB at
        # L = 201), bounds the peak; the eight L x L Fock blocks and their
        # exponentials took 128*L^2 bytes each set, and a dense (2, 4L, 4L)
        # generator 512*L^2 bytes
        cfg = preset_config("fig1")
        integrate(cfg.initial, cfg.params, 25, [0.1])
        tracemalloc.start()
        try:
            integrate(cfg.initial, cfg.params, MAX_N_MAX, [0.0, 0.1, 0.2, 0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6

    def test_peak_memory_on_a_long_grid(self):
        # the Fock elements of SAMPLE_CHUNK samples at a time (~0.4 MB an
        # array at n_max = 25) and the reduced states (~2.6 MB) bound the
        # peak; keeping every sample's Fock elements took 103 MB here
        cfg = preset_config("fig1")
        integrate(cfg.initial, cfg.params, 25, [0.1])
        tracemalloc.start()
        try:
            integrate(cfg.initial, cfg.params, 25, np.linspace(0.0, 2.0, 20_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    def test_chunks_carry_the_state_across(self):
        # samples on both sides of each chunk boundary match the generator
        # exponentiated whole and straight to their times: each chunk starts
        # from the initial state, so no roundoff carries across
        cfg = preset_config("fig1")
        times = np.linspace(0.0, 3.0, 2 * SAMPLE_CHUNK + 3)
        result = integrate(cfg.initial, cfg.params, 12, times)
        picks = [0, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, 2 * SAMPLE_CHUNK, 2 * SAMPLE_CHUNK + 2]
        want = unsplit_reduced(cfg.initial, cfg.params, 12, times[picks])
        for i, k in enumerate(picks):
            assert np.abs(result.states.row(k).to_matrix() - want[i]).max() <= 1e-13

    def test_non_finite_propagation_refused(self):
        # at lam = 1e20 the largest phase, lam * t * (2 n_max + 1) = 1.5e21,
        # is far past 2**53 and the closed form would return finite garbage:
        # refused, with no warning
        cfg = preset_config("fig1")
        params = replace(cfg.params, lam=1e20)
        text = r"phase of the propagation, 1\.530e\+21, is not below 2\*\*53"
        with pytest.raises(ValueError, match=text):
            integrate(cfg.initial, params, 25, [0.0, 0.1, 0.2, 0.3])

    def test_rejects_negative_or_empty_times(self):
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.0)
        n_max = 0
        for times in ([], [1.0, -0.5], [math.nan], [math.inf]):
            with pytest.raises(ValueError, match="times"):
                integrate(XState(1, 0, 0, 0), params, n_max, times)


def inner_rate_error(initial, params, t):
    """evolve with the inner block rotating at 1.01 * lam."""
    base = evolve(initial, params, t)
    fast = evolve(initial, replace(params, lam=1.01 * params.lam), t)
    return replace(base, p2=fast.p2, p3=fast.p3, r23=fast.r23, phi2=fast.phi2)


def inner_damped(initial, params, t):
    """evolve with the inner coherence damped by exp(-kappa t)."""
    base = evolve(initial, params, t)
    return replace(base, r23=base.r23 * np.exp(-params.kappa * np.asarray(t)))


def outer_as_printed(initial, params, t):
    """evolve with the outer dephasing built on z = kappa + 4i lam, whose
    |z|^2 is the as-printed denominator kappa^2 + (4 lam)^2, for kappa + 2i lam."""
    lam, ts = params.lam, np.asarray(t)
    z = complex(params.kappa, 4.0 * lam)
    w = -1j * lam * ts - (2j * lam * params.alpha_sq / z) * (1.0 - np.exp(-z * ts))
    base = evolve(initial, params, t)
    # rho14(t) = rho14(0) * conj(exp(w))
    return replace(base, r14=initial.r14 * np.exp(w.real), phi1=(initial.phi1 - w.imag) % (2 * np.pi))


class TestPlantedErrors:
    """The oracle reads nothing of the analytic solution, so an error planted
    in evolve must fail verify. fig1 on the verify grid to t = 5 (51 samples)
    moves both blocks; on fig3-separable and fig3-entangled the inner block
    does not rotate, and a rate error there would not show."""

    ARGV = ["verify", "--preset", "fig1", "--t-max", "5", "--sweep-states", "0"]

    def deviation(self):
        cfg = preset_config("fig1")
        n_max = 25
        return compare(cfg.initial, cfg.params, np.linspace(0.0, 5.0, 51), n_max).max_deviation

    def test_unperturbed_evolve_passes(self, capsys):
        assert self.deviation() <= 1e-12
        assert main(self.ARGV) == 0

    @pytest.mark.parametrize(
        "planted", [inner_rate_error, inner_damped, outer_as_printed], ids=lambda f: f.__name__
    )
    def test_planted_error_fails_verify(self, planted, monkeypatch, capsys):
        monkeypatch.setattr("xdiscord.oracle.evolve", planted)
        assert self.deviation() > PROPAGATOR_TOL
        assert main(self.ARGV) == 4


class TestCompare:
    def test_zero_time_grid(self):
        params = TCParams(lam=1.0, kappa=0.05, alpha_sq=0.5922)
        n_max = min_cutoff(0.5922)
        initial = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
        report = compare(initial, params, [0.0], n_max)
        assert report.max_deviation <= 1e-14

    def test_field_decoupled_case(self):
        # no photons, no damping: both paths are exact up to roundoff
        params = TCParams(lam=1.0, kappa=0.0, alpha_sq=0.0)
        n_max = 0
        initial = XState(0.3, 0.25, 0.25, 0.2, r14=0.15, r23=0.1)
        report = compare(initial, params, np.linspace(0.0, 5.0, 11), n_max)
        assert report.max_deviation <= 1e-12

    def test_random_phase_initial_state(self):
        rng = np.random.default_rng(44)
        initial = random_xstate(rng)
        params = TCParams(lam=1.0, kappa=0.17, alpha_sq=0.8)
        n_max = min_cutoff(0.8)
        report = compare(initial, params, np.linspace(0.0, 2.0, 5), n_max)
        assert report.max_deviation <= 1e-9
        assert report.p1_drift <= 1e-9
        assert report.p4_drift <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        params=st.builds(
            TCParams,
            lam=st.floats(0.1, 3.0),
            kappa=st.floats(0.0, 2.0),
            alpha_sq=st.floats(0.0, 1.5),
        ),
        times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
    )
    def test_oracle_matches_evolve(self, seed, params, times):
        initial = random_xstate(np.random.default_rng(seed))
        n_max = min_cutoff(params.alpha_sq)
        report = compare(initial, params, times, n_max)
        assert report.max_deviation <= 1e-9

    def test_truncation_convergence(self):
        # doubling the cutoff must not move the reduced state
        params = TCParams(lam=1.0, kappa=0.1, alpha_sq=1.0)
        initial = XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736)
        finals = []
        for n_max in (14, 28):
            result = integrate(initial, params, n_max, 2.0)
            finals.append(result.states.row(0).to_matrix())
        assert np.abs(finals[0] - finals[1]).max() <= 1e-9

    def test_fig3_separable_long_time_steady_coherence(self):
        # |rho14| reaches the stationary value and the analytic propagator
        # holds to roundoff over 300/lambda
        cfg = preset_config("fig3-separable")
        n_max = min_cutoff(cfg.params.alpha_sq)
        assert n_max == 14
        times = [0.0, 100.0, 200.0, 300.0]
        report = compare(cfg.initial, cfg.params, times, n_max)
        assert report.max_deviation <= 1e-12
        result = integrate(cfg.initial, cfg.params, n_max, times)
        steady = steady_coherence(cfg.initial.r14, cfg.params)
        assert abs(result.states.r14[-1] - steady) <= 1e-6
