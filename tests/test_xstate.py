import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import xdiscord
from xdiscord import (
    InvalidStateError,
    XColumns,
    XState,
    discord,
    eigenvalues,
    entropy_bits,
    random_xstate,
    require_valid,
)

BELL = XState(0.5, 0.0, 0.0, 0.5, r14=0.5)
FIG1 = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
MIXED = XState(0.25, 0.25, 0.25, 0.25)
TWO_PI = 2.0 * math.pi


class TestValidate:
    """require_valid, the one validity check."""

    def test_bell_boundary_is_valid(self):
        # pure-state boundary: p1*p4 = r14^2 exactly
        require_valid(BELL)

    def test_fig1_initial_is_valid(self):
        # outer block exactly on the boundary: 1/16 = 0.25^2
        require_valid(FIG1)

    def test_outer_block_violation(self):
        bad = XState(0.25, 0.25, 0.25, 0.25, r14=0.3)
        with pytest.raises(InvalidStateError, match="outer block"):
            require_valid(bad)

    def test_small_block_with_negative_eigenvalue_rejected(self):
        # p1*p4 = 1e-14 is within 1e-12 of r14^2 = 9.1e-13, but the outer
        # block's smaller eigenvalue is -8.5e-7
        bad = XState(1e-7, 0.5, 0.4999998, 1e-7, r14=9.539392014169456e-07)
        with pytest.raises(InvalidStateError, match="outer block has an eigenvalue below -1e-12"):
            require_valid(bad)
        with pytest.raises(InvalidStateError, match="row 0 of 1 "):
            require_valid(XColumns.from_states([bad]))

    @pytest.mark.parametrize("scale", [1e-7, 1e-3, 0.25])
    @pytest.mark.parametrize("block", ["outer", "inner"])
    def test_block_check_is_an_eigenvalue_bound(self, scale, block):
        # a block [[s, r], [r, s]] has the smaller eigenvalue s - r, so
        # r = s + 2e-12 is refused at every scale s and r = s + 0.5e-12 passes
        def state(r):
            if block == "outer":
                return XState(scale, 0.5 - scale, 0.5 - scale, scale, r14=r)
            return XState(0.5 - scale, scale, scale, 0.5 - scale, r23=r)

        require_valid(state(scale + 0.5e-12))
        with pytest.raises(InvalidStateError, match=f"{block} block has an eigenvalue"):
            require_valid(state(scale + 2e-12))

    def test_trace_violation(self):
        with pytest.raises(InvalidStateError, match="trace"):
            require_valid(XState(0.5, 0.5, 0.5, 0.5))

    def test_negative_population(self):
        with pytest.raises(InvalidStateError, match="negative"):
            require_valid(XState(-0.1, 0.5, 0.3, 0.3))


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
            back = XColumns.from_coherences(
                *(np.array([m[i, i].real]) for i in range(4)),
                np.array([m[0, 3]]), np.array([m[1, 2]]),
            ).row(0)
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

    def test_valid_state_spectrum_clamped_to_zero(self):
        # require_valid accepts the state, and its inner block's smaller
        # eigenvalue rounds to -1.00003e-12, beyond DEFAULT_TOL
        s = XState(0.25, 0.1, 0.4, 0.25, r23=0.20000000000125)
        require_valid(s)
        vals = eigenvalues(s)
        assert vals.min() == 0.0
        assert entropy_bits(vals) == pytest.approx(1.5, abs=1e-10)


class TestEntropyBits:
    def test_pure(self):
        assert entropy_bits([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert_allclose(entropy_bits([0.5, 0.5]), 1.0, atol=1e-15)

    def test_quarter_three_quarter(self):
        # frozen from the exact expression 2 - 0.75*log2(3)
        assert_allclose(entropy_bits([0.25, 0.75]), 0.8112781244591328, atol=1e-15)

    def test_rejects_negative(self):
        # the message shows a plain float, not np.float64(...)
        with pytest.raises(ValueError, match=r"^negative probability -0\.2 beyond tolerance"):
            entropy_bits([-0.2, 1.2])

    @pytest.mark.parametrize(
        "probabilities",
        [[0.5, math.nan], [0.5, 0.5, math.inf], [[0.5, 0.5], [1.0, math.nan]]],
        ids=["nan", "inf", "nan-in-stack"],
    )
    def test_rejects_non_finite(self, probabilities):
        # these gave nan, -inf and a nan row
        with pytest.raises(ValueError, match="probabilities must be finite"):
            entropy_bits(probabilities)

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


def test_only_nullity_check_takes_a_tolerance():
    """Physicality checks all use DEFAULT_TOL; nullity_check alone takes `tol`,
    since its callers need different values."""
    names = [f"xdiscord.{m.name}" for m in pkgutil.iter_modules(xdiscord.__path__)]
    with_tol = set()
    for module in [xdiscord] + [importlib.import_module(name) for name in names]:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            members = [obj] + (list(vars(obj).values()) if inspect.isclass(obj) else [])
            for fn in (getattr(m, "__func__", m) for m in members):
                if inspect.isfunction(fn) and "tol" in inspect.signature(fn).parameters:
                    with_tol.add(f"{fn.__module__}.{fn.__qualname__}")
    assert with_tol == {"xdiscord.discord.nullity_check"}


def on_boundary(c):
    """Rows with a coherence magnitude exactly on its positivity bound."""
    return (c.r14 == np.sqrt(c.p1 * c.p4)) | (c.r23 == np.sqrt(c.p2 * c.p3))


class TestRandomXState:
    def test_batch_rows_are_valid(self):
        batch = random_xstate(np.random.default_rng(40), 2000)
        assert isinstance(batch, XColumns) and len(batch) == 2000
        require_valid(batch)
        for phi in (batch.phi1, batch.phi2):
            assert np.all((phi >= 0.0) & (phi < TWO_PI))

    def test_boundary_fraction(self):
        rng = np.random.default_rng(41)
        assert abs(on_boundary(random_xstate(rng, 10_000)).mean() - 0.1) <= 0.01
        assert on_boundary(random_xstate(rng, 1000, boundary_fraction=1.0)).all()
        assert not on_boundary(random_xstate(rng, 1000, boundary_fraction=0.0)).any()

    @pytest.mark.parametrize("boundary_fraction", [0.1, 1.0])
    def test_one_state_is_the_row_of_a_batch_of_one(self, boundary_fraction):
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        for _ in range(50):
            state = random_xstate(a, boundary_fraction=boundary_fraction)
            assert isinstance(state, XState)
            assert state == random_xstate(b, 1, boundary_fraction=boundary_fraction).row(0)

    def test_empty_batch(self):
        batch = random_xstate(np.random.default_rng(43), 0)
        assert isinstance(batch, XColumns) and len(batch) == 0

    @pytest.mark.parametrize("n", [-1, 2.5, 0.5, 3.0, True, False])
    def test_bad_count_refused(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n = {n!r}")):
            random_xstate(np.random.default_rng(44), n)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
    def test_bad_boundary_fraction_refused(self, fraction):
        with pytest.raises(ValueError, match=re.escape(f"boundary_fraction = {fraction!r}")):
            random_xstate(np.random.default_rng(45), 10, boundary_fraction=fraction)

    def test_boundary_fraction_is_keyword_only(self):
        with pytest.raises(TypeError):
            random_xstate(np.random.default_rng(46), 10, 0.5)
