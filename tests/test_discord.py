import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from xdiscord import (
    COHERENCE_FREE,
    DEGENERATE_BALANCED,
    NOT_NULL,
    PRESETS,
    InvalidStateError,
    XColumns,
    XState,
    build_chi_m1,
    build_chi_m2,
    discord,
    eigenvalues,
    minimize_numeric,
    nullity_check,
    preset_config,
    random_xstate,
    require_valid,
    trajectory,
)
from xdiscord.discord import (
    SEARCH_CHUNK,
    SHRINK_ROUNDS,
    THETA_GRID,
    _ROUND_OFFSETS,
    _cond_entropy_grid,
)
from xdiscord.xstate import DEFAULT_TOL, FIELDS, _xlog2x, entropy_bits

from samplers import family_edge_xstates, random_degenerate_balanced

TWO_PI = 2.0 * math.pi

BELL = XState(0.5, 0.0, 0.0, 0.5, r14=0.5)
MIXED = XState(0.25, 0.25, 0.25, 0.25)
FIG1 = XState(0.25, 3 / 16, 5 / 16, 0.25, r14=0.25, r23=0.05)
FIG3_SEP = XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736)
FIG3_ENT = XState(0.4, 0.1, 0.1, 0.4, r14=0.4, r23=0.05)
EQ9 = XState(0.3, 0.3, 0.2, 0.2, r14=0.1, r23=0.1)
#: A state whose measurement optimum lies strictly between theta = 0 and pi/4.
INTERIOR = XState(
    p1=0.028481387072403778, p2=0.9148273750929674, p3=0.056388264502691667,
    p4=0.00030297333193714975, r14=0.0025302925359784964, phi1=2.979637906773482,
    r23=0.20630937565720242, phi2=5.592793518703005,
)


def plogp(p) -> np.ndarray:
    """Elementwise entropy terms -p*log2(p), with 0 where p <= 0: the masked
    form, the reference for the library's one x*log2(x)."""
    p = np.asarray(p, dtype=float)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    logs *= p
    return np.negative(logs, out=logs)


def binary_entropy(x) -> np.ndarray:
    """h(x) = -x*log2(x) - (1-x)*log2(1-x), elementwise, 0 at the endpoints."""
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.0) & (x < 1.0), plogp(x) + plogp(1.0 - x), 0.0)


def paper_c_m1(s):
    """C_m1 as the paper writes it: (p2+p4)*h(p2/(p2+p4)) +
    (p1+p3)*h(p1/(p1+p3)), an empty branch giving 0."""

    def branch(a, b):
        total = a + b
        return total * binary_entropy(a / total) if total > 0.0 else 0.0

    return float(branch(s.p2, s.p4) + branch(s.p1, s.p3))


def paper_c_m2(s):
    """C_m2 as the paper writes it: h((1 + upsilon)/2), with upsilon =
    sqrt((p1+p2-p3-p4)^2 + 4*(r14+r23)^2)."""
    upsilon = math.hypot(s.p1 + s.p2 - s.p3 - s.p4, 2.0 * (s.r14 + s.r23))
    return float(binary_entropy(0.5 * (1.0 + upsilon)))


def cond_entropy_basis(state, theta, phi=0.0):
    """Conditional entropy sum_k p_k S(rho_k) after measuring B in the basis
    |+> = cos(theta)|e> + sin(theta)e^{i phi}|g> and its orthogonal
    complement, from the library's grid kernel at one (theta, phi)."""
    require_valid(state)
    c = XColumns.from_states([state])
    coh = np.abs(c.r14 * np.exp(1j * (c.phi1 - phi)) + c.r23 * np.exp(1j * (c.phi2 + phi)))
    return _cond_entropy_grid(c, np.sin(theta) ** 2, coh).item()


def reference_cond_entropy_grid(states, thetas, coh):
    """The measured conditional entropy as the library first computed it:
    thetas broadcast against shape (rows, 1), result (rows, k), one hypot
    radius and three plogp terms per outcome block. The reference for the
    library's fused kernel, which returns the same points as (k, rows)."""
    s2 = np.sin(thetas) ** 2
    c2 = 1.0 - s2
    off = np.sqrt(s2 * c2) * coh[:, None]
    p1, p2, p3, p4 = (p[:, None] for p in (states.p1, states.p2, states.p3, states.p4))
    total = 0.0
    for a, b in ((s2, c2), (c2, s2)):  # outcome along |+>, then along |->
        # the block is [[a*p1 + b*p2, .], [., a*p3 + b*p4]]
        mid = 0.5 * (a * (p1 + p3) + b * (p2 + p4))
        rad = np.hypot(0.5 * (a * (p1 - p3) + b * (p2 - p4)), off)
        total += plogp(mid + rad)
        total += plogp(np.maximum(mid - rad, 0.0))
        total -= plogp(2.0 * mid)
    return total


def take_rows(c, rows):
    """The rows `rows` (a slice) of an XColumns batch."""
    return XColumns(*(getattr(c, name)[rows] for name in FIELDS))


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
            got = cond_entropy_basis(s, theta, phi)
            want = dense_cond_entropy(s, theta, phi)
            assert_allclose(got, want, atol=1e-12)

    def test_theta_zero_equals_c_m1(self):
        rng = np.random.default_rng(4)
        for s in [BELL, MIXED, FIG1] + [random_xstate(rng) for _ in range(30)]:
            assert_allclose(
                cond_entropy_basis(s, 0.0), discord(s).c_m1, atol=1e-12
            )
            assert_allclose(
                cond_entropy_basis(s, math.pi / 2), discord(s).c_m1, atol=1e-12
            )

    def test_bell_any_basis_is_zero(self):
        # conditioned A state is pure for every basis (checked via the dense
        # oracle as well, which computes the post-measurement state explicitly)
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = rng.uniform(0.0, math.pi / 2)
            phi = rng.uniform(0.0, TWO_PI)
            assert_allclose(cond_entropy_basis(BELL, theta, phi), 0.0, atol=1e-12)
            assert_allclose(dense_cond_entropy(BELL, theta, phi), 0.0, atol=1e-12)

    def test_maximally_mixed_any_basis_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta, phi = rng.uniform(0, math.pi / 2), rng.uniform(0, TWO_PI)
            assert_allclose(cond_entropy_basis(MIXED, theta, phi), 1.0, atol=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            cond_entropy_basis(XState(0.25, 0.25, 0.25, 0.25, r23=0.5), 0.3)


#: Rows where an eigenvalue, an outcome or a population is exactly 0, or a
#: coherence sits exactly on its positivity bound.
EDGE_STATES = [
    BELL,
    MIXED,
    XState(0.0, 0.7, 0.0, 0.3),  # p1 = p3 = 0
    XState(0.55, 0.0, 0.45, 0.0),  # p2 = p4 = 0
    XState(0.3, 0.2, 0.1, 0.4, r14=math.sqrt(0.12), phi1=1.0, r23=math.sqrt(0.02), phi2=2.5),
]


def sorted_spectrum(c):
    """The X spectrum as eigenvalues first formed it: each block's mean +-
    its radius, negatives clamped to 0, then np.sort per row, descending."""
    outer_mid, inner_mid = 0.5 * (c.p1 + c.p4), 0.5 * (c.p2 + c.p3)
    outer_rad = np.hypot(0.5 * (c.p1 - c.p4), c.r14)
    inner_rad = np.hypot(0.5 * (c.p2 - c.p3), c.r23)
    outer = [outer_mid + outer_rad, outer_mid - outer_rad]
    inner = [inner_mid + inner_rad, inner_mid - inner_rad]
    vals = np.stack(outer + inner, axis=-1)
    np.maximum(vals, 0.0, out=vals)
    return np.sort(vals, axis=-1)[:, ::-1]


def assert_breakdown_composes(c):
    """discord(c) carries the bits of the composition it replaced: S(AB) from
    the np.sort spectrum and S(A), S(B) from one entropy_bits call each. The
    public spectrum equals the np.sort one."""
    br = discord(c)
    assert_array_equal(eigenvalues(c), sorted_spectrum(c))
    s_ab = entropy_bits(sorted_spectrum(c))
    s_a = entropy_bits(np.stack([c.p1 + c.p2, c.p3 + c.p4], axis=-1))
    s_b = entropy_bits(np.stack([c.p1 + c.p3, c.p2 + c.p4], axis=-1))
    mutual = s_a + s_b - s_ab
    classical = s_a - np.minimum(br.c_m1, br.c_m2)
    for got, want in (
        (br.mutual_info, mutual), (br.classical_corr, classical), (br.discord, mutual - classical)
    ):
        assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestBreakdownBits:
    """The merged spectrum and the entropies summed entry by entry along the
    rows change no output bit."""

    @given(st.lists(x_states, min_size=1, max_size=30))
    def test_random_and_boundary_batches(self, states):
        assert_breakdown_composes(XColumns.from_states(states))

    def test_edge_rows(self):
        assert_breakdown_composes(XColumns.from_states(EDGE_STATES + [XState(1.0, 0.0, 0.0, 0.0)]))

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3-separable", "fig3-entangled"])
    def test_preset_trajectories(self, name):
        cfg = preset_config(name)
        traj = trajectory(cfg.initial, cfg.params, cfg.t_max, cfg.n_samples)
        assert_breakdown_composes(traj.states)


class TestCondEntropyGrid:
    """The fused kernel against the hypot kernel it replaced."""

    @given(state=x_states, theta=st.floats(0.0, math.pi / 2), coh_fraction=st.floats(0.0, 1.0))
    def test_matches_reference_kernel(self, state, theta, coh_fraction):
        c = XColumns.from_states([state])
        coh = coh_fraction * (c.r14 + c.r23)
        assert_allclose(
            _cond_entropy_grid(c, np.sin(theta) ** 2, coh),
            reference_cond_entropy_grid(c, theta, coh)[:, 0],
            rtol=0,
            atol=2e-15,
        )

    def test_edge_rows_match_reference_without_warnings(self):
        # 0*log2(0) must read 0 without a floating-point warning, also where
        # an eigenvalue comes out as a rounding-level negative
        c = XColumns.from_states(EDGE_STATES)
        coh = c.r14 + c.r23
        thetas = np.array([0.0, math.pi / 4, math.pi / 2])
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            got = _cond_entropy_grid(c, np.sin(thetas[:, None]) ** 2, coh)
        assert got.shape == (len(thetas), len(EDGE_STATES))
        want = reference_cond_entropy_grid(c, thetas, coh).T
        assert_allclose(got, want, rtol=0, atol=2e-15)
        assert_allclose(got[:, 0], 0.0, atol=2e-15)  # BELL
        assert_allclose(got[:, 1], 1.0, atol=2e-15)  # MIXED


def allocating_cond_entropy_grid(states, s2, coh):
    """_cond_entropy_grid as it was before it took its work arrays from
    per-thread memory: the same steps in the same order, each into a new
    array. The bit reference for the kernel."""
    off2 = (s2 - s2 * s2) * (coh * coh)
    total = np.zeros(off2.shape)
    scratch = np.empty(off2.shape)
    p13, p24 = 0.5 * (states.p1 + states.p3), 0.5 * (states.p2 + states.p4)
    d13, d24 = 0.5 * (states.p1 - states.p3), 0.5 * (states.p2 - states.p4)
    for mid0, mid1, half0, half1 in ((p24, p13, d24, d13), (p13, p24, d13, d24)):
        mid = s2 * (mid1 - mid0)
        mid += mid0
        rad = s2 * (half1 - half0)
        rad += half0
        rad *= rad
        rad += off2
        np.sqrt(rad, out=rad)
        low = mid - rad
        rad += mid
        total -= _xlog2x(rad, scratch)
        total -= _xlog2x(low, scratch)
        mid += mid
        total += _xlog2x(mid, scratch)
    return total


#: The forms of s2 that _cond_entropy_grid takes: one angle for every row, k
#: angles for every row, and k angles per row.
S2_FORMS = ["scalar", "column", "per-row"]
#: One kernel call: its rows, its number of angles, its form of s2, and
#: whether it is given `out`.
grid_calls = st.tuples(
    st.lists(x_states, min_size=1, max_size=40),
    st.integers(1, 70),
    st.sampled_from(S2_FORMS),
    st.booleans(),
)


def assert_grid_matches_allocating(states, k, form, with_out, seed=0):
    """One _cond_entropy_grid call equals allocating_cond_entropy_grid bit
    for bit, at k random angles in [0, pi/2] holding 0 and pi/4 (one angle
    for the scalar form); with `with_out`, into a NaN-filled `out` that it
    returns."""
    c = XColumns.from_states(states)
    rng = np.random.default_rng(seed)
    shape = {"scalar": (), "column": (k, 1), "per-row": (k, len(c))}[form]
    thetas = rng.uniform(0.0, math.pi / 2, shape)
    if form != "scalar":
        thetas[0, 0], thetas[-1, -1] = 0.0, math.pi / 4
    s2 = np.sin(thetas) ** 2
    if form == "scalar":
        s2 = float(s2)
    coh = rng.uniform(0.0, 1.0) * (c.r14 + c.r23)
    want = allocating_cond_entropy_grid(c, s2, coh)
    if with_out:
        out = np.full(want.shape, np.nan)
        got = _cond_entropy_grid(c, s2, coh, out=out)
        assert got is out
    else:
        got = _cond_entropy_grid(c, s2, coh)
    assert got.shape == want.shape
    assert_array_equal(got.view(np.int64), want.view(np.int64))


def search_in_thread(batch, want, rounds, matches):
    """Run minimize_numeric on `batch` `rounds` times and append to `matches`
    whether each result equals `want` bit for bit."""
    for _ in range(rounds):
        got = minimize_numeric(batch)
        same = (np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))
        matches.append(all(same))


class TestGridWorkMemory:
    """_cond_entropy_grid computes in memory that each thread keeps between
    calls. No result may depend on what an earlier call, or another thread,
    left there."""

    @given(call=grid_calls, seed=st.integers(0, 2**32 - 1))
    def test_matches_allocating_kernel(self, call, seed):
        assert_grid_matches_allocating(*call, seed=seed)

    def test_calls_of_growing_and_shrinking_shapes(self):
        states = [BELL, MIXED, FIG1, FIG3_SEP, FIG3_ENT, EQ9, INTERIOR] * 30
        for rows, k in ((3, 2), (210, 65), (1, 1), (50, 8), (210, 70), (2, 65), (7, 3)):
            for form in S2_FORMS:
                for with_out in (False, True):
                    assert_grid_matches_allocating(states[:rows], k, form, with_out)

    def test_search_unchanged_by_a_larger_search(self):
        small = XColumns.from_states([INTERIOR, FIG1, BELL, MIXED, EQ9])
        large = random_xstate(np.random.default_rng(45), 2000)
        before = minimize_numeric(small)
        minimize_numeric(large)
        after = minimize_numeric(small)
        for got, want in zip(after, before):
            assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_threads_get_their_sequential_results(self):
        # numpy releases the GIL inside a ufunc, and a short switch interval
        # interleaves the threads' kernel steps: memory shared between the
        # threads would mix their intermediates
        batches = [
            random_xstate(np.random.default_rng(577090037), 300),  # one interior row
            XColumns.from_states([INTERIOR, FIG1] * 200 + [BELL, MIXED] * 300),
        ]
        wants = [minimize_numeric(batch) for batch in batches]
        matches = [[], []]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=search_in_thread, args=(batch, want, 30, got))
                for batch, want, got in zip(batches, wants, matches)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matches == [[True] * 30, [True] * 30]

    def test_repeated_search_allocates_no_grid_arrays(self):
        # the measure-sweep benchmark's sweep at workload seed 0: each
        # (65, 300) float array takes 156 kB. Allocating each kernel step
        # peaked at about 1,250 kB; what remains is np.argmin's copy
        batch = random_xstate(np.random.default_rng(1654615998), 300)
        minimize_numeric(batch)
        tracemalloc.start()
        try:
            for _ in range(3):
                minimize_numeric(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * THETA_GRID * 300 * 8


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

    @given(family_edge_xstates())
    @example(XState(-0.9e-12, -0.9e-12, 0.5000000000009, 0.5000000000009))
    def test_upsilon_in_unit_interval_at_the_edges(self, state):
        # the example's p3 + p4 = 1 + 1.8e-12 is its Bloch component
        try:
            require_valid(state)
        except InvalidStateError:
            assume(False)
        assert 0.0 <= discord(state).upsilon <= 1.0

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
            phi = (0.5 * (s.phi1 - s.phi2)) % TWO_PI
            assert_allclose(discord(s).c_m2, cond_entropy_basis(s, math.pi / 4, phi), atol=1e-10)


class TestPaperFormulas:
    """discord() takes C_m1 and C_m2 from the measurement kernel at s2 = 0
    and 1/2; the paper's closed forms are the reference."""

    @staticmethod
    def assert_matches_paper(state):
        with np.errstate(all="raise"):
            br = discord(state)
            want = (paper_c_m1(state), paper_c_m2(state))
        assert_allclose((br.c_m1, br.c_m2), want, rtol=0, atol=1e-15)

    @given(state=x_states)
    def test_matches_paper_formulas(self, state):
        self.assert_matches_paper(state)

    # an empty C_m1 branch (p2 + p4 = 0, p1 + p3 = 0, or all but p1), and
    # upsilon = 1 (BELL, |gg>), where C_m2 is h(1) = 0
    @pytest.mark.parametrize("state", EDGE_STATES + [XState(1.0, 0.0, 0.0, 0.0)])
    def test_edge_rows(self, state):
        self.assert_matches_paper(state)


class TestEntropyBits:
    """entropy_bits runs on the library's one x*log2(x), which clamps its
    argument in place; the masked plogp is the reference."""

    def test_argument_unchanged(self):
        p = np.array([[0.5, -1e-13, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25]])
        before = p.copy()
        entropy_bits(p)
        assert np.array_equal(p.view(np.int64), before.view(np.int64))

    def test_bit_identical_to_masked_reference(self):
        rng = np.random.default_rng(50)
        p = np.exp(rng.uniform(math.log(1e-292), 0.0, (5000, 4)))
        p[:10, 0] = 1e-292
        p[::3, 1] = 0.0
        p[::7, 2] = -rng.uniform(0.0, DEFAULT_TOL, p[::7, 2].shape)
        p[:5] = [1.0, 0.0, -DEFAULT_TOL, 0.0]
        got, want = entropy_bits(p), plogp(p).sum(axis=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        one_at_a_time = np.array([entropy_bits(row) for row in p[:20]])
        assert np.array_equal(one_at_a_time.view(np.int64), want[:20].view(np.int64))


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
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = random_xstate(rng)
            br = discord(s)
            s_a = entropy_bits([s.p1 + s.p2, s.p3 + s.p4])
            assert_allclose(br.classical_corr, s_a - min(br.c_m1, br.c_m2), atol=1e-12)

    def test_marginal_of_two_tolerated_negatives_accepted(self):
        # p1 and p2 pass validation, but the marginal p1 + p2 = -1.8e-12 lies
        # beyond entropy_bits' tolerance: it counts as 0, like each of them
        state = XState(-0.9e-12, -0.9e-12, 0.5000000000009, 0.5000000000009)
        require_valid(state)
        with pytest.raises(ValueError, match="negative probability"):
            entropy_bits([state.p1 + state.p2, state.p3 + state.p4])
        br = discord(state)
        s_a = entropy_bits([0.0, state.p3 + state.p4])
        s_b = entropy_bits([state.p1 + state.p3, state.p2 + state.p4])
        assert br.mutual_info == s_a + s_b - entropy_bits(eigenvalues(state))
        assert abs(br.discord) <= 1e-9

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
        _, _, value = minimize_numeric(BELL)
        assert_allclose(value, 0.0, atol=1e-9)

    def test_maximally_mixed(self):
        _, _, value = minimize_numeric(MIXED)
        assert_allclose(value, 1.0, atol=1e-9)

    def test_never_above_closed_form(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            s = random_xstate(rng)
            br = discord(s)
            (value,) = minimize_numeric(s)[2]
            closed = min(br.c_m1, br.c_m2)
            assert value <= closed + 1e-6
            assert value >= closed - 5e-3

    @given(state=x_states)
    def test_2d_search_never_beats_exact(self, state):
        (theta,), (phi,), (value,) = minimize_numeric(state)
        assert search_2d(state) >= value - 1e-12
        assert_allclose(cond_entropy_basis(state, theta, phi), value, rtol=0, atol=1e-15)

    @given(state=x_states)
    def test_closed_form_never_below_exact(self, state):
        br = discord(state)
        (value,) = minimize_numeric(state)[2]
        assert min(br.c_m1, br.c_m2) >= value - 1e-12

    @given(states=st.lists(x_states, min_size=1, max_size=8))
    def test_batch_equals_rows_one_at_a_time(self, states):
        thetas, phis, values = minimize_numeric(XColumns.from_states(states))
        for i, state in enumerate(states):
            want = np.concatenate(minimize_numeric(state))
            assert_allclose([thetas[i], phis[i], values[i]], want, rtol=0, atol=1e-15)

    @given(state=x_states, shift=st.floats(-10.0, 10.0))
    def test_common_phase_shift_leaves_minimum(self, state, shift):
        shifted = XState(
            state.p1, state.p2, state.p3, state.p4,
            r14=state.r14, phi1=state.phi1 + shift, r23=state.r23, phi2=state.phi2 + shift,
        )
        want = minimize_numeric(state)[2]
        assert_allclose(minimize_numeric(shifted)[2], want, rtol=0, atol=1e-15)

    def test_interior_optimum_beyond_closed_form(self):
        # Both closed-form candidates miss the optimum of this state, which
        # sits at an interior theta.
        state = INTERIOR
        br = discord(state)
        (theta,), _, (value,) = minimize_numeric(state)
        assert_allclose(min(br.c_m1, br.c_m2) - value, 1.81e-3, atol=5e-6)
        assert_allclose(theta, 0.3677, atol=1e-4)
        assert abs(search_2d(state) - value) <= 1e-9

    def test_numeric_discord_nonnegative_for_null_states(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = random_degenerate_balanced(rng)
            br = discord(s)
            (exact,) = minimize_numeric(s)[2]
            value = br.discord - (min(br.c_m1, br.c_m2) - exact)
            assert -1e-9 <= value <= 1e-6


def expected_calls(n, live):
    """The kernel calls' sizes of a one-chunk search of n rows with `live`
    rows whose grid minimum is interior: the grid, then the rounds if any."""
    return [n * THETA_GRID] + ([live * 8] * SHRINK_ROUNDS if live else [])


def n_interior(theta):
    return int(np.count_nonzero((theta > 0.0) & (theta < math.pi / 4)))


class TestSearchWork:
    """The search evaluates every row on the 65-point grid, and only the
    rows whose grid minimum is interior at 12*8 = 96 more angles: one kernel
    call for the grid and one per round for a whole chunk, and none for the
    rounds of a chunk without such a row. Its memory is bounded by the
    chunk."""

    def test_chunk_without_live_row_makes_one_call(self, grid_points):
        # the measure-sweep benchmark's sweep at workload seed 0
        theta = minimize_numeric(random_xstate(np.random.default_rng(1654615998), 300))[0]
        assert n_interior(theta) == 0
        assert grid_points == [300 * THETA_GRID]

    def test_live_rows_make_the_rounds(self, grid_points):
        # the measure-sweep benchmark's sweep at workload seed 1
        theta = minimize_numeric(random_xstate(np.random.default_rng(577090037), 300))[0]
        assert n_interior(theta) == 1
        assert grid_points == expected_calls(300, 1)
        assert (len(grid_points), sum(grid_points)) == (13, 300 * THETA_GRID + 96)

    @pytest.mark.parametrize("n", [1, 300, SEARCH_CHUNK])
    def test_one_chunk_refines_only_its_live_rows(self, grid_points, n):
        theta = minimize_numeric(random_xstate(np.random.default_rng(41), n))[0]
        assert grid_points == expected_calls(n, n_interior(theta))

    def test_each_chunk_makes_its_own_calls(self, grid_points):
        n = SEARCH_CHUNK + 3
        theta = minimize_numeric(random_xstate(np.random.default_rng(42), n))[0]
        live = [n_interior(theta[:SEARCH_CHUNK]), n_interior(theta[SEARCH_CHUNK:])]
        assert live[0] > 0 and live[1] == 0  # one chunk of each kind
        assert grid_points == expected_calls(SEARCH_CHUNK, live[0]) + expected_calls(3, 0)

    def test_batch_equals_its_chunks_one_at_a_time(self):
        batch = random_xstate(np.random.default_rng(43), 2 * SEARCH_CHUNK + 5)
        got = minimize_numeric(batch)
        parts = [
            minimize_numeric(take_rows(batch, slice(start, start + SEARCH_CHUNK)))
            for start in range(0, len(batch), SEARCH_CHUNK)
        ]
        assert [len(part[0]) for part in parts] == [SEARCH_CHUNK, SEARCH_CHUNK, 5]
        for i in range(3):
            assert np.array_equal(got[i], np.concatenate([part[i] for part in parts]))

    def test_peak_memory_of_a_large_batch(self):
        # one chunk's (65, 4096) arrays, about 15 MB, bound the peak; one
        # pass over all 20,000 rows at once would take about 61 MB
        batch = random_xstate(np.random.default_rng(44), 20_000)
        minimize_numeric(take_rows(batch, slice(0, 10)))
        tracemalloc.start()
        try:
            minimize_numeric(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25e6


def full_interval_search(c):
    """The search of minimize_numeric over the whole of [0, pi/2] instead of
    [0, pi/4]: a 129-point grid, then 12 rounds of a 9-point grid around the
    incumbent, each 4x narrower, clipped to [0, pi/2]. Returns the values."""
    coh = c.r14 + c.r23
    rows = np.arange(len(c))
    thetas = np.linspace(0.0, math.pi / 2, 129)
    values = _cond_entropy_grid(c, np.sin(thetas[:, None]) ** 2, coh)
    k = np.argmin(values, axis=0)
    theta, value = thetas[k], values[k, rows]
    span = thetas[1]
    for _ in range(12):
        local = np.clip(theta + span * np.linspace(-1.0, 1.0, 9)[:, None], 0.0, math.pi / 2)
        values = _cond_entropy_grid(c, np.sin(local) ** 2, coh)
        k = np.argmin(values, axis=0)
        lower = values[k, rows] < value
        theta = np.where(lower, local[k, rows], theta)
        value = np.where(lower, values[k, rows], value)
        span /= 4.0
    return value


def ungated_search(c):
    """The theta search of minimize_numeric with the shrink rounds run on
    every row, whatever its grid minimum. Returns arrays (theta, value)."""
    coh = c.r14 + c.r23
    rows = np.arange(len(c))
    thetas = np.linspace(0.0, math.pi / 4, THETA_GRID)
    values = _cond_entropy_grid(c, np.sin(thetas[:, None]) ** 2, coh)
    k = np.argmin(values, axis=0)
    theta, value = thetas[k], values[k, rows]
    span = thetas[1]
    for _ in range(SHRINK_ROUNDS):
        local = np.clip(theta + span * _ROUND_OFFSETS, 0.0, math.pi / 4)
        values = _cond_entropy_grid(c, np.sin(local) ** 2, coh)
        k = np.argmin(values, axis=0)
        best = values[k, rows]
        lower = best < value
        theta = np.where(lower, local[k, rows], theta)
        value = np.where(lower, best, value)
        span /= 4.0
    return theta, value


def assert_gated_like_ungated(c):
    """Rows whose grid minimum is interior are refined exactly as by
    ungated_search; every other row keeps its grid endpoint, 0 or pi/4, and
    its grid value, which the rounds could lower by rounding noise only.
    Returns the mask of interior rows."""
    theta, _, value = minimize_numeric(c)
    ref_theta, ref_value = ungated_search(c)
    thetas = np.linspace(0.0, math.pi / 4, THETA_GRID)
    grid = _cond_entropy_grid(c, np.sin(thetas[:, None]) ** 2, c.r14 + c.r23)
    k = np.argmin(grid, axis=0)
    live = (k > 0) & (k < THETA_GRID - 1)
    assert_array_equal((theta > 0.0) & (theta < math.pi / 4), live)
    assert np.array_equal(theta[live], ref_theta[live])
    assert np.array_equal(value[live], ref_value[live])
    end = np.flatnonzero(~live)
    assert np.array_equal(theta[end], thetas[k[end]])
    assert np.array_equal(value[end], grid[k[end], end])
    excess = value[end] - ref_value[end]
    assert np.all((excess >= 0.0) & (excess <= 2e-15))
    return live


class TestEndpointGate:
    """Only rows whose grid minimum is interior go on to the shrink rounds:
    at theta = 0 the entropy's slope is 0, and it is symmetric about pi/4,
    so an endpoint minimum is flat and the rounds find only rounding noise."""

    @pytest.mark.parametrize("boundary_fraction", [0.0, 0.1, 1.0])
    def test_matches_ungated_search(self, boundary_fraction):
        rng = np.random.default_rng(33)
        live = assert_gated_like_ungated(
            random_xstate(rng, 20_000, boundary_fraction=boundary_fraction)
        )
        assert 0 < np.count_nonzero(live) < 100

    def test_matches_ungated_search_on_fixed_states(self):
        rng = np.random.default_rng(34)
        states = [BELL, MIXED, INTERIOR, FIG1, FIG3_SEP, FIG3_ENT, EQ9]
        states += [preset_config(name).initial for name in PRESETS]
        states += [random_degenerate_balanced(rng) for _ in range(200)]
        live = assert_gated_like_ungated(XColumns.from_states(states))
        assert live[2]  # INTERIOR

    @given(state=x_states)
    def test_matches_ungated_search_on_one_row(self, state):
        assert_gated_like_ungated(XColumns.from_states([state]))


class TestHalfInterval:
    """theta and pi/2 - theta give the same two outcomes in swapped order, so
    searching [0, pi/4] loses nothing against [0, pi/2]."""

    @given(state=x_states, theta=st.floats(0.0, math.pi / 2), coh_fraction=st.floats(0.0, 1.0))
    def test_entropy_symmetric_about_pi_over_4(self, state, theta, coh_fraction):
        c = XColumns.from_states([state])
        coh = coh_fraction * (c.r14 + c.r23)
        assert_allclose(
            _cond_entropy_grid(c, np.sin(theta) ** 2, coh),
            _cond_entropy_grid(c, np.sin(math.pi / 2 - theta) ** 2, coh),
            rtol=0,
            atol=1e-15,
        )

    @pytest.mark.parametrize("boundary_fraction", [0.1, 1.0])
    def test_half_search_matches_full_search(self, boundary_fraction):
        rng = np.random.default_rng(31)
        batch = random_xstate(rng, 4000, boundary_fraction=boundary_fraction)
        half, full = minimize_numeric(batch)[2], full_interval_search(batch)
        assert_allclose(half, full, rtol=0, atol=1e-15)

    def test_half_search_matches_full_search_on_fixed_states(self):
        rng = np.random.default_rng(32)
        states = [BELL, MIXED, FIG1, FIG3_SEP, FIG3_ENT, EQ9, INTERIOR]
        states += [random_degenerate_balanced(rng) for _ in range(200)]
        batch = XColumns.from_states(states)
        half, full = minimize_numeric(batch)[2], full_interval_search(batch)
        assert_allclose(half, full, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        # nan read every state as not-null, inf every state as coherence-free
        with pytest.raises(ValueError, match=f"tol = {tol!r} must be finite and nonnegative"):
            nullity_check(FIG1, tol=tol)


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
