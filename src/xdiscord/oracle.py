"""Independent verification path: the atom-field master equation.

The two-atom + cavity density matrix starts as rho_atoms (x) |alpha><alpha|
on Fock levels 0..n_max and is propagated exactly; the field is traced out
and the reduced atomic state is compared element-wise against the analytic
propagator. The field enters only through the Poisson photon-number weights
of |alpha> (photon_weights); a cutoff n_max above MAX_N_MAX, and one whose
Poisson tail exceeds TAIL_BOUND, are refused. The dissipator is the standard
cavity-decay form kappa*(a rho a+ - {a+a, rho}/2), under which the field
amplitude decays at kappa/2 and the photon number at kappa; this is the
convention the analytic solution and the steady coherence value correspond
to.

The Liouvillian -i[H, .] + kappa*D[a] is built from H and D alone, never from
the analytic solution. It splits an X state into independent sectors, one per
atomic group ({|gg>,|ee>} or {|ge>,|eg>}) and Fock offset n - m. The reduced
state Tr_F(rho) reads only offset 0, so that sector alone is propagated. Each
group's generator there, over four atomic pairs by L = n_max + 1 Fock levels,
is X (x) I + blockdiag(D_p): the exchange couples the pairs alike on every
Fock level (X), while the Stark shifts and the cavity decay act within one
pair (an L x L Fock block D_p). Coupled pairs must have equal Fock blocks, or
the generator is refused; then the terms commute and exp(tG) =
(exp(tX) (x) I) blockdiag(exp(tD_p)). exp(tX) comes from one eigh of the
real symmetric 4 x 4 iX. Each D_p is upper bidiagonal, with a diagonal affine
in n (Stark phase and decay) and the superdiagonal kappa*(n+1) (a rho a+),
so exp(tD_p) has a closed form, the damped Fock ladder's binomial law (see
integrate). Every sample is then taken straight from the initial state, with
no step and no matrix exponential. The sector's elements are the
Fock-conditioned atomic blocks <n|rho|n>, whose smallest eigenvalue is the
run's positivity diagnostic.

Joint elements are indexed (j, n, k, m): atomic row, Fock row, atomic
column, Fock column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TCParams, evolve
from .xstate import XColumns, XState, require_valid

#: Number of excited atoms in each atomic basis state |gg>,|ge>,|eg>,|ee>.
EXCITED_COUNT = np.array([0.0, 1.0, 1.0, 2.0])

#: Largest coherent-state weight a Fock truncation may leave beyond n_max.
TAIL_BOUND = 1e-12

#: Largest Fock cutoff; it holds a field of mean photon number up to ~116.8. With
#: L = n_max + 1 levels integrate holds one L x L table of binomial weights
#: (8*L^2 bytes) and, per chunk of samples, arrays of L x 8 elements a
#: sample; it forms no L x L exponential. A `verify --t-max 0.3` process
#: peaks at ~34 MB and takes ~0.16 s at the bound, most of it the import
#: (~32 MB at n_max = 25), on a 2-CPU Xeon, one thread.
MAX_N_MAX = 200

#: Samples whose Fock elements integrate holds at once before it reduces them
#: to the X state and the block minimum; this bounds its memory on any grid.
SAMPLE_CHUNK = 128

#: Double-precision machine epsilon, the scale of the checks' rounding slack.
EPS = math.ulp(1.0)


def photon_weights(alpha_sq: float, n_max: int) -> np.ndarray:
    """Photon-number weights of |alpha>: the Poisson terms alpha_sq^n/n! on
    Fock levels 0..n_max, normalized. A cutoff that is not an integer or is
    above MAX_N_MAX is refused, and so is one whose Poisson tail exceeds
    TAIL_BOUND: with the smallest cutoff that does not, searched by
    poisson_tail itself, or, for a field that no cutoff up to MAX_N_MAX
    holds, with the tail at MAX_N_MAX."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValueError(f"n_max = {n_max!r} must be an integer")
    if n_max < 0:
        raise ValueError(f"n_max = {n_max} must be nonnegative")
    if n_max > MAX_N_MAX:
        raise ValueError(f"n_max = {n_max} exceeds {MAX_N_MAX}")
    tail = poisson_tail(alpha_sq, n_max)
    if tail > TAIL_BOUND:
        top = poisson_tail(alpha_sq, MAX_N_MAX)
        if top > TAIL_BOUND:
            raise ValueError(
                f"alpha_sq = {alpha_sq:g} leaves a coherent tail of {top:.3e} > "
                f"{TAIL_BOUND:.3e} even at n_max = {MAX_N_MAX}, the largest cutoff"
            )
        # the tail at MAX_N_MAX is within the bound, so the search ends there
        need = next(
            n for n in range(n_max + 1, MAX_N_MAX + 1) if poisson_tail(alpha_sq, n) <= TAIL_BOUND
        )
        raise ValueError(
            f"n_max = {n_max} leaves a coherent tail of {tail:.3e} > {TAIL_BOUND:.3e}; "
            f"need n_max >= {need}"
        )
    n = np.arange(n_max + 1)
    if alpha_sq == 0.0:
        return (n == 0).astype(float)
    # The amplitudes alpha^n/sqrt(n!) from logs, normalized and squared.
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    amps = np.exp(n * math.log(math.sqrt(alpha_sq)) - 0.5 * log_fact)
    return (amps / np.linalg.norm(amps)) ** 2


def poisson_tail(alpha_sq: float, n_max: int) -> float:
    """P(n > n_max) for Poisson(alpha_sq), summed forward from n_max + 1 to
    avoid cancellation. The terms are running products, taken in blocks that
    double up to 65,536, and the sum stops when they fall below 1e-300 or,
    above the mode, when the geometric bound on the rest falls below EPS
    times the sum."""
    if not (math.isfinite(alpha_sq) and alpha_sq >= 0.0):
        raise ValueError(f"alpha_sq = {alpha_sq!r} must be finite and nonnegative")
    if alpha_sq == 0.0:
        return 0.0
    n = n_max + 1
    term = math.exp(-alpha_sq + n * math.log(alpha_sq) - math.lgamma(n + 1))
    if term <= 1e-300 and n < alpha_sq:
        # Below the mode the terms rise, so the head P(n <= n_max) is below
        # (n_max + 1) * term and the tail is 1 to double precision.
        return 1.0
    total, size = 0.0, 64
    while term > 1e-300:
        # term * ratios[i - 1] = P(N = n + i), for 0 < i <= size
        ratios = alpha_sq / np.arange(n + 1.0, n + size + 1.0)
        np.cumprod(ratios, out=ratios)
        total += term * (1.0 + ratios[:-1].sum())
        term, n, size = term * ratios[-1], n + size, min(2 * size, 65_536)
        ratio = alpha_sq / (n + 1)
        if ratio < 1.0 and term / (1.0 - ratio) <= EPS * total:
            break
    return total


def _stark(params: TCParams, fdim: int) -> np.ndarray:
    """Diagonal of H: stark[j, n] = (lam/2) * (n_e(j)*(n+1) - n_g(j)*n).

    a a+ is represented as n+1 on every retained level (the untruncated
    commutation value); the raw truncated product would wrongly zero the
    Stark shift of the top Fock state.
    """
    n = np.arange(fdim, dtype=float)
    return 0.5 * params.lam * (
        EXCITED_COUNT[:, None] * (n + 1.0) - (2.0 - EXCITED_COUNT)[:, None] * n
    )


def _exchange(params: TCParams) -> np.ndarray:
    """Atomic factor of the exchange term, (lam/2) * (|ge><eg| + |eg><ge|)."""
    e = np.zeros((4, 4))
    e[1, 2] = e[2, 1] = 0.5 * params.lam
    return e


@dataclass(frozen=True)
class IntegrationResult:
    """Reduced atomic states at the sample times plus the run's conservation
    and positivity diagnostics."""

    times: np.ndarray
    states: XColumns
    max_trace_drift: float
    min_eigenvalue: float


# Atomic pairs (j, k) of the X elements, one row per group: the outer
# {|gg>,|ee>} and the inner {|ge>,|eg>} block, which the Liouvillian never mixes.
_PAIR_J = np.array([[0, 0, 3, 3], [1, 1, 2, 2]])[:, :, None]
_PAIR_K = np.array([[0, 3, 0, 3], [1, 2, 1, 2]])[:, :, None]


def _make_sector(params: TCParams, n_max: int):
    """The generator of -i[H, rho] + kappa*D[a] rho on the offset-0 X sectors,
    as its factors.

    H is Fock-diagonal and D[a] maps the element (n, m) to (n-1, m-1), so the
    offset d = n - m is conserved, and an X state evolves in independent
    sectors, one per (atomic group, offset); the reduced state reads offset 0
    alone. Each group's generator there is X (x) I + blockdiag(D_p) over its
    atomic pairs p. Returns (pair, a, b): pair is both groups' Fock-free
    exchange coupling as the Hermitian iX, shape (2, 4, 4), real since the
    exchange factor of H is. D_p is upper bidiagonal, with the diagonal
    a_p + b_p*n (the Stark difference, (lam/2)(e_j - e_k)(2n+1), and the decay
    -kappa*n) and the superdiagonal kappa*(n+1) (a rho a+); a and b have shape
    (2, 4). A diagonal that is not affine in n is refused.
    """
    n = np.arange(n_max + 1)
    e = _exchange(params)
    jp, jq = _PAIR_J, _PAIR_J.transpose(0, 2, 1)
    kp, kq = _PAIR_K, _PAIR_K.transpose(0, 2, 1)
    # i times -i(E rho - rho E), restricted to each group: coefficient of
    # rho[jq, kq] in element (jp, kp).
    pair = e[jp, jq] * (kp == kq) - (jp == jq) * e[kq, kp]
    stark = _stark(params, n_max + 1)
    diag = -1j * (stark[_PAIR_J, n] - stark[_PAIR_K, n]) - params.kappa * n
    a = diag[..., 0]
    b = (diag[..., -1] - a) / max(n_max, 1)
    if np.abs(diag - a[..., None] - b[..., None] * n).max() > 64 * EPS * np.abs(diag).max():
        raise ValueError("the Fock blocks' diagonal is not affine in n")
    return pair, a, b


def _powers(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k] = x**k for every k along the first axis, as running products: one
    multiply per power, which runs ~5x faster than numpy's complex cumprod."""
    out[0] = 1.0
    for k in range(1, len(out)):
        np.multiply(out[k - 1], x, out=out[k])
    return out


def integrate(initial: XState, params: TCParams, n_max: int, times) -> IntegrationResult:
    """Exact propagation of the joint master equation to each sample time,
    reduced to the atoms.

    The joint state starts as rho_atoms (x) |alpha><alpha|. Tr_F(rho) sums
    the elements (j, n, k, n), so only the offset-0 sector (see _make_sector)
    is propagated. Its terms X (x) I and blockdiag(D_p) commute when every
    coupled pair of atomic pairs shares one Fock block, and a generator whose
    terms do not is refused. Each sample is then taken straight from the
    initial elements v_p[n] = rho_atoms[j, k] P(n), with P the photon
    weights: exp(tX) acts on the atomic factor alone, through one eigh of the
    real symmetric 4 x 4 iX, and the bidiagonal exp(tD_p) has the closed form

        exp(tD_p)[n, n+k] = e^{(a_p + b_p n) t} C(n+k, k) q_p^k,
        q_p = kappa (e^{b_p t} - 1) / b_p  (0 where kappa = 0),

    from the generating function G(z, t) = e^{a_p t} G_0(e^{b_p t} z + q_p),
    which solves dG/dt = a_p G + (b_p z + kappa) dG/dz. So SAMPLE_CHUNK
    samples cost one product of the weights C(n+k, k) P(n+k) with the powers
    of q_p, and the powers of e^{b_p t}. A propagation is refused when its
    largest phase reaches 2**53, where not one radian of it survives, and
    when it is not finite.
    `min_eigenvalue` is the smallest eigenvalue of the Fock-conditioned atomic
    blocks <n|rho|n> over all samples; their positivity is necessary for that
    of the joint state. `times` is any nonnegative time or list of times; the
    result is sorted by time.
    """
    require_valid(initial)
    times = np.sort(np.atleast_1d(np.asarray(times, dtype=float)))
    if times.size == 0 or not (times[0] >= 0.0 and math.isfinite(times[-1])):
        raise ValueError("times must be a nonempty list of finite nonnegative values")
    photons = photon_weights(params.alpha_sq, n_max)
    fdim, kappa = n_max + 1, params.kappa
    # A huge rate overflows to inf or nan, which the checks below refuse.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pair, a, b = _make_sector(params, n_max)
        differ = (a[..., :, None] != a[..., None, :]) | (b[..., :, None] != b[..., None, :])
        if np.any((pair != 0) & differ):
            raise ValueError("coupled atomic pairs have different Fock blocks")
        phase = np.maximum(abs(a.imag), abs(a.imag + n_max * b.imag)).max() * times[-1]
        if not phase < 2.0**53:
            raise ValueError(
                f"the largest phase of the propagation, {phase:.3e}, is not below "
                "2**53: not one radian of it survives"
            )
        w, u = np.linalg.eigh(pair)  # exp(tX) = u e^{-iwt} u^T
        # u^T v, the initial atomic elements v in the eigenbasis of X
        modes = u.transpose(0, 2, 1) @ initial.to_matrix()[_PAIR_J, _PAIR_K]
        n = np.arange(fdim)
        # weights[n, k] = C(n+k, k) P(n+k), the coefficient of q^k in element n,
        # complex once rather than cast for every chunk's product.
        binom = np.ones((fdim, fdim))
        binom[:, 1:] = np.cumprod((n[:, None] + n[1:]) / n[1:], axis=1)
        levels = n[:, None] + n
        weights = np.where(levels <= n_max, binom * photons[np.minimum(levels, n_max)], 0j)
        bcol = b[..., None]
        # b / kappa per component: a complex division by a subnormal kappa overflows.
        per_kappa = np.empty_like(bcol)
        per_kappa.real, per_kappa.imag = bcol.real / kappa, bcol.imag / kappa
        # reduced[group, pair, sample]: the element (j, k) of each reduced state.
        reduced = np.empty((2, 4, times.size), dtype=complex)
        block_min = np.empty(times.size)  # each sample's smallest eigenvalue
        for start in range(0, times.size, SAMPLE_CHUNK):
            t = times[start : start + SAMPLE_CHUNK]
            bt = bcol * t
            # powers[k or n, group, pair, sample]: q^k, then e^{b n t}.
            powers = np.empty((fdim, 2, 4, t.size), dtype=complex)
            q = np.expm1(bt) / per_kappa if kappa else np.zeros_like(bt)
            # elements[n, group, pair, sample]: the element (j, n, k, n). The
            # terms commute, so exp(tX) acts first, on the atomic factor of v.
            elements = (weights @ _powers(q, powers).reshape(fdim, -1)).reshape(powers.shape)
            elements *= _powers(np.exp(bt), powers)
            elements *= np.exp(a[..., None] * t) * (u @ (np.exp(-1j * w[..., None] * t) * modes))
            here = slice(start, start + t.size)
            reduced[..., here] = elements.sum(axis=0)
            # Pairs per group: outer (0,0),(0,3),(3,0),(3,3); inner (1,1),(1,2),(2,1),(2,2).
            top, bottom = elements[:, :, 0].real, elements[:, :, 3].real
            eig = 0.5 * (top + bottom) - np.hypot(0.5 * (top - bottom), np.abs(elements[:, :, 1]))
            block_min[here] = eig.min(axis=(0, 1))
    if not (np.isfinite(reduced).all() and np.isfinite(block_min).all()):
        raise ValueError("the master-equation propagation is not finite")
    (p1, rho14, _, p4), (p2, rho23, _, p3) = reduced
    return IntegrationResult(
        times=times,
        states=XColumns.from_coherences(p1.real, p2.real, p3.real, p4.real, rho14, rho23),
        max_trace_drift=float(np.abs(p1 + p2 + p3 + p4 - 1.0).max()),
        min_eigenvalue=float(block_min.min()),
    )


@dataclass(frozen=True)
class CompareReport:
    """Element-wise deviation of the analytic propagator from the oracle."""

    times: np.ndarray
    max_deviation: float
    t_at_max: float
    max_trace_drift: float
    p1_drift: float
    p4_drift: float
    min_eigenvalue: float


def _components(c: XColumns) -> np.ndarray:
    """Real components of each state, shape (n, 8): populations, then the
    real and imaginary parts of rho14 and rho23."""
    return np.stack(
        [
            c.p1,
            c.p2,
            c.p3,
            c.p4,
            c.r14 * np.cos(c.phi1),
            c.r14 * np.sin(c.phi1),
            c.r23 * np.cos(c.phi2),
            c.r23 * np.sin(c.phi2),
        ],
        axis=-1,
    )


def compare(initial: XState, params: TCParams, t_grid, n_max: int) -> CompareReport:
    """Propagate the master equation once and compare the reduced atomic state
    against evolve() at every grid time."""
    result = integrate(initial, params, n_max, t_grid)
    oracle = _components(result.states)
    analytic = _components(evolve(initial, params, result.times))
    deviations = np.max(np.abs(analytic - oracle), axis=1)
    p1_drift = float(np.max(np.abs(oracle[:, 0] - initial.p1)))
    p4_drift = float(np.max(np.abs(oracle[:, 3] - initial.p4)))
    k_max = int(np.argmax(deviations))
    return CompareReport(
        times=result.times,
        max_deviation=float(deviations[k_max]),
        t_at_max=float(result.times[k_max]),
        max_trace_drift=result.max_trace_drift,
        p1_drift=p1_drift,
        p4_drift=p4_drift,
        min_eigenvalue=result.min_eigenvalue,
    )
