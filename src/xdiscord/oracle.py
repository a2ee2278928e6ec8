"""Independent verification path: the atom-field master equation.

The two-atom + cavity density matrix starts as rho_atoms (x) |alpha><alpha|
on Fock levels 0..n_max and is propagated exactly; the field is traced out
and the reduced atomic state is compared element-wise against the analytic
propagator. The field enters only through the Poisson photon-number weights
of |alpha> (photon_weights), and a cutoff n_max whose Poisson tail exceeds
TAIL_BOUND is refused. The dissipator is the standard cavity-decay form
kappa*(a rho a+ - {a+a, rho}/2), under which the field amplitude decays at
kappa/2 and the photon number at kappa; this is the convention the analytic
solution and the steady coherence value correspond to.

The Liouvillian -i[H, .] + kappa*D[a] is built from H and D alone, never from
the analytic solution. It splits an X state into independent sectors, one per
atomic group ({|gg>,|ee>} or {|ge>,|eg>}) and Fock offset n - m. The reduced
state Tr_F(rho) reads only offset 0, so that sector alone is propagated. Each
group's generator there, over four atomic pairs by L = n_max + 1 Fock levels,
is built as X (x) I + blockdiag(D_p): the exchange couples the pairs alike on
every Fock level (X), while the Stark shifts and the cavity decay act within
one pair (an L x L Fock block D_p). Coupled pairs must have equal Fock
blocks, or the generator is refused; then the terms commute and exp(G) =
(exp(X) (x) I) blockdiag(exp(D_p)): a step takes the 4 x 4 exponentials of X
and three L x L ones, the ladder shared by the inner pairs and outer
populations and one chain per outer coherence. Each exponential is taken by
scaling and squaring of the [13/13] Padé approximant, which needs no scaling
up to the 1-norm theta_13 = 5.37 (Higham, SIMAX 26, 2005; Moler & Van Loan,
SIAM Rev. 45, 2003). The sector's elements are the Fock-conditioned atomic
blocks <n|rho|n>, whose smallest eigenvalue is the run's positivity
diagnostic.

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

#: Samples whose Fock elements integrate holds at once before it reduces them
#: to the X state and the block minimum; this bounds its memory on any grid.
SAMPLE_CHUNK = 1024


def photon_weights(alpha_sq: float, n_max: int) -> np.ndarray:
    """Photon-number weights of |alpha>: the Poisson terms alpha_sq^n/n! on
    Fock levels 0..n_max, normalized. A cutoff that is not an integer, and one
    whose Poisson tail exceeds TAIL_BOUND, are refused, the latter with the
    smallest one that does not."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValueError(f"n_max = {n_max!r} must be an integer")
    if n_max < 0:
        raise ValueError(f"n_max = {n_max} must be nonnegative")
    tail = poisson_tail(alpha_sq, n_max)
    if tail > TAIL_BOUND:
        raise ValueError(
            f"n_max = {n_max} leaves a coherent tail of {tail:.3e} > {TAIL_BOUND:.3e}; "
            f"need n_max >= {_min_cutoff(alpha_sq)}"
        )
    n = np.arange(n_max + 1)
    if alpha_sq == 0.0:
        return (n == 0).astype(float)
    # The amplitudes alpha^n/sqrt(n!) from logs, scaled down only where their
    # squares would overflow (alpha_sq above ~600), normalized and squared.
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    log_amps = n * math.log(math.sqrt(alpha_sq)) - 0.5 * log_fact
    amps = np.exp(log_amps - max(log_amps.max() - 300.0, 0.0))
    return (amps / np.linalg.norm(amps)) ** 2


def _min_cutoff(alpha_sq: float) -> int:
    """Smallest n_max whose Poisson tail is at most TAIL_BOUND. The tail falls
    as n_max grows, so the cutoff is bracketed by doubling and then bisected:
    a strong field costs O(log alpha_sq) tails, not one per level."""
    lo, hi = -1, 0  # tail(lo) > TAIL_BOUND (n_max = -1 keeps no level), tail(hi) <= it
    while poisson_tail(alpha_sq, hi) > TAIL_BOUND:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poisson_tail(alpha_sq, mid) > TAIL_BOUND:
            lo = mid
        else:
            hi = mid
    return hi


def poisson_tail(alpha_sq: float, n_max: int) -> float:
    """P(n > n_max) for Poisson(alpha_sq), summed forward from n_max + 1 to
    avoid cancellation, until the terms fall below 1e-300."""
    if not (math.isfinite(alpha_sq) and alpha_sq >= 0.0):
        raise ValueError(f"alpha_sq = {alpha_sq!r} must be finite and nonnegative")
    if alpha_sq == 0.0:
        return 0.0
    # term at n = n_max + 1
    log_term = -alpha_sq + (n_max + 1) * math.log(alpha_sq) - math.lgamma(n_max + 2)
    term = math.exp(log_term)
    if term <= 1e-300 and n_max + 1 < alpha_sq:
        # Below the mode the terms rise, so the head P(n <= n_max) is below
        # (n_max + 1) * term and the tail is 1 to double precision.
        return 1.0
    total = 0.0
    n = n_max + 1
    while term > 1e-300:
        total += term
        n += 1
        term *= alpha_sq / n
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
    """Generators of -i[H, rho] + kappa*D[a] rho on the X sectors, as factors.

    H is Fock-diagonal and D[a] maps the element (n, m) to (n-1, m-1), so the
    offset d = n - m is conserved, and an X state evolves in independent
    sectors, one per (atomic group, offset). Each group's generator there is
    X (x) I + blockdiag(D_p) over its atomic pairs p. Returns (pair, sector):
    pair is both groups' Fock-free exchange coupling X, shape (2, 4, 4), the
    same at every offset; sector(d) returns the joint-state indices
    (j, n, k, m) of both groups' offset-d elements, broadcasting to shape
    (2, 4, L), and their Fock blocks D_p, shape (2, 4, L, L).
    """
    fdim, kappa = n_max + 1, params.kappa
    stark = _stark(params, fdim)
    e = _exchange(params)
    jp, jq = _PAIR_J, _PAIR_J.transpose(0, 2, 1)
    kp, kq = _PAIR_K, _PAIR_K.transpose(0, 2, 1)
    # -i(E rho - rho E) restricted to each group: coefficient of rho[jq, kq]
    # in element (jp, kp).
    pair = -1j * (e[jp, jq] * (kp == kq) - (jp == jq) * e[kq, kp])

    def sector(d: int):
        n = np.arange(max(d, 0), fdim + min(d, 0))
        m = n - d
        i = np.arange(n.size)
        fock = np.zeros((2, 4, n.size, n.size), dtype=complex)
        stark_diff = stark[_PAIR_J, n] - stark[_PAIR_K, m]
        fock[..., i, i] = -1j * stark_diff - 0.5 * kappa * (n + m)
        fock[..., i[:-1], i[1:]] = kappa * np.sqrt(n[1:] * m[1:])  # a rho a+
        return (_PAIR_J, n, _PAIR_K, m), fock

    return pair, sector


#: Higham's bound on the 1-norm up to which the [13/13] Padé approximant of
#: exp is accurate to double precision, and its numerator coefficients b0..b13
#: (the denominator's alternate in sign).
THETA_13 = 5.371920351148152
PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of a stack of square matrices by scaling and squaring (Higham,
    SIMAX 26, 2005): the [13/13] Padé approximant r(a) = q(a)^-1 p(a) of
    a = m / 2^s, where s is the least power that brings the 1-norm to at most
    THETA_13, then squared s times. With p(a) = V + U and q(a) = V - U for
    the even part V and the odd part U, it costs the powers a^2, a^4, a^6,
    three more products and one solve."""
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
    del a2, a4, a6
    q = v - u
    v += u
    out = np.linalg.solve(q, v)
    for _ in range(s):
        out = out @ out
    return out


def _distinct_gaps(gaps: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster gaps that agree within tol, so that a uniform grid, whose gaps
    differ in the last bits, needs one propagator. Returns each cluster's mean
    gap and the cluster of every gap."""
    order = np.argsort(gaps)
    labels = np.concatenate([[0], np.cumsum(np.diff(gaps[order]) > tol)])
    which = np.empty_like(labels)
    which[order] = labels
    return np.bincount(which, gaps) / np.bincount(which), which


def integrate(initial: XState, params: TCParams, n_max: int, times) -> IntegrationResult:
    """Exact propagation of the joint master equation to each sample time,
    reduced to the atoms.

    The joint state starts as rho_atoms (x) |alpha><alpha|. Tr_F(rho) sums
    the elements (j, n, k, n), so only the offset-0 sector (see _make_sector)
    is propagated. Its terms X (x) I and blockdiag(D_p) commute when every
    coupled pair of atomic pairs shares one Fock block, and a generator whose
    terms do not is refused. The elements V[p, n] step as
    exp(hX) (exp(hD_p) V_p): X and each distinct Fock block are exponentiated
    once per distinct gap h between sorted sample times, and each sample sums
    its elements over n into the reduced X state, SAMPLE_CHUNK samples at a
    time. A propagation that is not finite is refused. `min_eigenvalue` is
    the smallest eigenvalue of the Fock-conditioned atomic blocks <n|rho|n>
    over all samples; their positivity is necessary for that of the joint
    state. `times` is any nonnegative time or list of times; the result is
    sorted by time.
    """
    require_valid(initial)
    times = np.sort(np.atleast_1d(np.asarray(times, dtype=float)))
    if times.size == 0 or not (times[0] >= 0.0 and math.isfinite(times[-1])):
        raise ValueError("times must be a nonempty list of finite nonnegative values")
    # The gaps of a uniform grid differ by a few ulps of the end time.
    gaps, which = _distinct_gaps(
        np.diff(times, prepend=0.0), 64 * np.finfo(float).eps * times[-1]
    )

    photons = photon_weights(params.alpha_sq, n_max)
    # A huge rate overflows to inf or nan, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        pair, sector = _make_sector(params, n_max)
        (pair_j, _, pair_k, _), fock = sector(0)
        vec = initial.to_matrix()[pair_j, pair_k] * photons
        # Each distinct Fock block (by bit pattern) is exponentiated once.
        flat = fock.reshape(-1, *fock.shape[-2:])
        keys = [b.tobytes() for b in flat]
        first, label = np.unique([keys.index(k) for k in keys], return_inverse=True)
        label = label.reshape(fock.shape[:2])
        if np.any((pair != 0) & (label[..., :, None] != label[..., None, :])):
            raise ValueError("coupled atomic pairs have different Fock blocks")
        props = [
            (_expm(pair * gap), _expm(flat[first] * gap)[label]) if gap else None
            for gap in gaps
        ]
        reduced = np.empty((times.size,) + vec.shape[:-1], dtype=complex)
        block_min = np.empty(times.size)  # each sample's smallest eigenvalue
        # chunk[s, group, pair, n]: element (j, n, k, n) at sample start + s.
        chunk = np.empty((min(SAMPLE_CHUNK, times.size),) + vec.shape, dtype=complex)
        for start in range(0, times.size, SAMPLE_CHUNK):
            blocks = chunk[: times.size - start]
            for s, u in enumerate(which[start : start + len(blocks)]):
                if props[u] is not None:
                    vec = props[u][0] @ (props[u][1] @ vec[..., None])[..., 0]
                blocks[s] = vec
            # Pairs per group: outer (0,0),(0,3),(3,0),(3,3); inner (1,1),(1,2),(2,1),(2,2).
            here = slice(start, start + len(blocks))
            reduced[here] = blocks.sum(axis=-1)
            top, bottom = blocks[:, :, 0].real, blocks[:, :, 3].real
            eig = 0.5 * (top + bottom) - np.hypot(0.5 * (top - bottom), np.abs(blocks[:, :, 1]))
            block_min[here] = eig.min(axis=(1, 2))
    if not (np.isfinite(reduced).all() and np.isfinite(block_min).all()):
        raise ValueError("the master-equation propagation is not finite")
    (p1, rho14, _, p4), (p2, rho23, _, p3) = reduced.transpose(1, 2, 0)
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

    def as_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "t_at_max": self.t_at_max,
            "max_trace_drift": self.max_trace_drift,
            "p1_drift": self.p1_drift,
            "p4_drift": self.p4_drift,
            "min_eigenvalue": self.min_eigenvalue,
        }


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
