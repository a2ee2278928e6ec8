"""Independent verification path: full atom-field master equation.

The two-atom + cavity density matrix is propagated exactly in a truncated
Fock basis, the field is traced out, and the reduced atomic state is compared
element-wise against the analytic propagator. The dissipator is the standard
cavity-decay form kappa*(a rho a+ - {a+a, rho}/2), under which the field
amplitude decays at kappa/2 and the photon number at kappa; this is the
convention the analytic solution and the steady coherence value correspond to.

The Liouvillian -i[H, .] + kappa*D[a] is built from H and D alone, never from
the analytic solution. It splits an X state into independent sectors, one per
atomic group ({|gg>,|ee>} or {|ge>,|eg>}) and Fock offset n - m; each sector
is exponentiated by scaling and squaring (Moler & Van Loan, SIAM Rev. 45,
2003; Higham, SIMAX 26, 2005).

Joint-space ordering is atomic-major: index = atomic*(n_max+1) + fock, i.e.
kron(atomic operator, field operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TCParams, evolve
from .xstate import DEFAULT_TOL, XColumns, XState, require_valid

#: Number of excited atoms in each atomic basis state |gg>,|ge>,|eg>,|ee>.
EXCITED_COUNT = np.array([0.0, 1.0, 1.0, 2.0])


@dataclass(frozen=True)
class FockTruncation:
    """Retained Fock levels 0..n_max plus the coherent-state weight beyond."""

    n_max: int
    tail_mass: float
    tail_bound: float = 1e-12

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @classmethod
    def for_alpha_sq(
        cls, alpha_sq: float, n_max: int | None = None, tail_bound: float = 1e-12
    ) -> "FockTruncation":
        """Truncation for a coherent field of mean photon number alpha_sq.

        With n_max omitted, the smallest cutoff whose Poisson tail is below
        tail_bound is chosen. An explicit n_max that leaves too much tail is
        rejected with the required cutoff in the message.
        """
        if alpha_sq < 0.0:
            raise ValueError("alpha_sq must be nonnegative")
        if n_max is None:
            n = _min_cutoff(alpha_sq, tail_bound)
            return cls(n_max=n, tail_mass=poisson_tail(alpha_sq, n), tail_bound=tail_bound)
        tail = poisson_tail(alpha_sq, n_max)
        if tail > tail_bound:
            raise ValueError(
                f"n_max = {n_max} leaves a coherent tail of {tail:.3e} > {tail_bound:.3e}; "
                f"need n_max >= {_min_cutoff(alpha_sq, tail_bound)}"
            )
        return cls(n_max=n_max, tail_mass=tail, tail_bound=tail_bound)


def _min_cutoff(alpha_sq: float, tail_bound: float) -> int:
    """Smallest n_max whose Poisson tail is at most tail_bound."""
    n = 0
    while poisson_tail(alpha_sq, n) > tail_bound:
        n += 1
    return n


def poisson_tail(alpha_sq: float, n_max: int) -> float:
    """P(n > n_max) for Poisson(alpha_sq), summed forward to avoid cancellation."""
    if alpha_sq == 0.0:
        return 0.0
    # term at n = n_max + 1
    log_term = -alpha_sq + (n_max + 1) * math.log(alpha_sq) - math.lgamma(n_max + 2)
    term = math.exp(log_term)
    total = 0.0
    n = n_max + 1
    while term > 1e-300 and n < n_max + 2000:
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


def build_hamiltonian(params: TCParams, trunc: FockTruncation) -> np.ndarray:
    """Dense effective Hamiltonian on the joint space:
    (lam/2) * [ sum_j (|e_j><e_j| a a+ - |g_j><g_j| a+ a) + exchange ].
    """
    diagonal = np.diag(_stark(params, trunc.dim).ravel())
    return (diagonal + np.kron(_exchange(params), np.eye(trunc.dim))).astype(complex)


def coherent_vector(alpha: complex, trunc: FockTruncation) -> np.ndarray:
    """Normalized truncated coherent-state amplitudes alpha^n/sqrt(n!)."""
    alpha = complex(alpha)
    tail = poisson_tail(abs(alpha) ** 2, trunc.n_max)
    if tail > trunc.tail_bound:
        raise ValueError(
            f"truncation n_max = {trunc.n_max} too small for |alpha|^2 = {abs(alpha)**2:.4g} "
            f"(tail {tail:.3e}); need n_max >= {_min_cutoff(abs(alpha) ** 2, trunc.tail_bound)}"
        )
    n = np.arange(trunc.dim)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    if alpha == 0:
        amps = np.zeros(trunc.dim, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mag = n * math.log(abs(alpha))
    amps = np.exp(log_mag - 0.5 * log_fact) * np.exp(1j * n * math.atan2(alpha.imag, alpha.real))
    return amps / np.linalg.norm(amps)


def joint_initial(atoms: XState, field_vector: np.ndarray) -> np.ndarray:
    """Product joint state rho_atoms (x) |v><v|."""
    field = np.outer(field_vector, field_vector.conj())
    return np.kron(atoms.to_matrix(), field)


@dataclass(frozen=True)
class IntegrationResult:
    """Sampled joint states plus the run's conservation diagnostics."""

    times: np.ndarray
    states: tuple[np.ndarray, ...]
    max_trace_drift: float
    min_eigenvalue: float


# Atomic pairs (j, k) of the X elements, one row per group: the outer
# {|gg>,|ee>} and the inner {|ge>,|eg>} block, which the Liouvillian never mixes.
_PAIR_J = np.array([[0, 0, 3, 3], [1, 1, 2, 2]])[:, :, None]
_PAIR_K = np.array([[0, 3, 0, 3], [1, 2, 1, 2]])[:, :, None]


def _make_sector(params: TCParams, trunc: FockTruncation):
    """Generators of -i[H, rho] + kappa*D[a] rho on the X sectors.

    H is Fock-diagonal and D[a] maps the element (n, m) to (n-1, m-1), so the
    offset d = n - m is conserved, and an X state evolves in independent
    sectors, one per (atomic group, offset). sector(d) returns the joint-state
    indices (j, n, k, m) of both groups' offset-d elements, broadcasting to
    shape (2, 4, L), and the two generators, shape (2, 4L, 4L).
    """
    fdim, kappa = trunc.dim, params.kappa
    stark = _stark(params, fdim)
    e = _exchange(params)
    jp, jq = _PAIR_J, _PAIR_J.transpose(0, 2, 1)
    kp, kq = _PAIR_K, _PAIR_K.transpose(0, 2, 1)
    # -i(E rho - rho E) restricted to each group: coefficient of rho[jq, kq]
    # in element (jp, kp).
    exchange = -1j * (e[jp, jq] * (kp == kq) - (jp == jq) * e[kq, kp])

    def sector(d: int):
        n = np.arange(max(d, 0), fdim + min(d, 0))
        m = n - d
        size = n.size
        gen = np.zeros((2, 4, size, 4, size), dtype=complex)
        p, i = np.arange(4)[:, None], np.arange(size)
        stark_diff = stark[_PAIR_J, n] - stark[_PAIR_K, m]
        gen[:, p, i, p, i] = -1j * stark_diff - 0.5 * kappa * (n + m)
        gen[:, p, i[:-1], p, i[1:]] = kappa * np.sqrt(n[1:] * m[1:])  # a rho a+
        gen[:, :, i, :, i] += exchange
        return (_PAIR_J, n, _PAIR_K, m), gen.reshape(2, 4 * size, 4 * size)

    return sector


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of a stack of square matrices by scaling and squaring (Moler & Van
    Loan, SIAM Rev. 45, 2003): a Taylor series of m / 2^s, whose 1-norm is at
    most 1, summed until a term no longer counts, then squared s times."""
    norm = np.abs(m).sum(axis=-2).max()
    s = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    m = m / 2.0**s
    term, out = m, m + np.eye(m.shape[-1])
    for k in range(2, 40):
        term = term @ m
        term /= k
        out += term
        if np.abs(term).sum(axis=-2).max() <= 1e-18:
            break
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


def integrate(
    initial: XState,
    params: TCParams,
    trunc: FockTruncation,
    times,
    tol: float = DEFAULT_TOL,
) -> IntegrationResult:
    """Exact propagation of the joint master equation to each sample time.

    The joint state starts as rho_atoms (x) |alpha><alpha|. Each X sector
    (see _make_sector) is exponentiated once per distinct gap between sorted
    sample times and stepped from sample to sample; the sampled joint states
    are assembled from the sectors. `times` is any nonnegative time or list of
    times; the result is sorted by time.
    """
    require_valid(initial, tol)
    times = np.sort(np.atleast_1d(np.asarray(times, dtype=float)))
    if times.size == 0 or not (times[0] >= 0.0 and math.isfinite(times[-1])):
        raise ValueError("times must be a nonempty list of finite nonnegative values")
    # The gaps of a uniform grid differ by a few ulps of the end time.
    gaps, which = _distinct_gaps(
        np.diff(times, prepend=0.0), 64 * np.finfo(float).eps * times[-1]
    )

    fdim = trunc.dim
    alpha = math.sqrt(params.alpha_sq)
    rho0 = joint_initial(initial, coherent_vector(alpha, trunc)).reshape(4, fdim, 4, fdim)
    states = np.zeros((times.size, 4, fdim, 4, fdim), dtype=complex)
    sector = _make_sector(params, trunc)
    for d in range(-trunc.n_max, fdim):
        index, gen = sector(d)
        props = [_expm(gen * gap) if gap > 0.0 else None for gap in gaps]
        vec = rho0[index].reshape(2, -1, 1)
        for s, u in enumerate(which):
            if props[u] is not None:
                vec = props[u] @ vec
            states[(s,) + index] = vec.reshape(2, 4, -1)

    drift = np.abs(np.einsum("sjnjn->s", states) - 1.0)
    joint = states.reshape(times.size, 4 * fdim, 4 * fdim)
    return IntegrationResult(
        times=times,
        states=tuple(joint),
        max_trace_drift=float(drift.max()),
        min_eigenvalue=min(float(np.linalg.eigvalsh(x)[0]) for x in joint),
    )


def trace_out_field(joint: np.ndarray) -> tuple[XState, float]:
    """Partial trace over the Fock index.

    Returns the X components of the reduced atomic state together with the
    largest |element| outside the X pattern. The returned XState is built from
    the raw components and is not re-validated here: oracle output carries the
    integration's own trace-level residue.
    """
    dim = joint.shape[0]
    if joint.shape != (dim, dim) or dim % 4 != 0:
        raise ValueError(f"joint state has shape {joint.shape}, expected (4*F, 4*F)")
    fdim = dim // 4
    reduced = np.einsum("ambm->ab", joint.reshape(4, fdim, 4, fdim))
    x_mask = np.zeros((4, 4), dtype=bool)
    x_mask[np.arange(4), np.arange(4)] = True
    x_mask[0, 3] = x_mask[3, 0] = x_mask[1, 2] = x_mask[2, 1] = True
    off_x = float(np.max(np.abs(reduced[~x_mask]))) if (~x_mask).any() else 0.0
    state = XState.from_coherences(
        reduced[0, 0].real,
        reduced[1, 1].real,
        reduced[2, 2].real,
        reduced[3, 3].real,
        rho14=reduced[0, 3],
        rho23=reduced[1, 2],
    )
    return state, off_x


@dataclass(frozen=True)
class CompareReport:
    """Element-wise deviation of the analytic propagator from the oracle."""

    times: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    t_at_max: float
    max_trace_drift: float
    max_off_x_residual: float
    p1_drift: float
    p4_drift: float
    min_eigenvalue: float

    def as_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "t_at_max": self.t_at_max,
            "max_trace_drift": self.max_trace_drift,
            "max_off_x_residual": self.max_off_x_residual,
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


def compare(
    initial: XState,
    params: TCParams,
    t_grid,
    trunc: FockTruncation,
    tol: float = DEFAULT_TOL,
) -> CompareReport:
    """Propagate the master equation once and compare the reduced atomic state
    against evolve() at every grid time."""
    result = integrate(initial, params, trunc, list(t_grid), tol)
    reduced = [trace_out_field(joint) for joint in result.states]
    oracle = _components(XColumns.from_states([state for state, _ in reduced]))
    analytic = _components(evolve(initial, params, result.times, tol))
    deviations = np.max(np.abs(analytic - oracle), axis=1)
    off_x_max = max(off_x for _, off_x in reduced)
    p1_drift = float(np.max(np.abs(oracle[:, 0] - initial.p1)))
    p4_drift = float(np.max(np.abs(oracle[:, 3] - initial.p4)))
    k_max = int(np.argmax(deviations))
    return CompareReport(
        times=result.times,
        deviations=deviations,
        max_deviation=float(deviations[k_max]),
        t_at_max=float(result.times[k_max]),
        max_trace_drift=result.max_trace_drift,
        max_off_x_residual=off_x_max,
        p1_drift=p1_drift,
        p4_drift=p4_drift,
        min_eigenvalue=result.min_eigenvalue,
    )
