"""Classical correlations and quantum discord of X states.

The conditional entropy after a projective measurement on qubit B is computed
in closed form for the two special bases (theta = 0 and theta = pi/4 with the
phase-matched azimuth), combined as min{C_m1, C_m2}, and cross-checked by a
deterministic grid + shrink search over all projective bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .xstate import (
    DEFAULT_TOL,
    InvalidStateError,
    TWO_PI,
    XColumns,
    XState,
    eigenvalues,
    entropy_bits,
    marginal_a,
    plogp,
    require_valid,
    validate,
)

# Nullity verdict kinds.
COHERENCE_FREE = "coherence-free"
DEGENERATE_BALANCED = "degenerate-balanced"
NOT_NULL = "not-null"


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement direction on qubit B.

    The measured basis is |+> = cos(theta)|e> + sin(theta)e^{i phi}|g> and its
    orthogonal complement; theta in [0, pi/2], phi in [0, 2*pi).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2 + 1e-12:
            raise ValueError(f"theta = {self.theta!r} outside [0, pi/2]")
        if not 0.0 <= self.phi < TWO_PI + 1e-12:
            raise ValueError(f"phi = {self.phi!r} outside [0, 2*pi)")


@dataclass(frozen=True)
class DiscordBreakdown:
    """All correlation quantities for one state, in bits."""

    mutual_info: float
    c_m1: float
    c_m2: float
    upsilon: float
    classical_corr: float
    discord: float

    def as_dict(self) -> dict:
        return {
            "mutual_info": self.mutual_info,
            "c_m1": self.c_m1,
            "c_m2": self.c_m2,
            "upsilon": self.upsilon,
            "classical_corr": self.classical_corr,
            "discord": self.discord,
        }


@dataclass(frozen=True)
class BreakdownColumns:
    """The DiscordBreakdown fields of a batch of states as arrays, plus the
    concurrence, one entry per state."""

    mutual_info: np.ndarray
    c_m1: np.ndarray
    c_m2: np.ndarray
    upsilon: np.ndarray
    classical_corr: np.ndarray
    discord: np.ndarray
    concurrence: np.ndarray

    def __len__(self) -> int:
        return len(self.discord)

    def row(self, i: int) -> DiscordBreakdown:
        return DiscordBreakdown(*(getattr(self, f.name).item(i) for f in fields(DiscordBreakdown)))


@dataclass(frozen=True)
class NullityVerdict:
    """Zero-discord classification with the residuals of both conditions.

    `coherence_residual` is how far the state is from having no coherences at
    all; `balance_residual` how far from pairwise-degenerate populations with
    equal coherence magnitudes. The verdict reports which condition holds
    within the tolerance used for the check (coherence-free takes precedence
    when both do).
    """

    kind: str
    coherence_residual: float
    balance_residual: float

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coherence_residual": self.coherence_residual,
            "balance_residual": self.balance_residual,
        }


def _binary_entropy(x) -> np.ndarray:
    """h(x) = -x*log2(x) - (1-x)*log2(1-x), elementwise, 0 at the endpoints."""
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.0) & (x < 1.0), plogp(x) + plogp(1.0 - x), 0.0)


def _cond_entropy_grid(state: XState, thetas, phis) -> np.ndarray:
    """Measured conditional entropy on a (theta, phi) grid, vectorized.

    For each basis the two post-measurement A states are 2x2 Hermitian blocks
    whose entries follow directly from the X structure; their eigenvalues give
    the outcome-averaged entropy sum_k p_k S(rho_k).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))[:, None]
    phis = np.atleast_1d(np.asarray(phis, dtype=float))[None, :]
    p1, p2, p3, p4 = state.populations
    s2 = np.sin(thetas) ** 2
    c2 = 1.0 - s2
    # |offdiag|^2 is the same for both outcomes.
    q = (
        state.r14**2
        + state.r23**2
        + 2.0 * state.r14 * state.r23 * np.cos(state.phi1 - state.phi2 - 2.0 * phis)
    )
    off2 = s2 * c2 * q
    shape = off2.shape

    total = np.zeros(shape)
    for m11, m22 in (
        (s2 * p1 + c2 * p2, s2 * p3 + c2 * p4),  # outcome along |+>
        (c2 * p1 + s2 * p2, c2 * p3 + s2 * p4),  # outcome along |->
    ):
        tr = np.broadcast_to(m11 + m22, shape)
        mid = np.broadcast_to(0.5 * (m11 + m22), shape)
        rad = np.sqrt(np.clip((0.5 * (m11 - m22)) ** 2 + off2, 0.0, None))
        hi = mid + rad
        lo = np.clip(mid - rad, 0.0, None)
        for e in (hi, lo):
            mask = (e > 0.0) & (tr > 0.0)
            term = np.zeros(shape)
            term[mask] = -e[mask] * np.log2(e[mask] / tr[mask])
            total += term
    return total


def cond_entropy_basis(state: XState, basis: MeasurementBasis, tol: float = DEFAULT_TOL) -> float:
    """Conditional entropy sum_k p_k S(rho_k) for one measurement basis on B."""
    require_valid(state, tol)
    return float(_cond_entropy_grid(state, [basis.theta], [basis.phi])[0, 0])


def _breakdown(states: XColumns, tol: float) -> BreakdownColumns:
    """The closed-form kernel: every correlation quantity of a validated
    batch, elementwise.

    S(A), S(B) from the marginals (p1+p2, p3+p4) and (p1+p3, p2+p4); S(AB)
    from the block spectra; C_m1 the theta = 0 conditional entropy
    (p2+p4)*h(p2/(p2+p4)) + (p1+p3)*h(p1/(p1+p3)), an empty branch giving 0;
    C_m2 = h((1 + upsilon)/2) with upsilon = sqrt((p1+p2-p3-p4)^2 +
    4*(r14+r23)^2); classical_corr = S(A) - min(C_m1, C_m2); discord =
    mutual_info - classical_corr; concurrence = 2*max(0, r14 - sqrt(p2*p3),
    r23 - sqrt(p1*p4)).
    """
    s_ab = entropy_bits(eigenvalues(states, tol), tol)  # validates the batch
    p1, p2, p3, p4 = states.p1, states.p2, states.p3, states.p4
    s_a = entropy_bits(np.stack([p1 + p2, p3 + p4], axis=-1), tol)
    s_b = entropy_bits(np.stack([p1 + p3, p2 + p4], axis=-1), tol)

    def branch(a, b):
        s = a + b
        return s * _binary_entropy(np.divide(a, s, out=np.zeros_like(s), where=s > 0.0))

    cm1 = branch(p2, p4) + branch(p1, p3)
    ups = np.hypot(p1 + p2 - p3 - p4, 2.0 * (states.r14 + states.r23))
    cm2 = _binary_entropy(0.5 * (1.0 + ups))
    mutual = s_a + s_b - s_ab
    classical = s_a - np.minimum(cm1, cm2)
    conc = 2.0 * np.maximum(
        0.0,
        np.maximum(
            states.r14 - np.sqrt(np.maximum(p2 * p3, 0.0)),
            states.r23 - np.sqrt(np.maximum(p1 * p4, 0.0)),
        ),
    )
    return BreakdownColumns(mutual, cm1, cm2, ups, classical, mutual - classical, conc)


def _one(state: XState, tol: float) -> BreakdownColumns:
    return _breakdown(XColumns.from_states([state]), tol)


def discord(state, tol: float = DEFAULT_TOL):
    """Closed-form correlation breakdown.

    classical_corr = S(A) - min(C_m1, C_m2); discord = mutual_info - classical_corr.
    An XState gives a DiscordBreakdown; an XColumns batch gives
    BreakdownColumns, one entry per row, from one kernel call.
    """
    if isinstance(state, XColumns):
        return _breakdown(state, tol)
    return _one(state, tol).row(0)


def mutual_information(state: XState, tol: float = DEFAULT_TOL) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    return float(_one(state, tol).mutual_info[0])


def c_m1(state: XState, tol: float = DEFAULT_TOL) -> float:
    """Conditional entropy for the theta = 0 (or pi/2) measurement.

    Equals the population-only expression
    -p4*log2(p4/(p2+p4)) - p2*log2(p2/(p2+p4)) - p3*log2(p3/(p1+p3)) - p1*log2(p1/(p1+p3)),
    with empty branches (zero denominator) contributing zero.
    """
    return float(_one(state, tol).c_m1[0])


def upsilon(state: XState, tol: float = DEFAULT_TOL) -> float:
    """Bloch length of the conditional A state for the theta = pi/4 measurement:
    sqrt((p1+p2-p3-p4)^2 + 4*(r14+r23)^2). Lies in [0, 1] for valid states."""
    return float(_one(state, tol).upsilon[0])


def c_m2(state: XState, tol: float = DEFAULT_TOL) -> float:
    """Conditional entropy for the theta = pi/4, phi = (phi1-phi2)/2 measurement:
    the binary entropy of (1 + upsilon)/2."""
    return float(_one(state, tol).c_m2[0])


def concurrence(state: XState, tol: float = DEFAULT_TOL) -> float:
    """Two-qubit entanglement monotone, in closed form for X states:
    2*max(0, r14 - sqrt(p2*p3), r23 - sqrt(p1*p4))."""
    return float(_one(state, tol).concurrence[0])


def _candidate_phis(state: XState, n_phi: int) -> np.ndarray:
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    # Guarantee the phase-matched azimuth of the closed form is in the grid.
    phi_star = (0.5 * (state.phi1 - state.phi2)) % TWO_PI
    return np.unique(np.append(phis, phi_star))


def minimize_numeric(
    state: XState,
    grid: tuple[int, int] = (64, 64),
    refine_iters: int = 6,
    tol: float = DEFAULT_TOL,
) -> tuple[MeasurementBasis, float]:
    """Direct search for the minimal measured conditional entropy.

    Deterministic: a coarse grid over [0, pi/2] x [0, 2*pi) that always
    contains theta in {0, pi/4} and the phase-matched azimuth, followed by
    `refine_iters` rounds of 4x shrinking local grids around the incumbent.
    Returns the best basis and its conditional entropy.
    """
    require_valid(state, tol)
    n_theta, n_phi = grid
    if n_theta < 8 or n_phi < 8:
        raise ValueError("grid must be at least 8x8")

    thetas = np.unique(np.append(np.linspace(0.0, math.pi / 2, n_theta), math.pi / 4))
    phis = _candidate_phis(state, n_phi)
    values = _cond_entropy_grid(state, thetas, phis)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    best_theta, best_phi, best = thetas[i], phis[j], values[i, j]

    span_theta = math.pi / 2 / (n_theta - 1)
    span_phi = TWO_PI / n_phi
    for _ in range(refine_iters):
        lo = max(0.0, best_theta - span_theta)
        hi = min(math.pi / 2, best_theta + span_theta)
        t_local = np.linspace(lo, hi, 9)
        p_local = np.linspace(best_phi - span_phi, best_phi + span_phi, 9)
        local = _cond_entropy_grid(state, t_local, p_local)
        i, j = np.unravel_index(np.argmin(local), local.shape)
        if local[i, j] < best:
            best_theta, best_phi, best = t_local[i], p_local[j], local[i, j]
        span_theta /= 4.0
        span_phi /= 4.0

    return MeasurementBasis(min(best_theta, math.pi / 2), best_phi % TWO_PI), float(best)


def discord_numeric(
    state: XState,
    grid: tuple[int, int] = (64, 64),
    refine_iters: int = 6,
    tol: float = DEFAULT_TOL,
) -> tuple[float, MeasurementBasis]:
    """Discord with the measurement optimization done by direct search instead
    of the closed form: mutual_info - S(A) + (numeric minimum)."""
    basis, value = minimize_numeric(state, grid, refine_iters, tol)
    s_a = entropy_bits(marginal_a(state, tol).probabilities)
    return mutual_information(state, tol) - s_a + value, basis


def nullity_check(state: XState, tol: float = 1e-8) -> NullityVerdict:
    """Classify whether the state sits on one of the two zero-discord families.

    coherence-free: r14 and r23 both <= tol. degenerate-balanced: |p1-p2|,
    |p3-p4| and |r14-r23| all <= tol. Otherwise not-null.
    """
    require_valid(state)
    coh = max(state.r14, state.r23)
    bal = max(
        abs(state.p1 - state.p2),
        abs(state.p3 - state.p4),
        abs(state.r14 - state.r23),
    )
    if coh <= tol:
        kind = COHERENCE_FREE
    elif bal <= tol:
        kind = DEGENERATE_BALANCED
    else:
        kind = NOT_NULL
    return NullityVerdict(kind=kind, coherence_residual=coh, balance_residual=bal)


def build_chi_m1(state: XState, tol: float = DEFAULT_TOL) -> XState:
    """Closest coherence-free state: the diagonal part. Idempotent."""
    require_valid(state, tol)
    return XState(state.p1, state.p2, state.p3, state.p4)


def build_chi_m2(state: XState, tol: float = DEFAULT_TOL) -> XState:
    """Degenerate-balanced companion state: populations pairwise averaged,
    both coherence magnitudes set to (r14+r23)/2 with the phases preserved.

    The construction is positive for every valid input; the output is
    validated anyway and a violation raises with the full report.
    """
    require_valid(state, tol)
    top = 0.5 * (state.p1 + state.p2)
    bottom = 0.5 * (state.p3 + state.p4)
    r = 0.5 * (state.r14 + state.r23)
    chi = XState(top, top, bottom, bottom, r14=r, phi1=state.phi1, r23=r, phi2=state.phi2)
    report = validate(chi, tol)
    if not report.ok:
        raise InvalidStateError(
            "constructed degenerate-balanced state is unphysical: "
            + "; ".join(report.violations)
        )
    return chi
