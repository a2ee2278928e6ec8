"""Classical correlations and quantum discord of X states.

The conditional entropy after a projective measurement on qubit B is computed
in closed form for the two special bases (theta = 0 and theta = pi/4 with the
phase-matched azimuth), combined as min{C_m1, C_m2}, and cross-checked by the
exact minimum over all projective bases, a batched search over theta at the
phase-matched azimuth.
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
    """All correlation quantities for one state: the entropies in bits, the
    Bloch length `upsilon` and the concurrence.

    mutual_info = S(A) + S(B) - S(AB). c_m1 is the conditional entropy for
    the theta = 0 (or pi/2) measurement, a populations-only expression. c_m2
    is the conditional entropy for the theta = pi/4, phi = (phi1-phi2)/2
    measurement, the binary entropy of (1 + upsilon)/2, where upsilon =
    sqrt((p1+p2-p3-p4)^2 + 4*(r14+r23)^2) lies in [0, 1]. classical_corr =
    S(A) - min(c_m1, c_m2); discord = mutual_info - classical_corr.
    concurrence = 2*max(0, r14 - sqrt(p2*p3), r23 - sqrt(p1*p4)).
    """

    mutual_info: float
    c_m1: float
    c_m2: float
    upsilon: float
    classical_corr: float
    discord: float
    concurrence: float


@dataclass(frozen=True)
class BreakdownColumns:
    """The DiscordBreakdown fields of a batch of states as arrays, one entry
    per state."""

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


def _binary_entropy(x) -> np.ndarray:
    """h(x) = -x*log2(x) - (1-x)*log2(1-x), elementwise, 0 at the endpoints."""
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.0) & (x < 1.0), plogp(x) + plogp(1.0 - x), 0.0)


def _cond_entropy_grid(states: XColumns, thetas, coh: np.ndarray) -> np.ndarray:
    """Measured conditional entropy sum_k p_k S(rho_k) of each state row at the
    polar angles `thetas` (broadcast against shape (rows, 1)), shape (rows, k).

    The azimuth phi enters only through the per-row coherence magnitude
    coh = |r14*exp(i(phi1 - phi)) + r23*exp(i(phi2 + phi))|. Each outcome
    leaves A in a 2x2 Hermitian block with off-diagonal magnitude
    sin*cos*coh, the same for both outcomes, and half-trace `mid`; its
    eigenvalues mid +- rad give the outcome's weighted entropy
    -sum_e e*log2(e/(2*mid)).
    """
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


def cond_entropy_basis(state: XState, basis: MeasurementBasis, tol: float = DEFAULT_TOL) -> float:
    """Conditional entropy sum_k p_k S(rho_k) for one measurement basis on B."""
    require_valid(state, tol)
    c = XColumns.from_states([state])
    phi = basis.phi
    coh = np.abs(c.r14 * np.exp(1j * (c.phi1 - phi)) + c.r23 * np.exp(1j * (c.phi2 + phi)))
    return float(_cond_entropy_grid(c, basis.theta, coh)[0, 0])


def _breakdown(state, tol: float) -> BreakdownColumns:
    """The closed-form kernel: every correlation quantity of a validated
    state or batch, elementwise, as columns (one row for an XState).

    S(A), S(B) from the marginals (p1+p2, p3+p4) and (p1+p3, p2+p4); S(AB)
    from the block spectra; C_m1 = (p2+p4)*h(p2/(p2+p4)) +
    (p1+p3)*h(p1/(p1+p3)), an empty branch giving 0; the other fields as in
    DiscordBreakdown.
    """
    s_ab = entropy_bits(eigenvalues(state, tol), tol)  # validates the input
    states = state if isinstance(state, XColumns) else XColumns.from_states([state])
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


def discord(state, tol: float = DEFAULT_TOL):
    """Closed-form correlation breakdown.

    An XState gives a DiscordBreakdown; an XColumns batch gives
    BreakdownColumns, one entry per row. Either way it is one kernel call.
    """
    columns = _breakdown(state, tol)
    return columns if isinstance(state, XColumns) else columns.row(0)


#: The theta search: a grid over [0, pi/2] holding 0, pi/4 and pi/2 exactly,
#: then rounds of a 9-point local grid, each 4x narrower than the last.
THETA_GRID = 129
SHRINK_ROUNDS = 12


def minimize_numeric(state, tol: float = DEFAULT_TOL):
    """Exact minimum of the measured conditional entropy over all projective
    bases on B, by direct search.

    At fixed theta a larger `coh` (see _cond_entropy_grid) widens both
    outcome blocks' eigenvalue split at fixed trace and so lowers both
    entropies; coh peaks at r14 + r23 at the phase-matched azimuth
    phi* = (phi1 - phi2)/2, which is therefore optimal, and the search is over
    theta alone: a THETA_GRID-point grid, then SHRINK_ROUNDS rounds of a
    9-point grid around each row's incumbent, whose best point replaces the
    incumbent only if lower. One array call per round for the whole batch.

    An XColumns batch gives arrays (theta, phi, value), one entry per row; an
    XState gives (MeasurementBasis, value).
    """
    require_valid(state, tol)
    batch = isinstance(state, XColumns)
    c = state if batch else XColumns.from_states([state])
    coh = c.r14 + c.r23
    rows = np.arange(len(c))

    thetas = np.linspace(0.0, math.pi / 2, THETA_GRID)
    values = _cond_entropy_grid(c, thetas, coh)
    k = np.argmin(values, axis=1)
    theta, value = thetas[k], values[rows, k]
    span = thetas[1]
    offsets = np.linspace(-1.0, 1.0, 9)
    for _ in range(SHRINK_ROUNDS):
        local = np.clip(theta[:, None] + span * offsets, 0.0, math.pi / 2)
        values = _cond_entropy_grid(c, local, coh)
        k = np.argmin(values, axis=1)
        lower = values[rows, k] < value
        theta = np.where(lower, local[rows, k], theta)
        value = np.where(lower, values[rows, k], value)
        span /= 4.0

    phi = np.mod(0.5 * (c.phi1 - c.phi2), TWO_PI)
    if batch:
        return theta, phi, value
    return MeasurementBasis(theta.item(0), phi.item(0)), value.item(0)


def discord_numeric(state: XState, tol: float = DEFAULT_TOL) -> tuple[float, MeasurementBasis]:
    """Discord with the measurement optimization done by direct search instead
    of the closed form: mutual_info - S(A) + (numeric minimum)."""
    basis, value = minimize_numeric(state, tol)
    s_a = entropy_bits([state.p1 + state.p2, state.p3 + state.p4])
    return discord(state, tol).mutual_info - s_a + value, basis


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
