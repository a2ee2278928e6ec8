"""Classical correlations and quantum discord of X states.

The conditional entropy after a projective measurement on qubit B has one
formula, _cond_entropy_grid, which takes s2 = sin(theta)^2 at the
phase-matched azimuth. The paper's two candidates are that formula at
s2 = 0 (C_m1) and s2 = 1/2 (C_m2), combined as min{C_m1, C_m2}, and the
exact minimum over all projective bases is a batched search over theta in
[0, pi/4] (the entropy is symmetric about theta = pi/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .xstate import (
    FIELDS,
    TWO_PI,
    XColumns,
    XState,
    _entropy,
    _spectrum,
    _xlog2x,
    eigenvalues,
    entropy_bits,
    require_valid,
)

# Nullity verdict kinds.
COHERENCE_FREE = "coherence-free"
DEGENERATE_BALANCED = "degenerate-balanced"
NOT_NULL = "not-null"


@dataclass(frozen=True)
class DiscordBreakdown:
    """All correlation quantities for one state: the entropies in bits, the
    Bloch length `upsilon` and the concurrence.

    mutual_info = S(A) + S(B) - S(AB). c_m1 is the conditional entropy for
    the theta = 0 (or pi/2) measurement, a populations-only expression. c_m2
    is the conditional entropy for the theta = pi/4, phi = (phi1-phi2)/2
    measurement, the binary entropy of (1 + upsilon)/2, where upsilon =
    sqrt((p1+p2-p3-p4)^2 + 4*(r14+r23)^2). classical_corr =
    S(A) - min(c_m1, c_m2); discord = mutual_info - classical_corr.
    concurrence = 2*max(0, r14 - sqrt(p2*p3), r23 - sqrt(p1*p4)).

    Each field lies in its range: mutual_info, c_m1, c_m2 and the
    concurrence >= 0, upsilon in [0, 1], classical_corr and so the discord
    in [0, mutual_info]. A state within the validation tolerance, or
    rounding, can carry a formula a little past it (mutual_info -1.8e-12
    for two populations at -0.9e-12, a discord of -3e-16 on a zero-discord
    state), so mutual_info, c_m1 and c_m2 are clamped at 0, upsilon at 1
    and classical_corr into [0, mutual_info].
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


def _cond_entropy_grid(states: XColumns, s2, coh: np.ndarray) -> np.ndarray:
    """Measured conditional entropy sum_k p_k S(rho_k) of each state row at the
    polar angles theta given as s2 = sin(theta)^2, whose last axis broadcasts
    against the rows: shape (k, 1) puts the same k angles on every row,
    (k, rows) k angles per row. The result has the broadcast shape, (k, rows);
    the rows are the last axis so that each array pass runs along them.

    The azimuth phi enters only through the per-row coherence magnitude
    coh = |r14*exp(i(phi1 - phi)) + r23*exp(i(phi2 + phi))|. Each outcome
    leaves A in a 2x2 Hermitian block. Its half-trace `mid` and the half
    difference of its diagonal are linear in s2, with row constants, and its
    squared off-diagonal magnitude is (s2 - s2^2)*coh^2 for both outcomes.
    Its eigenvalues mid +- rad, rad = sqrt(difference^2 + off-diagonal^2),
    give the outcome's weighted entropy
    2*mid*log2(2*mid) - sum_e e*log2(e). rad is a plain sqrt: np.hypot
    makes one libm call per element, and every term is at most 1, so no
    square overflows and an underflowing one moves rad by at most 1e-154. A
    zero eigenvalue raises no floating-point warning. Each element is
    computed alone, so a point's value does not depend on the other points
    or rows of the call. The kernel allocates its six full-size arrays
    (off2, the total and four intermediates) on each call and reuses them
    across both outcomes.
    """
    off2 = (s2 - s2 * s2) * (coh * coh)
    total = np.zeros(off2.shape)
    scratch, mid, rad, low = np.empty((4, *off2.shape))
    p13, p24 = 0.5 * (states.p1 + states.p3), 0.5 * (states.p2 + states.p4)
    d13, d24 = 0.5 * (states.p1 - states.p3), 0.5 * (states.p2 - states.p4)
    # The outcome along |+> leaves [[s2*p1 + c2*p2, .], [., s2*p3 + c2*p4]]
    # with c2 = 1 - s2; the outcome along |-> swaps s2 and c2.
    for mid0, mid1, half0, half1 in ((p24, p13, d24, d13), (p13, p24, d13, d24)):
        np.multiply(s2, mid1 - mid0, out=mid)
        mid += mid0
        np.multiply(s2, half1 - half0, out=rad)
        rad += half0
        rad *= rad
        rad += off2
        np.sqrt(rad, out=rad)
        np.subtract(mid, rad, out=low)
        rad += mid
        total -= _xlog2x(rad, scratch)
        total -= _xlog2x(low, scratch)
        mid += mid
        total += _xlog2x(mid, scratch)
    return total


def _correlations(states: XColumns, s_ab) -> tuple:
    """The entropies that both kernel entries compute alike, as columns
    (mutual_info, c_m1, c_m2, classical_corr), given S(AB).

    S(A), S(B) come from the marginals (p1+p2, p3+p4) and (p1+p3, p2+p4)
    through one _xlog2x call, with entropy_bits' bits but not its -1e-12
    check, which a sum of two tolerated negatives can fail. The marginals
    are stored entry by entry, so that each entropy's sum runs along the
    rows, in the order of a row-by-row sum. C_m1 and C_m2 come from one
    _cond_entropy_grid call at s2 = 0 and 1/2 with the phase-matched
    coh = r14 + r23; the rest is as in DiscordBreakdown, each column clamped
    to its range in place.
    """
    p1, p2, p3, p4 = states.p1, states.p2, states.p3, states.p4
    marginals = np.empty((2, 2, len(states)))  # entry, subsystem, row
    np.add(p1, p2, out=marginals[0, 0])
    np.add(p3, p4, out=marginals[1, 0])
    np.add(p1, p3, out=marginals[0, 1])
    np.add(p2, p4, out=marginals[1, 1])
    x = _xlog2x(marginals, np.empty_like(marginals))
    s_a, s_b = 0.0 - (x[0] + x[1])
    cm = _cond_entropy_grid(states, np.array([[0.0], [0.5]]), states.r14 + states.r23)
    mutual = s_a + s_b - s_ab
    np.maximum(mutual, 0.0, out=mutual)
    np.maximum(cm, 0.0, out=cm)
    classical = s_a - np.minimum(cm[0], cm[1])
    np.maximum(classical, 0.0, out=classical)
    np.minimum(classical, mutual, out=classical)
    return mutual, cm[0], cm[1], classical


def discord(state):
    """Closed-form correlation breakdown: every correlation quantity of a
    state, elementwise on a batch. An XState gives a DiscordBreakdown; an
    XColumns batch gives BreakdownColumns, one entry per row, from one
    kernel call. The `evolve` command prints these columns.

    The input is validated, and S(AB) is taken from its spectrum through
    the public eigenvalues and entropy_bits; _correlations gives the other
    entropies, and upsilon (clamped at 1) and the concurrence are as in
    DiscordBreakdown.
    """
    spectrum = eigenvalues(state)  # validates the input
    states = state if isinstance(state, XColumns) else XColumns.from_states([state])
    p1, p2, p3, p4 = states.p1, states.p2, states.p3, states.p4
    mutual, cm1, cm2, classical = _correlations(states, entropy_bits(spectrum))
    ups = np.minimum(np.hypot(p1 + p2 - p3 - p4, 2.0 * (states.r14 + states.r23)), 1.0)
    conc = 2.0 * np.maximum(
        0.0,
        np.maximum(
            states.r14 - np.sqrt(np.maximum(p2 * p3, 0.0)),
            states.r23 - np.sqrt(np.maximum(p1 * p4, 0.0)),
        ),
    )
    columns = BreakdownColumns(mutual, cm1, cm2, ups, classical, mutual - classical, conc)
    return columns if isinstance(state, XColumns) else columns.row(0)


def _discord_column(states: XColumns) -> np.ndarray:
    """The discord column of discord(), bit for bit, on a batch that
    require_valid accepts: the same spectrum, entropy and _correlations
    code, without the validation, the entropy_bits copy and checks, or the
    fields that only discord() returns. find_zeros, and so the `zeros`
    command, calls it on validated trajectory samples and on rows that
    evolve built from a validated state, which stay within DEFAULT_TOL and
    rounding of every check; there the clamped spectrum keeps it finite."""
    mutual, _, _, classical = _correlations(states, _entropy(_spectrum(states)))
    return mutual - classical


#: The theta search: a grid over [0, pi/4] holding 0 and pi/4 exactly, then
#: rounds of 8 points around the incumbent, each round 4x narrower than the
#: last.
THETA_GRID = 65
SHRINK_ROUNDS = 12
#: Rows searched together. The kernel's six float arrays are (4, rows) for
#: a chunk's probe, 0.79 MB for a full chunk, and (65, flagged) for its
#: flagged rows' grid, 3.1 kB per flagged row: 12.8 MB if a full chunk is
#: flagged. A search's memory is thus bounded by the chunk whatever the
#: batch size.
SEARCH_CHUNK = 4096
#: A round's points, in units of the round's span; the incumbent itself is
#: not evaluated again.
_ROUND_OFFSETS = np.array([-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0])[:, None]
#: The grid's angles and their s2 = sin(theta)^2, one row per angle; the
#: probe takes its four rows from these, so that their bits are the grid's.
_THETAS = np.linspace(0.0, math.pi / 4, THETA_GRID)
_GRID_S2 = np.sin(_THETAS[:, None]) ** 2


def _search_theta(c: XColumns):
    """The grid and the shrink rounds of minimize_numeric on rows whose grid
    minimum is interior: arrays (theta, value)."""
    coh, rows = c.r14 + c.r23, np.arange(len(c))
    values = _cond_entropy_grid(c, _GRID_S2, coh)
    k = np.argmin(values, axis=0)
    theta, value = _THETAS[k], values[k, rows]
    span = _THETAS[1]
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


def minimize_numeric(state):
    """Exact minimum of the measured conditional entropy over all projective
    bases on B, by direct search.

    At fixed theta a larger `coh` (see _cond_entropy_grid) widens both
    outcome blocks' eigenvalue split at fixed trace and so lowers both
    entropies; coh peaks at r14 + r23 at the phase-matched azimuth
    phi* = (phi1 - phi2)/2, which is therefore optimal, and the search is over
    theta alone. theta and pi/2 - theta give the same two outcomes in swapped
    order, so the entropy C is symmetric about pi/4 and the search covers
    [0, pi/4], on a THETA_GRID-point grid theta_0 = 0, ..., theta_64 = pi/4.

    A probe evaluates every row at theta_0, theta_1, theta_63 and theta_64
    only. A row with C(theta_1) < C(theta_0) and C(theta_63) <= C(theta_64)
    is flagged: its grid minimum, the first on a tie as np.argmin takes it,
    is interior. Only flagged rows are evaluated on the whole grid and then
    in SHRINK_ROUNDS rounds of the 8 points at +-1/4, +-1/2, +-3/4 and +-1
    span around the row's incumbent, clipped to [0, pi/4]. The best of them
    replaces the incumbent only if strictly lower, so the incumbent is never
    evaluated again: 4 points per row, and 65 + 12*8 = 161 more per flagged
    row. Every other row keeps theta_64 and its value if C(theta_64) <
    C(theta_0), else theta_0 and its value.

    That is the grid's own minimum on the assumption that C falls and then
    rises along the grid, at most once each, on every row: a row whose grid
    values rise from theta_0 or fall into theta_64 then has its grid minimum
    at an endpoint. It is evidence, not proof: over 1,000,000 seeded
    random_xstate rows the probe flagged exactly the 582 rows whose grid
    minimum is interior. It fails where C is flat, so that rounding makes an
    interior grid minimum, and where a population within the tolerance below
    0 makes C rough at the 1e-12 scale; the endpoint kept there lay at most
    5.6e-12 bits above the grid minimum over 16,020 such edge rows. An
    endpoint minimum is kept as it is: dC/dtheta =
    C'(s2)*sin(2*theta) is 0 at theta = 0, and C is symmetric about pi/4, so
    the rounds could lower it by rounding noise only (at most 1.3e-15 bits
    over the same rows). The rows are probed and searched in chunks of
    SEARCH_CHUNK, one array call per step for the whole chunk, which bounds
    the memory of a large batch; each row's result does not depend on the
    others.

    Returns arrays (theta, phi, value), one entry per row of an XColumns
    batch, theta in [0, pi/4]; an XState is a batch of one.
    """
    require_valid(state)
    c = state if isinstance(state, XColumns) else XColumns.from_states([state])
    theta, value = np.empty(len(c)), np.empty(len(c))
    probe = _GRID_S2[[0, 1, -2, -1]]  # theta_0, theta_1, theta_63, theta_64
    for start in range(0, len(c), SEARCH_CHUNK):
        chunk = slice(start, start + SEARCH_CHUNK)
        part = XColumns(*(getattr(c, name)[chunk] for name in FIELDS))
        c0, c1, c63, c64 = _cond_entropy_grid(part, probe, part.r14 + part.r23)
        right = c64 < c0
        theta[chunk], value[chunk] = np.where(right, _THETAS[-1], 0.0), np.where(right, c64, c0)
        live = np.flatnonzero((c1 < c0) & (c63 <= c64))
        if live.size:
            theta[start + live], value[start + live] = _search_theta(
                XColumns(*(getattr(part, name)[live] for name in FIELDS))
            )
    return theta, np.mod(0.5 * (c.phi1 - c.phi2), TWO_PI), value


def nullity_check(state: XState, tol: float = 1e-8) -> NullityVerdict:
    """Classify whether the state sits on one of the two zero-discord families.

    coherence-free: r14 and r23 both <= tol. degenerate-balanced: |p1-p2|,
    |p3-p4| and |r14-r23| all <= tol. Otherwise not-null. tol must be finite
    and nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol = {tol!r} must be finite and nonnegative")
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


def build_chi_m1(state: XState) -> XState:
    """Closest coherence-free state: the diagonal part. Idempotent."""
    require_valid(state)
    return XState(state.p1, state.p2, state.p3, state.p4)


def build_chi_m2(state: XState) -> XState:
    """Degenerate-balanced companion state: populations pairwise averaged,
    both coherence magnitudes set to (r14+r23)/2 with the phases preserved.

    The construction is positive for every valid input; the output is
    validated anyway.
    """
    require_valid(state)
    top = 0.5 * (state.p1 + state.p2)
    bottom = 0.5 * (state.p3 + state.p4)
    r = 0.5 * (state.r14 + state.r23)
    chi = XState(top, top, bottom, bottom, r14=r, phi1=state.phi1, r23=r, phi2=state.phi2)
    require_valid(chi)
    return chi
