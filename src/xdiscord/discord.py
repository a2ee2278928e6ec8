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
import threading
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
    sqrt((p1+p2-p3-p4)^2 + 4*(r14+r23)^2) lies in [0, 1] (clamped at 1,
    which a trace within tolerance of 1 can pass). classical_corr =
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


#: Each thread's work memory for _cond_entropy_grid: one flat float array
#: that grows to the largest request and is then kept, so that a repeated
#: search reuses the same pages rather than growing the heap and handing the
#: pages back on every call. Per thread, because numpy releases the GIL
#: inside a ufunc.
_WORK = threading.local()
#: The work arrays that _cond_entropy_grid takes from _work.
_GRID_WORK = 5


def _work(shape: tuple, count: int) -> np.ndarray:
    """`count` float arrays of `shape`, stacked along a new first axis, from
    this thread's work memory: a caller that needs an array beside the
    kernel's own takes the last of _work(shape, _GRID_WORK + 1). Their
    contents are arbitrary, and the next call overwrites them."""
    size = count * math.prod(shape)
    buf = getattr(_WORK, "buf", None)
    if buf is None or buf.size < size:
        buf = _WORK.buf = np.empty(size)
    return buf[:size].reshape((count, *shape))


def _cond_entropy_grid(states: XColumns, s2, coh: np.ndarray, out=None) -> np.ndarray:
    """Measured conditional entropy sum_k p_k S(rho_k) of each state row at the
    polar angles theta given as s2 = sin(theta)^2, whose last axis broadcasts
    against the rows: shape (k, 1) puts the same k angles on every row,
    (k, rows) k angles per row. The result has the broadcast shape, (k, rows);
    the rows are the last axis so that each array pass runs along them. It
    is written to `out` if given (a float array of that shape, not one of
    this thread's first _GRID_WORK work slots), else to a new array.

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
    zero eigenvalue raises no floating-point warning. The full-size
    intermediates live in this thread's work memory (_work).
    """
    shape = np.shape(s2)[:-1] + coh.shape
    off2, scratch, mid, rad, low = _work(shape, _GRID_WORK)
    np.multiply(s2 - s2 * s2, coh * coh, out=off2)
    if out is None:
        total = np.zeros(shape)
    else:
        total = out
        total.fill(0.0)
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
    coh = r14 + r23; the rest is as in DiscordBreakdown.
    """
    p1, p2, p3, p4 = states.p1, states.p2, states.p3, states.p4
    marginals = np.empty((2, 2, len(states)))  # entry, subsystem, row
    np.add(p1, p2, out=marginals[0, 0])
    np.add(p3, p4, out=marginals[1, 0])
    np.add(p1, p3, out=marginals[0, 1])
    np.add(p2, p4, out=marginals[1, 1])
    x = _xlog2x(marginals, np.empty_like(marginals))
    s_a, s_b = 0.0 - (x[0] + x[1])
    cm1, cm2 = _cond_entropy_grid(states, np.array([[0.0], [0.5]]), states.r14 + states.r23)
    return s_a + s_b - s_ab, cm1, cm2, s_a - np.minimum(cm1, cm2)


def _breakdown(state) -> BreakdownColumns:
    """The closed-form kernel behind discord(): every correlation quantity
    of a state or batch, elementwise, as columns (one row for an XState).
    The `evolve` command prints these columns.

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
    return BreakdownColumns(mutual, cm1, cm2, ups, classical, mutual - classical, conc)


def _discord_column(states: XColumns) -> np.ndarray:
    """The discord column of _breakdown, bit for bit, on a batch that
    require_valid accepts: the same spectrum, entropy and _correlations
    code, without the validation, the entropy_bits copy and checks, or the
    fields that only discord() returns. find_zeros, and so the `zeros`
    command, calls it on validated trajectory samples and on rows that
    evolve built from a validated state, which stay within 2*DEFAULT_TOL
    of every check; there the clamped spectrum keeps it finite."""
    mutual, _, _, classical = _correlations(states, _entropy(_spectrum(states)))
    return mutual - classical


def discord(state):
    """Closed-form correlation breakdown.

    An XState gives a DiscordBreakdown; an XColumns batch gives
    BreakdownColumns, one entry per row. Either way it is one kernel call.
    """
    columns = _breakdown(state)
    return columns if isinstance(state, XColumns) else columns.row(0)


#: The theta search: a grid over [0, pi/4] holding 0 and pi/4 exactly, then
#: rounds of 8 points around the incumbent, each round 4x narrower than the
#: last.
THETA_GRID = 65
SHRINK_ROUNDS = 12
#: Rows searched together. The grid's six (65, rows) float arrays are this
#: thread's kept work memory (_work), 3.1 kB per row: 12.8 MB for a full
#: chunk, 0.94 MB for 300 rows. With np.argmin's copy, a chunk's search peaks
#: at about 15 MB (tracemalloc) whatever the batch size.
SEARCH_CHUNK = 4096
#: A round's points, in units of the round's span; the incumbent itself is
#: not evaluated again.
_ROUND_OFFSETS = np.array([-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0])[:, None]


def _search_theta(c: XColumns):
    """The theta search of minimize_numeric on one chunk of rows: arrays
    (theta, value). Only the live rows, whose grid minimum is interior, go
    on to the shrink rounds; the others keep the grid's endpoint, 0 or pi/4,
    and its value."""
    coh = c.r14 + c.r23
    thetas = np.linspace(0.0, math.pi / 4, THETA_GRID)
    values = _cond_entropy_grid(
        c, np.sin(thetas[:, None]) ** 2, coh, out=_work((THETA_GRID, len(c)), _GRID_WORK + 1)[-1]
    )
    k = np.argmin(values, axis=0)
    theta, value = thetas[k], values[k, np.arange(len(c))]
    live = np.flatnonzero((k > 0) & (k < THETA_GRID - 1))
    if not live.size:
        return theta, value
    sub = XColumns(*(getattr(c, name)[live] for name in FIELDS))
    coh, rows = coh[live], np.arange(live.size)
    best_theta, best_value = theta[live], value[live]
    span = thetas[1]
    for _ in range(SHRINK_ROUNDS):
        local = np.clip(best_theta + span * _ROUND_OFFSETS, 0.0, math.pi / 4)
        values = _cond_entropy_grid(sub, np.sin(local) ** 2, coh)
        k = np.argmin(values, axis=0)
        best = values[k, rows]
        lower = best < best_value
        best_theta = np.where(lower, local[k, rows], best_theta)
        best_value = np.where(lower, best, best_value)
        span /= 4.0
    theta[live], value[live] = best_theta, best_value
    return theta, value


def minimize_numeric(state):
    """Exact minimum of the measured conditional entropy over all projective
    bases on B, by direct search.

    At fixed theta a larger `coh` (see _cond_entropy_grid) widens both
    outcome blocks' eigenvalue split at fixed trace and so lowers both
    entropies; coh peaks at r14 + r23 at the phase-matched azimuth
    phi* = (phi1 - phi2)/2, which is therefore optimal, and the search is over
    theta alone. theta and pi/2 - theta give the same two outcomes in swapped
    order, so the entropy is symmetric about pi/4 and the search covers
    [0, pi/4]: a THETA_GRID-point grid, then, for the rows whose grid
    minimum is interior, SHRINK_ROUNDS rounds of the 8 points at +-1/4,
    +-1/2, +-3/4 and +-1 span around the row's incumbent, clipped to
    [0, pi/4]. The best of them replaces the incumbent only if strictly
    lower, so the incumbent is never evaluated again: 65 points per row, and
    12*8 = 96 more per interior row. A row whose grid minimum is 0 or pi/4
    keeps it: dC/dtheta = C'(s2)*sin(2*theta) is 0 at theta = 0, and C is
    symmetric about pi/4, so the rounds could lower that value by rounding
    noise only (at most 1.3e-15 bits over 1,000,000 seeded rows). The rows
    are searched in chunks of SEARCH_CHUNK, one array call per round for the
    whole chunk's interior rows, which bounds the memory of a large batch;
    each row's result does not depend on the others.

    Returns arrays (theta, phi, value), one entry per row of an XColumns
    batch, theta in [0, pi/4]; an XState is a batch of one.
    """
    require_valid(state)
    c = state if isinstance(state, XColumns) else XColumns.from_states([state])
    theta, value = np.empty(len(c)), np.empty(len(c))
    for start in range(0, len(c), SEARCH_CHUNK):
        chunk = slice(start, start + SEARCH_CHUNK)
        theta[chunk], value[chunk] = _search_theta(
            XColumns(*(getattr(c, name)[chunk] for name in FIELDS))
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
