"""Analytic time evolution of the atomic X state in the dispersive regime.

Two atoms couple dispersively to a single damped cavity mode prepared in a
coherent state. The populations p1, p4 are constants of motion, the inner
(2,3) block rotates undamped at the exchange rate, and only the outer
coherence rho14 dephases, toward a non-zero stationary magnitude. All public
times are the dimensionless lam*t; kappa is expressed in units of lam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discord import BreakdownColumns, _discord_column, discord
from .xstate import XColumns, XState, require_valid

# Zero-event kinds.
DISCRETE = "discrete"
PERIODIC_MEMBER = "periodic-member"
ASYMPTOTIC = "asymptotic"

#: Default discord level below which trajectory samples join a zero event.
#: A sample below it is near zero, not necessarily zero: shallow dips of
#: depth ~1e-4 fall under it too, and tight thresholds (~1e-4) isolate the
#: exact zeros.
DEFAULT_ZERO_THRESHOLD = 5e-3

#: Time resolution of the golden-section refinement of event minima.
REFINE_TIME_TOL = 1e-6


class DispersiveRegimeWarning(UserWarning):
    """The detuning is not large enough for the dispersive approximation."""


@dataclass(frozen=True)
class TCParams:
    """Dispersive-model parameters.

    lam: effective exchange/Stark rate (sets the time unit; lam = 1 makes all
    times dimensionless). kappa: cavity amplitude decay rate in units of lam.
    alpha_sq: mean photon number of the initial coherent field.
    """

    lam: float = 1.0
    kappa: float = 0.0
    alpha_sq: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.kappa, self.alpha_sq))):
            raise ValueError(f"parameters must be finite, got {self!r}")
        if not self.lam > 0.0:
            raise ValueError(f"lam = {self.lam!r} must be positive")
        if self.kappa < 0.0:
            raise ValueError(f"kappa = {self.kappa!r} must be nonnegative")
        if self.alpha_sq < 0.0:
            raise ValueError(f"alpha_sq = {self.alpha_sq!r} must be nonnegative")


@dataclass(frozen=True)
class ZeroEvent:
    """A maximal time interval where the discord stays below the threshold.

    The event is defined by the threshold alone: `min_discord` is the refined
    minimum of the excursion and can lie far from zero, anywhere below the
    threshold. Telling a true zero from a shallow dip takes a tighter
    threshold or a look at the state at `t_center` (nullity_check).
    """

    t_center: float
    t_enter: float
    t_exit: float
    min_discord: float
    kind: str


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled evolution, as columns: `states.r14` and so on are
    arrays over `times`, and so are the fields of `breakdowns`, the
    correlation breakdown of every sample."""

    times: np.ndarray
    states: XColumns
    initial: XState
    params: TCParams

    @cached_property
    def breakdowns(self) -> BreakdownColumns:
        """discord(states), computed on first use: the `evolve` command
        prints it, while find_zeros reads only the discord, from
        _discord_column."""
        return discord(self.states)


def lambda_from_g_delta(g: float, delta: float) -> float:
    """Effective rate |g^2/(2*delta)|, the positive lam that TCParams takes.

    A negative detuning flips the sign of the effective Hamiltonian, which
    only reverses the rotation: the state under -lam is the complex conjugate
    of the state under lam from the conjugated initial state.

    Warns (DispersiveRegimeWarning) when |delta| < 10*g, where the
    second-order elimination of the cavity is no longer trustworthy.
    """
    if not (math.isfinite(g) and math.isfinite(delta)):
        raise ValueError(f"g = {g!r} and delta = {delta!r} must be finite")
    if delta == 0.0:
        raise ValueError("detuning must be nonzero")
    if g == 0.0:
        raise ValueError(f"g = {g!r} must be nonzero")
    if abs(delta) < 10.0 * abs(g):
        warnings.warn(
            f"|delta| = {abs(delta)!r} is below 10*g = {10.0 * abs(g)!r}; "
            "the dispersive result is unreliable here",
            DispersiveRegimeWarning,
            stacklevel=2,
        )
    # |g|*(|g|/(2|delta|)), not g*g/(2|delta|): g*g overflows for |g| > 1e154
    lam = abs(g) * (0.5 * (abs(g) / abs(delta)))
    if not 0.0 < lam < math.inf:
        raise ValueError(
            f"g = {g!r} and delta = {delta!r} give lam = {lam!r}, not finite and positive"
        )
    return lam


def _cmul(a, b):
    """Complex product a*b rounded as Python's scalar product; numpy's complex
    multiply may fuse multiply-adds and differ in the last bit."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def evolve(initial: XState, params: TCParams, t):
    """Propagate the X state to time t >= 0 (in units of 1/lam when lam=1).

    A scalar t gives an XState; an array of times gives XColumns, one row per
    time, from one vectorized evaluation.

    p1 and p4 are held at their initial values; p3 closes the trace, so the
    trace is exact by construction. The inner block is a rigid rotation of
    its initial values c_plus/c_minus = (p2(0) +- p3(0))/2 and rho23(0) =
    c1 + i*c2, so its positivity is preserved; the outer coherence rho41(0)
    is multiplied by exp(-i*lam*t - (2i*lam*|alpha|^2/z)*(1 - exp(-z*t)))
    with z = kappa + 2i*lam, so its magnitude only shrinks. A propagation that
    is not finite in double precision (a rate near the largest double) is
    refused.
    """
    require_valid(initial)
    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError(f"t = {t!r} must be finite and nonnegative")
    lam, asq = params.lam, params.alpha_sq
    ts = np.atleast_1d(times)
    c_plus = 0.5 * (initial.p2 + initial.p3)
    c_minus = 0.5 * (initial.p2 - initial.p3)
    c1, c2 = initial.rho23.real, initial.rho23.imag
    # A huge rate overflows to inf or nan, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        cos_lt = np.cos(lam * ts)
        sin_lt = np.sin(lam * ts)
        p2_t = c_plus + c_minus * cos_lt - c2 * sin_lt
        p3_t = 1.0 - initial.p1 - p2_t - initial.p4
        rho23_t = c1 + 1j * (c2 * cos_lt + c_minus * sin_lt)
        z = complex(params.kappa, 2.0 * lam)
        w = -1j * lam * ts - _cmul(2j * lam * asq / z, 1.0 - np.exp(-z * ts))
        rho41_t = _cmul(initial.rho14.conjugate(), np.exp(w))
    if not all(np.isfinite(x).all() for x in (p2_t, rho23_t, rho41_t)):
        raise ValueError("the analytic propagation is not finite")
    states = XColumns.from_coherences(
        np.full_like(ts, initial.p1),
        p2_t,
        p3_t,
        np.full_like(ts, initial.p4),
        rho41_t.conjugate(),
        rho23_t,
    )
    return states if times.ndim else states.row(0)


def steady_coherence(initial_r14: float, params: TCParams) -> float:
    """Long-time magnitude of the outer coherence:
    r14(0) * exp(-4*lam^2*|alpha|^2 / (kappa^2 + 4*lam^2)), with the exponent
    written in x = kappa/(2*lam) so that no square of a rate overflows."""
    x = params.kappa / (2.0 * params.lam)
    return initial_r14 * math.exp(-params.alpha_sq / (1.0 + x * x))


def steady_coherence_as_printed(initial_r14: float, params: TCParams) -> float:
    """Variant with the denominator kappa^2 + (4*lam)^2 instead of
    kappa^2 + (2*lam)^2. It does NOT agree with the long-time limit of
    evolve(); verify reports both numbers so the difference stays visible.
    The exponent is written in y = kappa/lam."""
    y = params.kappa / params.lam
    return initial_r14 * math.exp(-4.0 * params.alpha_sq / (y * y + 16.0))


def trajectory(initial: XState, params: TCParams, t_max: float, n_samples: int) -> Trajectory:
    """Sample the evolution on a uniform grid of n_samples times over
    [0, t_max], and validate the samples once. At the edges of validity a
    sample can miss require_valid, by rounding or by p3 absorbing the
    initial trace's distance from 1, and then trajectory raises
    InvalidStateError for every command alike. The correlation breakdown is
    computed on first use of `breakdowns`; zero events are found from the
    samples by find_zeros."""
    require_valid(initial)
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples!r} must be at least 2")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max = {t_max!r} must be finite and positive")
    times = np.linspace(0.0, t_max, n_samples)
    states = evolve(initial, params, times)
    require_valid(states)
    return Trajectory(times=times, states=states, initial=initial, params=params)


#: The golden ratio, by which each golden-section step shrinks its bracket.
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

#: Golden-section steps taken per call of the refined function: each call
#: evaluates every point the next LOOKAHEAD steps can reach, 2 + 4 + 8 + 16
#: below a bracket's initial c and d in the first call, and 1 + 2 + 4 + 8
#: in each later one, whose first step is already decided.
LOOKAHEAD = 4


#: A golden-section step on the bracket [a, b] with interior points c < d
#: goes left, to [a, d] with the new points (d - (d - a)/GOLDEN, c), or right,
#: to [c, b] with (d, c + (b - c)/GOLDEN), and evaluates its one new point.
#: Row 0 (left) and row 1 (right) pick each child's a, b, c, d and point from
#: the parent's (a, b, c, d, d - (d - a)/GOLDEN, c + (b - c)/GOLDEN).
_CHILDREN = np.array([[0, 3, 4, 2, 4], [2, 1, 3, 5, 5]])


def _steps(node):
    """The children of an (m, 5, k) array of nodes, m per bracket with fields
    (a, b, c, d, point) along axis 1, as a (2m, 5, k) array: node j's left
    step at 2j, its right step at 2j + 1."""
    # (d, c) - ((d, c) - (a, b))/GOLDEN: c - (c - b)/GOLDEN has the bits of
    # c + (b - c)/GOLDEN, as negation is exact.
    dc = node[:, 3:1:-1]
    parent = np.concatenate([node[:, :4], dc - (dc - node[:, :2]) / GOLDEN], axis=1)
    return parent.take(_CHILDREN.ravel(), axis=1).reshape(2 * len(node), 5, node.shape[2])


def _golden_min(fn, a: np.ndarray, b: np.ndarray, tol: float):
    """Golden-section minima of fn on the brackets [a_i, b_i], to within tol
    in the argument, all in lockstep: fn maps an array of arguments to an
    array of values. Each call evaluates, for every bracket still wider than
    tol, the points its next LOOKAHEAD steps can reach, and the midpoint of
    every reachable node where a walk can stop: a node within tol whose
    parent is wider. The first call evaluates the initial c and d of those
    brackets and all 2 + 4 + 8 + 16 points of the tree below them, and the
    midpoints of the brackets within tol from the start. Each later call
    starts with the step that the last comparison of the previous walk
    picked, and evaluates its point and the 2 + 4 + 8 points below it: 15
    per bracket, not the 30 its first step could choose between. The steps
    then walk the tree: each reads its value at the node its comparison
    picks, and a walk ends at its first node within tol and reads fn at that
    node's midpoint, so no call follows the last walk. Each bracket makes
    the comparisons and visits the points, bit for bit, that a search on it
    alone with one evaluation per step would. Returns the bracket midpoints
    and fn there."""
    c = b - (b - a) / GOLDEN
    d = a + (b - a) / GOLDEN
    node = np.stack([a, b, c, d, c])
    live = np.abs(c - d) > tol
    fc, fd, fm = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    head = [d[live], 0.5 * (a + b)[~live]]
    while head or live.any():
        i = np.flatnonzero(live)
        k, ar = i.size, np.arange(i.size)
        fci, fdi = fc[i], fd[i]
        # The tree is a heap: row r's left step is row 2r + 1, its right
        # step 2r + 2. Its root is the bracket in the first call, with c as
        # its point, and then the step that the last comparison picked.
        tree = [node[None, :, i]]
        if not head:
            left = fci < fdi
            step = _steps(tree[0])
            tree[0] = np.where(left, step[0], step[1])[None]
        depth = LOOKAHEAD if head else LOOKAHEAD - 1
        for _ in range(depth):
            tree.append(_steps(tree[-1]))
        tree = np.concatenate(tree)
        wide = np.abs(tree[:, 2] - tree[:, 3]) > tol
        # A walk ends at its first node within tol, whose parent is wider.
        stop = ~wide
        stop[1:] &= np.repeat(wide[: len(tree) // 2], 2, axis=0)
        f = fn(np.concatenate(head + [tree[:, 4].ravel(), 0.5 * (tree[:, 0] + tree[:, 1])[stop]]))
        if head:
            # fn at each live bracket's d and at each other's midpoint; the
            # tree's first row holds fn at the live brackets' c.
            fdi, fm[~live] = np.split(f[: len(a)], [k])
            f, head = f[len(a) :], []
            fci = f[:k]
        else:
            fci, fdi = np.where(left, f[:k], fdi), np.where(left, fci, f[:k])
        f_tree = f[: len(tree) * k].reshape(len(tree), k)
        f_stop = np.full(wide.shape, np.nan)
        f_stop[stop] = f[f_tree.size :]
        # The walk: a step goes to row 2r + 1 or 2r + 2, and a walk stays at
        # its first node within tol, where nothing it compares is used.
        at = np.zeros(k, dtype=int)
        for _ in range(depth):
            left = fci < fdi
            at = np.where(wide[at, ar], 2 * at + 2 - left, at)
            v = f_tree[at, ar]
            fci, fdi = np.where(left, v, fdi), np.where(left, fci, v)
        # A walk that goes on reads NaN here, and overwrites it in the call
        # where it ends.
        fm[i] = f_stop[at, ar]
        node[:, i] = tree[at, :, ar].T
        fc[i], fd[i], live[i] = fci, fdi, wide[at, ar]
    return 0.5 * (node[0] + node[1]), fm


def find_zeros(traj: Trajectory, threshold: float = DEFAULT_ZERO_THRESHOLD) -> list[ZeroEvent]:
    """Locate and classify the below-threshold excursions of the discord.

    Each maximal run of below-threshold samples becomes one event, and the
    events are built together, as arrays over the runs. The discord of the
    samples and of the refinement comes from _discord_column, which equals
    discord().discord bit for bit without its checks: trajectory() validated
    the samples, and evolve builds the refinement's rows from the same
    validated initial state. traj.breakdowns is not computed. The minimum
    of each event is refined by golden-section search on
    _discord_column(evolve(.)) to a time resolution of 1e-6, LOOKAHEAD steps
    per kernel call, each call evaluating only the points those steps can
    reach (see _golden_min), and clamped to [t_enter, t_exit], the linearly
    interpolated crossings.
    Kinds: an event whose excursion reaches t_max is `asymptotic`. If at
    least three events are not and the median of their gaps is positive,
    each of them whose gap to the previous or the next such event is within
    25% of that median is `periodic-member`, so one regular gap labels both
    events beside it (fig2 at 5e-3: the dips at 2.29 and 4.14, not 0.93 or
    7.40); ROADMAP item 8 holds the pending fix. The rest are `discrete`.

    An event marks an excursion, not a zero: its min_discord may lie anywhere
    below the threshold, so at the default 5e-3 shallow dips of depth ~1e-4
    are reported alongside exact zeros (see ZeroEvent).
    """
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"zero threshold {threshold!r} must be finite and positive")
    if len(traj.times) == 0:
        raise ValueError("trajectory is empty")
    times = np.asarray(traj.times, dtype=float)
    disc = _discord_column(traj.states)
    n = len(times)
    # Runs of below-threshold samples: [start, stop] inclusive.
    edges = np.diff(np.concatenate([[0], (disc < threshold).astype(np.int8), [0]]))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) - 1
    # Each run's sampled minimum k, bracketed by its neighbouring samples.
    ks = np.array(
        [start + int(np.argmin(disc[start : stop + 1])) for start, stop in zip(starts, stops)],
        dtype=int,
    )
    lo = times[np.maximum(ks - 1, 0)]
    hi = times[np.minimum(ks + 1, n - 1)]
    t_center = times[ks]
    refined = disc[ks]

    def fn(t):
        return _discord_column(evolve(traj.initial, traj.params, t))

    wide = hi > lo
    if wide.any():
        t_center[wide], refined[wide] = _golden_min(fn, lo[wide], hi[wide], REFINE_TIME_TOL)

    # The threshold crossings between samples i0 and i1: row 0 enters each
    # run, row 1 leaves it. At an end of the trajectory i0 == i1, and the
    # interpolation's 0/0 gives way to the time there.
    i0 = np.array([np.maximum(starts - 1, 0), stops])
    i1 = np.array([starts, np.minimum(stops + 1, n - 1)])
    with np.errstate(invalid="ignore"):
        cross = times[i0] + (threshold - disc[i0]) * (times[i1] - times[i0]) / (disc[i1] - disc[i0])
    t_enter, t_exit = np.where(i0 == i1, times[i0], cross)
    center = np.minimum(np.maximum(t_center, t_enter), t_exit)
    reaches_end = stops == n - 1
    kind = 2 * reaches_end  # 0 discrete, 1 periodic-member, 2 asymptotic
    inner = np.flatnonzero(~reaches_end)
    if inner.size >= 3:
        gaps = np.diff(center[inner])
        period = np.median(gaps)
        regular = (period > 0.0) & (np.abs(gaps - period) <= 0.25 * period)
        kind[inner] = np.r_[False, regular] | np.r_[regular, False]
    kinds = np.array([DISCRETE, PERIODIC_MEMBER, ASYMPTOTIC], dtype=object)[kind]
    columns = (center, t_enter, t_exit, np.minimum(refined, disc[ks]))
    return [ZeroEvent(*row) for row in zip(*(c.tolist() for c in columns), kinds)]
