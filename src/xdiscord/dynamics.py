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
from dataclasses import dataclass, replace

import numpy as np

from .discord import BreakdownColumns, discord
from .xstate import DEFAULT_TOL, XColumns, XState, require_valid

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
    """Uniformly sampled evolution with the correlation breakdown of every
    sample, as columns: `states.r14`, `breakdowns.discord` and so on are
    arrays over `times`."""

    times: np.ndarray
    states: XColumns
    breakdowns: BreakdownColumns
    zero_events: tuple[ZeroEvent, ...]
    initial: XState
    params: TCParams


def lambda_from_g_delta(g: float, delta: float) -> float:
    """Effective rate g^2/(2*delta); the sign follows the detuning.

    Warns (DispersiveRegimeWarning) when |delta| < 10*g, where the
    second-order elimination of the cavity is no longer trustworthy.
    """
    if delta == 0.0:
        raise ValueError("detuning must be nonzero")
    if abs(delta) < 10.0 * abs(g):
        warnings.warn(
            f"|delta| = {abs(delta)!r} is below 10*g = {10.0 * abs(g)!r}; "
            "the dispersive result is unreliable here",
            DispersiveRegimeWarning,
            stacklevel=2,
        )
    return g * g / (2.0 * delta)


def _cmul(a, b):
    """Complex product a*b rounded as Python's scalar product; numpy's complex
    multiply may fuse multiply-adds and differ in the last bit."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def evolve(initial: XState, params: TCParams, t, tol: float = DEFAULT_TOL):
    """Propagate the X state to time t >= 0 (in units of 1/lam when lam=1).

    A scalar t gives an XState; an array of times gives XColumns, one row per
    time, from one vectorized evaluation.

    p1 and p4 are held at their initial values; p3 closes the trace, so the
    trace is exact by construction. The inner block is a rigid rotation of
    its initial values c_plus/c_minus = (p2(0) +- p3(0))/2 and rho23(0) =
    c1 + i*c2, so its positivity is preserved; the outer coherence rho41(0)
    is multiplied by exp(-i*lam*t - (2i*lam*|alpha|^2/z)*(1 - exp(-z*t)))
    with z = kappa + 2i*lam, so its magnitude only shrinks.
    """
    require_valid(initial, tol)
    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError(f"t = {t!r} must be finite and nonnegative")
    lam, asq = params.lam, params.alpha_sq
    ts = np.atleast_1d(times)
    c_plus = 0.5 * (initial.p2 + initial.p3)
    c_minus = 0.5 * (initial.p2 - initial.p3)
    c1, c2 = initial.rho23.real, initial.rho23.imag
    cos_lt = np.cos(lam * ts)
    sin_lt = np.sin(lam * ts)
    p2_t = c_plus + c_minus * cos_lt - c2 * sin_lt
    p3_t = 1.0 - initial.p1 - p2_t - initial.p4
    rho23_t = c1 + 1j * (c2 * cos_lt + c_minus * sin_lt)
    z = complex(params.kappa, 2.0 * lam)
    w = -1j * lam * ts - _cmul(2j * lam * asq / z, 1.0 - np.exp(-z * ts))
    rho41_t = _cmul(initial.rho14.conjugate(), np.exp(w))
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
    r14(0) * exp(-4*lam^2*|alpha|^2 / (kappa^2 + 4*lam^2))."""
    lam, kap = params.lam, params.kappa
    return initial_r14 * math.exp(-4.0 * lam**2 * params.alpha_sq / (kap**2 + 4.0 * lam**2))


def steady_coherence_as_printed(initial_r14: float, params: TCParams) -> float:
    """Variant with the denominator kappa^2 + (4*lam)^2 instead of
    kappa^2 + (2*lam)^2. It does NOT agree with the long-time limit of
    evolve(); verify reports both numbers so the difference stays visible."""
    lam, kap = params.lam, params.kappa
    return initial_r14 * math.exp(-4.0 * lam**2 * params.alpha_sq / (kap**2 + 16.0 * lam**2))


def trajectory(
    initial: XState,
    params: TCParams,
    t_max: float,
    n_samples: int,
    zero_threshold: float | None = DEFAULT_ZERO_THRESHOLD,
    tol: float = DEFAULT_TOL,
) -> Trajectory:
    """Sample the evolution on a uniform grid over [0, t_max] and attach the
    detected zero-discord events (skipped when zero_threshold is None)."""
    require_valid(initial, tol)
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples!r} must be at least 2")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max = {t_max!r} must be finite and positive")
    times = np.linspace(0.0, t_max, n_samples)
    states = evolve(initial, params, times, tol)
    traj = Trajectory(
        times=times,
        states=states,
        breakdowns=discord(states, tol),
        zero_events=(),
        initial=initial,
        params=params,
    )
    if zero_threshold is None:
        return traj
    return replace(traj, zero_events=tuple(find_zeros(traj, zero_threshold)))


def _golden_min(fn, a: np.ndarray, b: np.ndarray, tol: float):
    """Golden-section minima of fn on the brackets [a_i, b_i], to within tol
    in the argument, all in lockstep: fn maps an array of arguments to an
    array of values, and each step calls it once on the brackets still
    narrowing. Each bracket makes the comparisons a search on it alone would.
    Returns the bracket midpoints and fn there."""
    gr = (1.0 + math.sqrt(5.0)) / 2.0
    a, b = a.copy(), b.copy()
    c = b - (b - a) / gr
    d = a + (b - a) / gr
    fc, fd = np.split(fn(np.concatenate([c, d])), 2)
    active = np.abs(c - d) > tol
    while active.any():
        i = np.flatnonzero(active)
        left = fc[i] < fd[i]
        lo, hi = i[left], i[~left]
        # Minimum left of d: [a, d] is the new bracket, the old c its new d.
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - (b[lo] - a[lo]) / gr
        # Minimum right of c: [c, b] is the new bracket, the old d its new c.
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + (b[hi] - a[hi]) / gr
        f = fn(np.concatenate([c[lo], d[hi]]))
        fc[lo], fd[hi] = f[: lo.size], f[lo.size :]
        active[i] = np.abs(c[i] - d[i]) > tol
    m = 0.5 * (a + b)
    return m, fn(m)


def _crossing(t0, t1, d0, d1, threshold):
    """Linear interpolation of the time where the discord crosses threshold."""
    if d1 == d0:
        return t0
    return t0 + (threshold - d0) * (t1 - t0) / (d1 - d0)


def find_zeros(traj: Trajectory, threshold: float = DEFAULT_ZERO_THRESHOLD) -> list[ZeroEvent]:
    """Locate and classify the below-threshold excursions of the discord.

    Each maximal run of below-threshold samples becomes one event; its minimum
    is refined by golden-section search on discord(evolve(.)) to a time
    resolution of 1e-6, all events together. Kinds: an event whose excursion
    reaches t_max is `asymptotic`; events recurring with near-constant spacing
    (at least three of them, spacing within 25% of their median) are
    `periodic-member`; anything else is `discrete`.

    An event marks an excursion, not a zero: its min_discord may lie anywhere
    below the threshold, so at the default 5e-3 shallow dips of depth ~1e-4
    are reported alongside exact zeros (see ZeroEvent).
    """
    if not math.isfinite(threshold):
        raise ValueError(f"zero threshold {threshold!r} must be finite")
    if len(traj.times) == 0:
        raise ValueError("trajectory is empty")
    times = np.asarray(traj.times, dtype=float)
    disc = np.asarray(traj.breakdowns.discord, dtype=float)
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
        return discord(evolve(traj.initial, traj.params, t)).discord

    wide = hi > lo
    if wide.any():
        t_center[wide], refined[wide] = _golden_min(fn, lo[wide], hi[wide], REFINE_TIME_TOL)

    events = []
    for j, (start, stop) in enumerate(zip(starts, stops)):
        if start == 0:
            t_enter = float(times[0])
        else:
            t_enter = _crossing(times[start - 1], times[start], disc[start - 1], disc[start], threshold)
        reaches_end = stop == n - 1
        if reaches_end:
            t_exit = float(times[-1])
        else:
            t_exit = _crossing(times[stop], times[stop + 1], disc[stop], disc[stop + 1], threshold)
        min_discord = min(float(refined[j]), float(disc[ks[j]]))
        center = min(max(float(t_center[j]), t_enter), t_exit)
        kind = ASYMPTOTIC if reaches_end else DISCRETE
        events.append(ZeroEvent(center, float(t_enter), float(t_exit), min_discord, kind))

    _mark_periodic(events)
    return events


def _mark_periodic(events: list[ZeroEvent]) -> None:
    """Upgrade `discrete` events that recur with near-constant spacing."""
    idx = [i for i, e in enumerate(events) if e.kind == DISCRETE]
    if len(idx) < 3:
        return
    centers = np.array([events[i].t_center for i in idx])
    gaps = np.diff(centers)
    period = float(np.median(gaps))
    if period <= 0.0:
        return
    regular = np.abs(gaps - period) <= 0.25 * period
    for j, i in enumerate(idx):
        left_ok = j > 0 and regular[j - 1]
        right_ok = j < len(gaps) and regular[j]
        if left_ok or right_ok:
            events[i] = replace(events[i], kind=PERIODIC_MEMBER)
