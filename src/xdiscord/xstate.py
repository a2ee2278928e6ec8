"""Two-qubit X-state data model, validity checks, spectra and entropy primitives.

Basis convention, held fixed everywhere: |1> = |g_A g_B>, |2> = |g_A e_B>,
|3> = |e_A g_B>, |4> = |e_A e_B>; the joint index is 2*(A index) + (B index)
with 0 = ground. The only off-diagonal elements are the anti-diagonal
coherences rho14 and rho23, stored as (magnitude, phase) pairs. All entropies
are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default numerical tolerance for physicality checks. States produced by the
#: analytic propagator sit exactly on the positivity boundary for several
#: benchmark inputs, so equality must pass.
DEFAULT_TOL = 1e-12

TWO_PI = 2.0 * math.pi


class InvalidStateError(ValueError):
    """Raised when an operation receives a state that fails validation."""


def _wrap_phase(phi: float) -> float:
    if not math.isfinite(phi):
        return phi
    phi = math.fmod(phi, TWO_PI)
    return phi + TWO_PI if phi < 0.0 else phi


@dataclass(frozen=True)
class XState:
    """X-form two-qubit density matrix: four populations plus two anti-diagonal
    coherences rho14 = r14*exp(i*phi1) and rho23 = r23*exp(i*phi2).

    Negative magnitudes are folded into the phase; finite phases are
    normalized to [0, 2*pi), and a non-finite one is kept for validate to
    refuse. Physicality (trace, positivity of the two 2x2 blocks) is not
    enforced by the constructor; use :func:`validate` / :func:`require_valid`.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    r14: float = 0.0
    phi1: float = 0.0
    r23: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p4"):
            object.__setattr__(self, name, float(getattr(self, name)))
        r14, phi1 = self.r14, self.phi1
        r23, phi2 = self.r23, self.phi2
        if r14 < 0.0:
            r14, phi1 = -r14, phi1 + math.pi
        if r23 < 0.0:
            r23, phi2 = -r23, phi2 + math.pi
        object.__setattr__(self, "r14", float(r14))
        object.__setattr__(self, "r23", float(r23))
        object.__setattr__(self, "phi1", _wrap_phase(float(phi1)))
        object.__setattr__(self, "phi2", _wrap_phase(float(phi2)))

    @classmethod
    def from_coherences(cls, p1, p2, p3, p4, rho14=0j, rho23=0j) -> "XState":
        """Build from complex coherence values instead of (magnitude, phase)."""
        rho14 = complex(rho14)
        rho23 = complex(rho23)
        return cls(
            p1=float(p1),
            p2=float(p2),
            p3=float(p3),
            p4=float(p4),
            r14=abs(rho14),
            phi1=math.atan2(rho14.imag, rho14.real) if rho14 != 0 else 0.0,
            r23=abs(rho23),
            phi2=math.atan2(rho23.imag, rho23.real) if rho23 != 0 else 0.0,
        )

    @property
    def populations(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)

    @property
    def rho14(self) -> complex:
        return self.r14 * complex(math.cos(self.phi1), math.sin(self.phi1))

    @property
    def rho23(self) -> complex:
        return self.r23 * complex(math.cos(self.phi2), math.sin(self.phi2))

    def to_matrix(self) -> np.ndarray:
        """Dense 4x4 density matrix in the fixed |gg>,|ge>,|eg>,|ee> basis."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.populations
        m[0, 3] = self.rho14
        m[3, 0] = np.conj(m[0, 3])
        m[1, 2] = self.rho23
        m[2, 1] = np.conj(m[1, 2])
        return m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a physicality check: empty `violations` means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


#: The eight fields of an X state, in XState order.
FIELDS = ("p1", "p2", "p3", "p4", "r14", "phi1", "r23", "phi2")


@dataclass(frozen=True)
class XColumns:
    """A batch of X states as columns: each field of XState is a float array,
    all of one length. Row i is one state; magnitudes are nonnegative and
    phases lie in [0, 2*pi), as in XState. Physicality is checked by
    :func:`require_valid`, not by the constructor."""

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    r14: np.ndarray
    phi1: np.ndarray
    r23: np.ndarray
    phi2: np.ndarray

    @classmethod
    def from_states(cls, states) -> "XColumns":
        rows = np.array([[getattr(s, f) for f in FIELDS] for s in states], dtype=float)
        return cls(*rows.reshape(-1, len(FIELDS)).T)

    @classmethod
    def from_coherences(cls, p1, p2, p3, p4, rho14, rho23) -> "XColumns":
        """Build from population arrays and complex coherence arrays."""
        return cls(p1, p2, p3, p4, _abs(rho14), _angle(rho14), _abs(rho23), _angle(rho23))

    def __len__(self) -> int:
        return len(self.p1)

    def row(self, i: int) -> XState:
        return XState(*(getattr(self, f).item(i) for f in FIELDS))


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| rounded as abs(complex) rounds it; np.abs may differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _angle(z: np.ndarray) -> np.ndarray:
    """Phase of z wrapped to [0, 2*pi); 0 for z = 0."""
    phi = np.arctan2(z.imag, z.real)
    return np.where(phi < 0.0, phi + TWO_PI, phi)


def _checks(c: XColumns, tol: float):
    """The physicality predicates, elementwise over a batch: pairs of
    (rows that fail, message for row i). Finiteness comes first; a row with a
    non-finite field fails that check alone."""
    trace = c.p1 + c.p2 + c.p3 + c.p4
    # A NaN or infinite field makes this sum non-finite.
    finite = np.isfinite(trace + c.r14 + c.phi1 + c.r23 + c.phi2)
    with np.errstate(invalid="ignore", over="ignore"):
        outer, inner = c.p1 * c.p4, c.p2 * c.p3
        r14_sq, r23_sq = c.r14**2, c.r23**2
    checks = [
        (~finite, lambda i: f"non-finite field in {c.row(i)!r}"),
        (
            finite & (np.abs(trace - 1.0) > tol),
            lambda i: f"trace {trace.item(i)!r} differs from 1 by more than {tol}",
        ),
    ]
    for name in ("p1", "p2", "p3", "p4"):
        p = getattr(c, name)
        checks.append(
            (
                finite & (p < -tol),
                lambda i, name=name, p=p: f"population {name} = {p.item(i)!r} is negative",
            )
        )
    checks.append(
        (
            finite & (outer < r14_sq - tol),
            lambda i: f"outer block not positive: p1*p4 = {outer.item(i)!r} "
            f"< r14^2 = {r14_sq.item(i)!r}",
        )
    )
    checks.append(
        (
            finite & (inner < r23_sq - tol),
            lambda i: f"inner block not positive: p2*p3 = {inner.item(i)!r} "
            f"< r23^2 = {r23_sq.item(i)!r}",
        )
    )
    return checks


def validate(state: XState, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check that every field is finite, then trace normalization, population
    positivity and positivity of the outer (1,4) and inner (2,3) coherence
    blocks, each within `tol`."""
    checks = _checks(XColumns.from_states([state]), tol)
    return ValidationReport(tuple(message(0) for failed, message in checks if failed[0]))


def require_valid(state, tol: float = DEFAULT_TOL) -> None:
    """Raise InvalidStateError unless every row passes the checks of
    :func:`validate`. For an XState the message lists its violations; for an
    XColumns batch it also names the first failing row and the number that
    fail."""
    batch = isinstance(state, XColumns)
    c = state if batch else XColumns.from_states([state])
    checks = _checks(c, tol)
    bad = np.zeros(len(c), dtype=bool)
    for failed, _ in checks:
        bad |= failed
    if bad.any():
        i = int(np.argmax(bad))
        violations = "; ".join(message(i) for failed, message in checks if failed[i])
        if batch:
            violations = f"row {i} of {len(c)} ({int(bad.sum())} invalid): {violations}"
        raise InvalidStateError(violations)


def eigenvalues(state, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Spectrum of the X matrix from its two 2x2 blocks, sorted descending.

    Each block contributes (mean of its populations) +- the block radius.
    Tiny negative values (boundary states under roundoff) are clamped to 0.
    An XState gives 4 values; an XColumns batch gives shape (n, 4), one
    validated spectrum per row.
    """
    require_valid(state, tol)
    c = state if isinstance(state, XColumns) else XColumns.from_states([state])
    outer_mid = 0.5 * (c.p1 + c.p4)
    outer_rad = np.hypot(0.5 * (c.p1 - c.p4), c.r14)
    inner_mid = 0.5 * (c.p2 + c.p3)
    inner_rad = np.hypot(0.5 * (c.p2 - c.p3), c.r23)
    vals = np.stack(
        [
            outer_mid + outer_rad,
            outer_mid - outer_rad,
            inner_mid + inner_rad,
            inner_mid - inner_rad,
        ],
        axis=-1,
    )
    vals[(vals < 0.0) & (vals > -tol)] = 0.0
    vals = np.sort(vals, axis=-1)[..., ::-1]
    return vals if isinstance(state, XColumns) else vals[0]


def plogp(p) -> np.ndarray:
    """Elementwise entropy terms -p*log2(p), with 0 where p <= 0."""
    p = np.asarray(p, dtype=float)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    logs *= p
    return np.negative(logs, out=logs)


def entropy_bits(probabilities, tol: float = DEFAULT_TOL):
    """Shannon entropy -sum p*log2(p) with 0*log(0) = 0, over the last axis:
    a float for one distribution, an array for a stack of them.

    Entries may be any probability-like list (state spectra, marginals).
    Negative entries beyond `tol` are rejected; tiny negatives are clamped.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size and p.min() < -tol:
        raise ValueError(f"negative probability {p.min()!r} beyond tolerance {tol}")
    h = plogp(p).sum(axis=-1)
    return float(h) if h.ndim == 0 else h
