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
    phi = math.fmod(phi, TWO_PI)
    return phi + TWO_PI if phi < 0.0 else phi


@dataclass(frozen=True)
class XState:
    """X-form two-qubit density matrix: four populations plus two anti-diagonal
    coherences rho14 = r14*exp(i*phi1) and rho23 = r23*exp(i*phi2).

    Negative magnitudes are folded into the phase; phases are normalized to
    [0, 2*pi). Physicality (trace, positivity of the two 2x2 blocks) is not
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
class QubitMarginal:
    """Reduced single-qubit state, diagonal in the (ground, excited) basis."""

    p_ground: float
    p_excited: float

    @property
    def probabilities(self) -> tuple[float, float]:
        return (self.p_ground, self.p_excited)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a physicality check: empty `violations` means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate(state: XState, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check that every field is finite, then trace normalization, population
    positivity and positivity of the outer (1,4) and inner (2,3) coherence
    blocks, each within `tol`."""
    trace = state.p1 + state.p2 + state.p3 + state.p4
    # A NaN or infinite field makes this sum non-finite.
    if not math.isfinite(trace + state.r14 + state.phi1 + state.r23 + state.phi2):
        return ValidationReport((f"non-finite field in {state!r}",))
    v = []
    if abs(trace - 1.0) > tol:
        v.append(f"trace {trace!r} differs from 1 by more than {tol}")
    for name, p in zip(("p1", "p2", "p3", "p4"), state.populations):
        if p < -tol:
            v.append(f"population {name} = {p!r} is negative")
    if state.p1 * state.p4 < state.r14**2 - tol:
        v.append(
            f"outer block not positive: p1*p4 = {state.p1 * state.p4!r} "
            f"< r14^2 = {state.r14**2!r}"
        )
    if state.p2 * state.p3 < state.r23**2 - tol:
        v.append(
            f"inner block not positive: p2*p3 = {state.p2 * state.p3!r} "
            f"< r23^2 = {state.r23**2!r}"
        )
    return ValidationReport(tuple(v))


def require_valid(state: XState, tol: float = DEFAULT_TOL) -> None:
    report = validate(state, tol)
    if not report.ok:
        raise InvalidStateError("; ".join(report.violations))


def eigenvalues(state: XState, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Spectrum of the X matrix from its two 2x2 blocks, sorted descending.

    Each block contributes (mean of its populations) +- the block radius.
    Tiny negative values (boundary states under roundoff) are clamped to 0.
    """
    require_valid(state, tol)
    outer_mid = 0.5 * (state.p1 + state.p4)
    outer_rad = math.hypot(0.5 * (state.p1 - state.p4), state.r14)
    inner_mid = 0.5 * (state.p2 + state.p3)
    inner_rad = math.hypot(0.5 * (state.p2 - state.p3), state.r23)
    vals = np.array(
        [
            outer_mid + outer_rad,
            outer_mid - outer_rad,
            inner_mid + inner_rad,
            inner_mid - inner_rad,
        ]
    )
    vals[(vals < 0.0) & (vals > -tol)] = 0.0
    return np.sort(vals)[::-1]


def entropy_bits(probabilities, tol: float = DEFAULT_TOL) -> float:
    """Shannon entropy -sum p*log2(p) with 0*log(0) = 0.

    Entries may be any probability-like list (state spectra, marginals).
    Negative entries beyond `tol` are rejected; tiny negatives are clamped.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size and p.min() < -tol:
        raise ValueError(f"negative probability {p.min()!r} beyond tolerance {tol}")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def marginal_a(state: XState, tol: float = DEFAULT_TOL) -> QubitMarginal:
    """Reduced state of qubit A; the X coherences never enter."""
    require_valid(state, tol)
    return QubitMarginal(state.p1 + state.p2, state.p3 + state.p4)


def marginal_b(state: XState, tol: float = DEFAULT_TOL) -> QubitMarginal:
    """Reduced state of qubit B; the X coherences never enter."""
    require_valid(state, tol)
    return QubitMarginal(state.p1 + state.p3, state.p2 + state.p4)


def mutual_information(state: XState, tol: float = DEFAULT_TOL) -> float:
    """S(A) + S(B) - S(AB) in bits."""
    s_a = entropy_bits(marginal_a(state, tol).probabilities)
    s_b = entropy_bits(marginal_b(state, tol).probabilities)
    s_ab = entropy_bits(eigenvalues(state, tol))
    return s_a + s_b - s_ab
