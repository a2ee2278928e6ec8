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

#: Numerical tolerance of every physicality check. States produced by the
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
    normalized to [0, 2*pi), and a non-finite one is kept for require_valid
    to refuse. Physicality (trace, positivity of the two 2x2 blocks) is not
    enforced by the constructor; use :func:`require_valid`.
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


def _predicates(p1, p2, p3, p4, r14, phi1, r23, phi2):
    """The physicality checks as pass values, elementwise on the fields as
    floats or as arrays: every field finite, the trace within DEFAULT_TOL of
    1, p1..p4 at least -DEFAULT_TOL, and the outer and the inner block plus
    DEFAULT_TOL times the identity positive semidefinite. Given the
    population checks, a block check holds exactly when the block's smaller
    eigenvalue is at least -DEFAULT_TOL. A NaN fails every inequality."""
    trace = p1 + p2 + p3 + p4
    total = trace + r14 + phi1 + r23 + phi2  # NaN or infinite if any field is
    return (
        total - total == 0.0,
        abs(trace - 1.0) <= DEFAULT_TOL,
        p1 >= -DEFAULT_TOL,
        p2 >= -DEFAULT_TOL,
        p3 >= -DEFAULT_TOL,
        p4 >= -DEFAULT_TOL,
        (p1 + DEFAULT_TOL) * (p4 + DEFAULT_TOL) >= r14 * r14,
        (p2 + DEFAULT_TOL) * (p3 + DEFAULT_TOL) >= r23 * r23,
    )


def _batch_passes(p1, p2, p3, p4, r14, phi1, r23, phi2):
    """The conjunction of _predicates on a batch's arrays, in fewer passes.
    A non-finite population fails the trace check. Once the trace and the
    populations pass, a non-finite or overflowing magnitude fails its block
    check, and the populations and magnitudes add at most about 3 to the
    sum that checks finiteness, too little to change whether the phases'
    sum overflows: so only the phases need a finiteness check of their own.
    A population passes as p + DEFAULT_TOL >= 0, the factor of its block
    check, which holds exactly when p >= -DEFAULT_TOL."""
    q1, q2, q3, q4 = p1 + DEFAULT_TOL, p2 + DEFAULT_TOL, p3 + DEFAULT_TOL, p4 + DEFAULT_TOL
    phases = phi1 + phi2
    ok = abs(p1 + p2 + p3 + p4 - 1.0) <= DEFAULT_TOL
    ok &= np.minimum(np.minimum(q1, q2), np.minimum(q3, q4)) >= 0.0
    ok &= q1 * q4 >= r14 * r14
    ok &= q2 * q3 >= r23 * r23
    ok &= phases - phases == 0.0
    return ok


def _violations(row) -> str:
    """The failed checks of one invalid row of field floats, as a message:
    the finiteness check alone when a field is not finite."""
    p1, p2, p3, p4, r14, _, r23, _ = row
    passed = _predicates(*row)
    if not passed[0]:
        return f"non-finite field in {XState(*row)!r}"
    trace = p1 + p2 + p3 + p4
    messages = [f"trace {trace!r} differs from 1 by more than {DEFAULT_TOL}"]
    messages += [f"population {f} = {p!r} is negative" for f, p in zip(FIELDS, row[:4])]
    tol = DEFAULT_TOL
    outer, inner = (p1 + tol) * (p4 + tol), (p2 + tol) * (p3 + tol)
    messages += [
        f"outer block has an eigenvalue below -{tol}: "
        f"(p1 + {tol})*(p4 + {tol}) = {outer!r} < r14^2 = {r14 * r14!r}",
        f"inner block has an eigenvalue below -{tol}: "
        f"(p2 + {tol})*(p3 + {tol}) = {inner!r} < r23^2 = {r23 * r23!r}",
    ]
    return "; ".join(m for m, ok in zip(messages, passed[1:]) if not ok)


def require_valid(state) -> None:
    """Raise InvalidStateError unless every field is finite and the trace,
    the populations and the outer (1,4) and inner (2,3) coherence blocks are
    physical, each within DEFAULT_TOL. The checks run as one conjunction,
    _predicates on an XState's floats or _batch_passes on an XColumns
    batch's arrays; messages are formed only on failure. For an XState the
    message lists its violations; for a batch it also names the first
    failing row and the number that fail."""
    fields = [getattr(state, f) for f in FIELDS]
    if not isinstance(state, XColumns):
        if not all(_predicates(*fields)):
            raise InvalidStateError(_violations(fields))
        return
    with np.errstate(over="ignore", invalid="ignore"):
        ok = _batch_passes(*fields)
    if not ok.all():
        i = int(np.argmin(ok))
        n_bad = len(state) - int(np.count_nonzero(ok))
        row = [x.item(i) for x in fields]
        raise InvalidStateError(f"row {i} of {len(state)} ({n_bad} invalid): {_violations(row)}")


def eigenvalues(state) -> np.ndarray:
    """Spectrum of the X matrix from its two 2x2 blocks, sorted descending.

    Each block contributes (mean of its populations) +- the block radius, a
    pair already in order, so the four values are ordered by merging the two
    pairs. The state is validated first, and every negative value is then
    clamped to 0: a validated block's smaller eigenvalue can still round to
    just below -DEFAULT_TOL. An XState gives 4 values; an XColumns batch
    gives shape (n, 4), one spectrum per row. The batch is stored column by
    column, so a reduction over each spectrum (entropy_bits) runs along the
    rows, in the order a row-by-row sum takes.
    """
    require_valid(state)
    c = state if isinstance(state, XColumns) else XColumns.from_states([state])
    vals = _spectrum(c)
    return vals if isinstance(state, XColumns) else vals[0]


def _spectrum(c: XColumns) -> np.ndarray:
    """eigenvalues of a batch without its validation: the (n, 4) spectra,
    stored column by column, negatives clamped to 0."""
    outer_mid = 0.5 * (c.p1 + c.p4)
    outer_rad = np.hypot(0.5 * (c.p1 - c.p4), c.r14)
    inner_mid = 0.5 * (c.p2 + c.p3)
    inner_rad = np.hypot(0.5 * (c.p2 - c.p3), c.r23)
    outer_hi, outer_lo = outer_mid + outer_rad, outer_mid - outer_rad
    inner_hi, inner_lo = inner_mid + inner_rad, inner_mid - inner_rad
    # the middle two values are the smaller top and the larger bottom
    top, bottom = np.minimum(outer_hi, inner_hi), np.maximum(outer_lo, inner_lo)
    columns = np.empty((4, len(c)))
    np.maximum(outer_hi, inner_hi, out=columns[0])
    np.maximum(top, bottom, out=columns[1])
    np.minimum(top, bottom, out=columns[2])
    np.minimum(outer_lo, inner_lo, out=columns[3])
    np.maximum(columns, 0.0, out=columns)
    return columns.T


#: The smallest positive normal double. Adding it keeps log2 finite at 0 and
#: leaves every x above about 1e-292 unchanged.
_TINY = 2.2250738585072014e-308


def _xlog2x(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x*log2(x) into `out`, 0 where x <= 0, with no floating-point warning:
    the library's one x*log2(x). x is clamped at 0 in place. Below 1e-292 the product is off by at most
    _TINY/ln 2."""
    np.maximum(x, 0.0, out=x)
    np.add(x, _TINY, out=out)
    np.log2(out, out=out)
    out *= x
    return out


def entropy_bits(probabilities):
    """Shannon entropy -sum p*log2(p) with 0*log(0) = 0, over the last axis:
    a float for one distribution, an array for a stack of them.

    Entries may be any probability-like list (state spectra, marginals).
    Negative entries beyond DEFAULT_TOL are rejected; smaller ones count as 0.
    A NaN or infinite entry makes its entropy non-finite and is rejected.
    """
    p = np.array(probabilities, dtype=float)  # a copy, which _xlog2x clamps
    if p.size and p.min() < -DEFAULT_TOL:
        raise ValueError(f"negative probability {float(p.min())!r} beyond tolerance {DEFAULT_TOL}")
    h = _entropy(p)
    if not np.isfinite(h).all():
        raise ValueError("probabilities must be finite")
    return float(h) if h.ndim == 0 else h


def _entropy(p: np.ndarray) -> np.ndarray:
    """entropy_bits without its checks, clamping p in place."""
    # 0 - sum, not -sum: an entropy of 0 reads +0.0, not -0.0
    return 0.0 - _xlog2x(p, np.empty_like(p)).sum(axis=-1)
