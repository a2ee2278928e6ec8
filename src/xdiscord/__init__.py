"""Quantum discord of two-qubit X states, zero-discord classification, and
dispersive two-atom cavity dynamics with a truncated-Fock master-equation
cross-check."""

from .discord import (
    COHERENCE_FREE,
    DEGENERATE_BALANCED,
    NOT_NULL,
    BreakdownColumns,
    DiscordBreakdown,
    MeasurementBasis,
    NullityVerdict,
    build_chi_m1,
    build_chi_m2,
    cond_entropy_basis,
    discord,
    discord_numeric,
    minimize_numeric,
    nullity_check,
)
from .dynamics import (
    ASYMPTOTIC,
    DEFAULT_ZERO_THRESHOLD,
    DISCRETE,
    PERIODIC_MEMBER,
    DispersiveRegimeWarning,
    TCParams,
    Trajectory,
    ZeroEvent,
    evolve,
    find_zeros,
    lambda_from_g_delta,
    steady_coherence,
    steady_coherence_as_printed,
    trajectory,
)
from .oracle import (
    CompareReport,
    FockTruncation,
    IntegrationResult,
    build_hamiltonian,
    coherent_vector,
    compare,
    integrate,
    joint_initial,
    poisson_tail,
    trace_out_field,
)
from .presets import PRESETS, ConfigError, RunConfig, config_from_json, preset_config
from .sampling import random_coherence_free, random_degenerate_balanced, random_xstate
from .xstate import (
    DEFAULT_TOL,
    InvalidStateError,
    ValidationReport,
    XColumns,
    XState,
    entropy_bits,
    eigenvalues,
    require_valid,
    validate,
)

__version__ = "0.1.0"
