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
    c_m1,
    c_m2,
    concurrence,
    cond_entropy_basis,
    discord,
    discord_numeric,
    minimize_numeric,
    mutual_information,
    nullity_check,
    upsilon,
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
    QubitMarginal,
    ValidationReport,
    XColumns,
    XState,
    entropy_bits,
    eigenvalues,
    marginal_a,
    marginal_b,
    validate,
    validate_columns,
)

__version__ = "0.1.0"
