"""Run configuration schema and the bundled example scenarios.

A RunConfig is a single JSON document; every field can also be overridden by
a CLI flag. Coherences are given as (magnitude, phase) with phases defaulting
to 0, so scenario definitions that quote only magnitudes map directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .dynamics import DEFAULT_ZERO_THRESHOLD, TCParams
from .xstate import XState


class ConfigError(ValueError):
    """Malformed or unparseable configuration input."""


@dataclass(frozen=True)
class RunConfig:
    initial: XState
    params: TCParams
    t_max: float
    n_samples: int
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD

    def __post_init__(self):
        for name in ("t_max", "zero_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} = {value!r} must be finite")

    def to_dict(self) -> dict:
        return {
            "initial": state_to_dict(self.initial),
            "params": {
                "lambda": self.params.lam,
                "kappa": self.params.kappa,
                "alpha_sq": self.params.alpha_sq,
            },
            "grid": {"t_max": self.t_max, "n_samples": self.n_samples},
            "zero_threshold": self.zero_threshold,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {context}")
    return mapping[key]


def state_to_dict(state: XState) -> dict:
    return {
        "populations": list(state.populations),
        "r14": state.r14,
        "phi1": state.phi1,
        "r23": state.r23,
        "phi2": state.phi2,
    }


def state_from_dict(d) -> XState:
    if not isinstance(d, dict):
        raise ConfigError("state must be a JSON object")
    pops = _require(d, "populations", "state")
    if not isinstance(pops, (list, tuple)) or len(pops) != 4:
        raise ConfigError("state populations must be a list of four numbers")
    try:
        return XState(
            *(float(p) for p in pops),
            r14=float(d.get("r14", 0.0)),
            phi1=float(d.get("phi1", 0.0)),
            r23=float(d.get("r23", 0.0)),
            phi2=float(d.get("phi2", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad state value: {exc}") from exc


def config_from_dict(d) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    initial = state_from_dict(_require(d, "initial", "config"))
    pd = d.get("params", {})
    if not isinstance(pd, dict):
        raise ConfigError("params must be a JSON object")
    try:
        params = TCParams(
            lam=float(pd.get("lambda", 1.0)),
            kappa=float(pd.get("kappa", 0.0)),
            alpha_sq=float(pd.get("alpha_sq", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params value: {exc}") from exc
    gd = d.get("grid", {})
    if not isinstance(gd, dict):
        raise ConfigError("grid must be a JSON object")
    try:
        t_max = float(gd.get("t_max", 30.0))
        n_samples = int(gd.get("n_samples", 3001))
        threshold = float(d.get("zero_threshold", DEFAULT_ZERO_THRESHOLD))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid value: {exc}") from exc
    return RunConfig(
        initial=initial,
        params=params,
        t_max=t_max,
        n_samples=n_samples,
        zero_threshold=threshold,
    )


def config_from_json(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def _fig12_initial() -> XState:
    return XState(0.25, 3.0 / 16.0, 5.0 / 16.0, 0.25, r14=0.25, r23=0.05)


PRESETS: dict[str, RunConfig] = {
    # Weakly damped cavity, moderate field: a single exact discord zero.
    "fig1": RunConfig(
        initial=_fig12_initial(),
        params=TCParams(lam=1.0, kappa=0.05, alpha_sq=0.5922),
        t_max=30.0,
        n_samples=3001,
    ),
    # Strong damping: no early zero, near-zeros recur at later times.
    "fig2": RunConfig(
        initial=_fig12_initial(),
        params=TCParams(lam=1.0, kappa=0.25, alpha_sq=1.1434),
        t_max=30.0,
        n_samples=3001,
    ),
    # Unentangled uniform-population state: discord dies out asymptotically.
    "fig3-separable": RunConfig(
        initial=XState(0.25, 0.25, 0.25, 0.25, r14=0.2, r23=0.0736),
        params=TCParams(lam=1.0, kappa=0.05, alpha_sq=1.0),
        t_max=300.0,
        n_samples=3001,
    ),
    # Entangled initial state: the discord never vanishes.
    "fig3-entangled": RunConfig(
        initial=XState(0.4, 0.1, 0.1, 0.4, r14=0.4, r23=0.05),
        params=TCParams(lam=1.0, kappa=0.05, alpha_sq=1.0),
        t_max=50.0,
        n_samples=2001,
    ),
}


def preset_config(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def apply_overrides(config: RunConfig, t_max=None, n_samples=None, zero_threshold=None) -> RunConfig:
    """Flag-level overrides on top of a preset or config file."""
    updates = {}
    if t_max is not None:
        updates["t_max"] = float(t_max)
    if n_samples is not None:
        updates["n_samples"] = int(n_samples)
    if zero_threshold is not None:
        updates["zero_threshold"] = float(zero_threshold)
    return replace(config, **updates) if updates else config
