"""Run configuration schema and the bundled example scenarios.

A RunConfig is a single JSON document; every field can also be overridden by
a CLI flag. Coherences are given as (magnitude, phase) with phases defaulting
to 0, so scenario definitions that quote only magnitudes map directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dynamics import DEFAULT_ZERO_THRESHOLD, TCParams
from .xstate import XState


#: Largest time grid a run may ask for, from --samples, a config's n_samples
#: or verify's oracle grid; a larger one is refused before it is allocated.
MAX_SAMPLES = 10**6

#: JSON key of each TCParams field, in the order a config lists them.
PARAM_KEYS = {"lambda": "lam", "kappa": "kappa", "alpha_sq": "alpha_sq"}

#: The XState coherence fields a state's JSON object may give; an omitted one
#: takes XState's default of 0.
COHERENCE_KEYS = ("r14", "phi1", "r23", "phi2")


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
        if not math.isfinite(self.t_max):
            raise ConfigError(f"t_max = {self.t_max!r} must be finite")
        threshold = self.zero_threshold
        if not (math.isfinite(threshold) and threshold > 0.0):
            raise ConfigError(f"zero_threshold = {threshold!r} must be finite and positive")
        if self.n_samples > MAX_SAMPLES:
            raise ConfigError(f"n_samples = {self.n_samples!r} exceeds {MAX_SAMPLES}")

    def to_dict(self) -> dict:
        return {
            "initial": state_to_dict(self.initial),
            "params": {key: getattr(self.params, attr) for key, attr in PARAM_KEYS.items()},
            "grid": {"t_max": self.t_max, "n_samples": self.n_samples},
            "zero_threshold": self.zero_threshold,
        }


def _known_keys(mapping, keys, context):
    """Refuse a key outside keys, which would otherwise be silently ignored."""
    unknown = sorted(set(mapping) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown key {', '.join(map(repr, unknown))} in {context}; known: {', '.join(keys)}"
        )


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {context}")
    return mapping[key]


def _number(value, name: str) -> float:
    """float(value) of a JSON number. A boolean, which float() would read as
    0 or 1, and a numeric string are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} = {value!r} is not a number")
    return float(value)


def state_to_dict(state: XState) -> dict:
    coherences = {key: getattr(state, key) for key in COHERENCE_KEYS}
    return {"populations": list(state.populations), **coherences}


def state_from_dict(d) -> XState:
    if not isinstance(d, dict):
        raise ConfigError("state must be a JSON object")
    _known_keys(d, ("populations",) + COHERENCE_KEYS, "state")
    pops = _require(d, "populations", "state")
    if not isinstance(pops, (list, tuple)) or len(pops) != 4:
        raise ConfigError("state populations must be a list of four numbers")
    try:
        return XState(
            *(_number(p, "population") for p in pops),
            **{key: _number(d[key], key) for key in COHERENCE_KEYS if key in d},
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad state value: {exc}") from exc


def config_from_dict(d) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys(d, ("initial", "params", "grid", "zero_threshold"), "config")
    initial = state_from_dict(_require(d, "initial", "config"))
    pd = d.get("params", {})
    if not isinstance(pd, dict):
        raise ConfigError("params must be a JSON object")
    _known_keys(pd, PARAM_KEYS, "params")
    try:
        params = TCParams(
            **{attr: _number(pd[key], key) for key, attr in PARAM_KEYS.items() if key in pd}
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params value: {exc}") from exc
    gd = d.get("grid", {})
    if not isinstance(gd, dict):
        raise ConfigError("grid must be a JSON object")
    _known_keys(gd, ("t_max", "n_samples"), "grid")
    try:
        t_max = _number(gd.get("t_max", 30.0), "t_max")
        n_samples = _number(gd.get("n_samples", 3001), "n_samples")
        if not n_samples.is_integer():
            raise ValueError(f"n_samples = {n_samples!r} is not an integer")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad grid value: {exc}") from exc
    try:
        threshold = _number(d.get("zero_threshold", DEFAULT_ZERO_THRESHOLD), "zero_threshold")
    except ValueError as exc:
        raise ConfigError(f"bad zero_threshold value: {exc}") from exc
    return RunConfig(
        initial=initial,
        params=params,
        t_max=t_max,
        n_samples=int(n_samples),
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
