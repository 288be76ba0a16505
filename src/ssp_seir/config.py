"""Flat key=value experiment configuration.

Plain text with ``#`` comments, one ``key=value`` per line; unknown keys are
rejected and every key must be present (start from
:data:`DEFAULT_CONFIG_TEXT` when writing a custom file).  The defaults are
the published experiment values, so the CLI runs with no arguments.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .model import (
    ModelParams,
    ProblemSetup,
    State,
    incidence_from_key,
    recruitment_from_key,
)

__all__ = ["ConfigError", "ExperimentConfig", "DEFAULT_CONFIG_TEXT", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Malformed configuration input."""


DEFAULT_CONFIG_TEXT = """\
# SEIR SSP experiment configuration: the published rates and the trajectory
# initial state; the published threshold table starts from s0=0.7 e0=0.1
mu=0.05
sigma=0.25
gamma=0.1867
delta=0.011
# incidence: linear | holling | media | media-exp
incidence=media
nu=0.0115
eta=0.001
c1=1.0
c2=1.0
k=2.0
# recruitment choices used by bounds-table (comma separated catalog keys)
recruitments=choiceA,choiceB,choiceC
kappa=0.05
s0=0.2
e0=0.6
i0=0.2
r0=0.0
tf=1000.0
methods=euler,ssprk22,ssprk33,ssprk104
bisect_tol=1e-4
"""

_FLOAT_KEYS = (
    "mu", "sigma", "gamma", "delta", "nu", "eta", "c1", "c2", "k",
    "kappa", "s0", "e0", "i0", "r0", "tf", "bisect_tol",
)
_LIST_KEYS = ("recruitments", "methods")
_STR_KEYS = ("incidence",)
_ALL_KEYS = _FLOAT_KEYS + _LIST_KEYS + _STR_KEYS


class ExperimentConfig(NamedTuple):
    mu: float
    sigma: float
    gamma: float
    delta: float
    incidence: str
    nu: float
    eta: float
    c1: float
    c2: float
    k: float
    recruitments: tuple[str, ...]
    kappa: float
    s0: float
    e0: float
    i0: float
    r0: float
    tf: float
    methods: tuple[str, ...]
    bisect_tol: float

    def params(self) -> ModelParams:
        return ModelParams(self.mu, self.sigma, self.gamma, self.delta)

    def setup(self, recruitment_key: str) -> ProblemSetup:
        return ProblemSetup(
            self.params(),
            incidence_from_key(
                self.incidence, nu=self.nu, eta=self.eta, c1=self.c1, c2=self.c2, k=self.k
            ),
            recruitment_from_key(recruitment_key, kappa=self.kappa),
            State(self.s0, self.e0, self.i0, self.r0, t=0.0),
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value text; every key required, unknown keys rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [key for key in _ALL_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(sorted(missing))}")
    values: dict[str, object] = {}
    for key in _FLOAT_KEYS:
        try:
            values[key] = float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"key {key}: not a number: {raw[key]!r}") from exc
    for key in ("tf", "bisect_tol"):
        if not (math.isfinite(values[key]) and values[key] > 0.0):
            raise ConfigError(f"key {key}: must be finite and positive, got {raw[key]!r}")
    # the positivity results assume non-negative initial data
    for key in ("s0", "e0", "i0", "r0"):
        if not (math.isfinite(values[key]) and values[key] >= 0.0):
            raise ConfigError(f"key {key}: must be finite and non-negative, got {raw[key]!r}")
    for key in _LIST_KEYS:
        items = tuple(item.strip() for item in raw[key].split(",") if item.strip())
        if not items:
            raise ConfigError(f"key {key}: empty list")
        values[key] = items
    for key in _STR_KEYS:
        values[key] = raw[key]
    return ExperimentConfig(**values)  # type: ignore[arg-type]


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Config from a file, or the embedded defaults when no path is given."""
    if path is None:
        return parse_config(DEFAULT_CONFIG_TEXT)
    return parse_config(Path(path).read_text())
