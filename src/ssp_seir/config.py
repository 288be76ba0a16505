"""Flat key=value experiment configuration.

Plain text with ``#`` comments, one ``key=value`` per line; unknown keys are
rejected and every key must be present (start from
:data:`DEFAULT_CONFIG_TEXT` when writing a custom file).  The defaults are
the published experiment values, so the CLI runs with no arguments.
"""

import math
from pathlib import Path

from .model import (
    ModelParams,
    ProblemSetup,
    State,
    _Value,
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

class ExperimentConfig(_Value):
    """The values of a config file, one field per key.

    The constructor checks nothing: :func:`parse_config` checks the text, and
    :meth:`params` and :meth:`setup` check what they build, so a copy made by
    ``_replace`` with a bad rate fails there.
    """

    __slots__ = (
        "mu", "sigma", "gamma", "delta", "incidence", "nu", "eta", "c1", "c2", "k",
        "recruitments", "kappa", "s0", "e0", "i0", "r0", "tf", "methods", "bisect_tol",
    )

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


_LIST_KEYS = ("recruitments", "methods")
_STR_KEYS = ("incidence",)
_FLOAT_KEYS = tuple(key for key in ExperimentConfig.__slots__ if key not in _LIST_KEYS + _STR_KEYS)


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
        if key not in ExperimentConfig.__slots__:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [key for key in ExperimentConfig.__slots__ if key not in raw]
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
    return ExperimentConfig(*map(values.__getitem__, ExperimentConfig.__slots__))


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Config from a file, or the embedded defaults when no path is given."""
    if path is None:
        return parse_config(DEFAULT_CONFIG_TEXT)
    return parse_config(Path(path).read_text())
