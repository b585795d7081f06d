"""Run configuration: `key = value` text with `#` comments.

The format is deliberately minimal so configs diff cleanly in tests and
can be written by hand.  Unknown keys and malformed or non-finite values
are rejected with the offending key and line number.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Union, get_type_hints

from .model import SwarmParams

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """Raised for unknown keys, malformed or non-finite values, or invariant
    violations, including those of a RunConfig rebuilt with overrides."""


@dataclass(frozen=True)
class RunConfig:
    M: int
    drone_value: float
    lambda_a: float
    delta0: float
    delta: float
    lambda_h: float = 0.0
    expected_nu: Union[float, str] = 3.0  # a number, or "auto"
    ally_unit_cost: float = 3.0
    rho: float = 0.0
    episodes: int = 100_000
    seed: int = 42
    grid_size: int = 101
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ConfigError(f"key 'episodes' must be >= 1, got {self.episodes}")
        if self.grid_size < 2:
            raise ConfigError(f"key 'grid_size' must be >= 2, got {self.grid_size}")
        if self.tolerance <= 0:
            raise ConfigError(f"key 'tolerance' must be positive, got {self.tolerance}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"key 'rho' must lie in [0, 1], got {self.rho}")
        # SwarmParams invariants, surfaced as config errors with the key name.
        try:
            self.to_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_params(self) -> SwarmParams:
        """Build SwarmParams; "auto" leaves expected_nu unset (None)."""
        nu = None if self.expected_nu == "auto" else float(self.expected_nu)
        values = {f.name: getattr(self, f.name) for f in fields(SwarmParams)}
        return SwarmParams(**{**values, "expected_nu": nu})


def _expected_nu(value: str) -> Union[float, str]:
    return "auto" if value == "auto" else float(value)


# One parser per RunConfig field, by its annotation; keys with no default
# are required.
_PARSERS = {
    key: _expected_nu if key == "expected_nu" else kind
    for key, kind in get_type_hints(RunConfig).items()
}
_REQUIRED = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError on any defect."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: malformed value for key {key!r}: {value!r}"
            ) from None
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(f"line {lineno}: key {key!r} must be finite, got {value!r}")
        values[key] = parsed

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    return RunConfig(**values)  # type: ignore[arg-type]
