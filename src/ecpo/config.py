"""Run configuration: one frozen value governing every tunable.

Every tunable is validated here and only here; library functions take a
``RunConfig`` (or read the one default, ``DEFAULT_CONFIG``) instead of loose
values. beta and lambda_ecpo have no blessed defaults on purpose:
``pairwise_loss`` raises MISSING_BETA until the caller sets beta, and
lambda_ecpo is only validated and echoed, since the combined objective
belongs to the external trainer.

Referenced files (lexicon, hazard rules, label vocabulary) must exist when
the config is built; relative paths in a config file resolve against the
file's directory. Assets load on first use and are cached per source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

from .context import DEFAULT_LABEL_VOCAB, load_label_vocab, to_json
from .errors import (ConfigError, check_count, is_finite_number, read_file, read_int, read_number, read_object,
                     read_string, shown)
from .policy import DEFAULT_J_MAX, DEFAULT_LEXICON_LINES, PenaltyTable, compile_lexicon, load_lexicon

DEFAULT_WEIGHTS = (0.5, 0.3, 0.2)

DEFAULT_EPSILON = 1e-9

_WEIGHT_TOLERANCE = 1e-9


def check_weights(weights: Sequence[float]) -> tuple[float, float, float]:
    """The weight-row rule: three finite non-negative numbers summing to 1 within 1e-9."""
    if (
        not isinstance(weights, (list, tuple))
        or len(weights) != 3
        or not all(is_finite_number(w) and w >= 0 for w in weights)
    ):
        raise ConfigError("BAD_WEIGHTS", f"need three finite non-negative weights, got {shown(weights)}")
    values = tuple(float(w) for w in weights)
    if abs(sum(values) - 1.0) > _WEIGHT_TOLERANCE:
        raise ConfigError("BAD_WEIGHTS", f"weights {values} do not sum to 1")
    return values


def check_epsilon(epsilon: float) -> None:
    """The smoothing-epsilon rule: a finite number > 0."""
    if read_number(epsilon, "BAD_EPSILON", "epsilon", ConfigError) <= 0:
        raise ConfigError("BAD_EPSILON", f"epsilon must be > 0, got {epsilon}")


def check_beta(beta: float) -> None:
    """The loss-temperature rule: a finite number > 0."""
    if read_number(beta, "BAD_BETA", "beta", ConfigError) <= 0:
        raise ConfigError("BAD_BETA", f"beta must be > 0, got {beta}")


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run, validated once when built."""

    ecpo_weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    penalty_table: PenaltyTable = field(default_factory=PenaltyTable)
    lexicon_path: str | None = None
    hazard_rules_path: str | None = None
    label_vocab_path: str | None = None
    match_threshold: float = 0.5
    epsilon: float = DEFAULT_EPSILON
    j_max: int = DEFAULT_J_MAX
    beta: float | None = None
    lambda_ecpo: float | None = None
    psi_floor: float = 0.05
    psi_ceiling: float = 1.0
    gap_min: float = 0.0
    top_k: int = 5
    token_budget: int = 200
    seeds: tuple[int, ...] = (0,)
    block_size: int = 1
    prng: str = "splitmix64"

    def __post_init__(self):
        object.__setattr__(self, "ecpo_weights", check_weights(self.ecpo_weights))
        if not 0.0 < read_number(self.match_threshold, "BAD_THRESHOLD", "match_threshold", ConfigError) <= 1.0:
            raise ConfigError("BAD_THRESHOLD", f"match_threshold must be in (0, 1], got {self.match_threshold}")
        check_epsilon(self.epsilon)
        check_count(self.j_max, "BAD_J_MAX", "j_max")
        if self.beta is not None:
            check_beta(self.beta)
        lambda_ecpo = self.lambda_ecpo
        if lambda_ecpo is not None and read_number(lambda_ecpo, "BAD_LAMBDA", "lambda_ecpo", ConfigError) < 0:
            raise ConfigError("BAD_LAMBDA", f"lambda_ecpo must be >= 0, got {self.lambda_ecpo}")
        floor = read_number(self.psi_floor, "BAD_PSI", "psi_floor", ConfigError)
        if not 0 <= floor <= read_number(self.psi_ceiling, "BAD_PSI", "psi_ceiling", ConfigError):
            raise ConfigError("BAD_PSI", f"need 0 <= floor <= ceiling, got ({self.psi_floor}, {self.psi_ceiling})")
        if read_number(self.gap_min, "BAD_GAP_MIN", "gap_min", ConfigError) < 0:
            raise ConfigError("BAD_GAP_MIN", f"gap_min must be >= 0, got {self.gap_min}")
        check_count(self.top_k, "BAD_TOP_K", "top_k")
        check_count(self.token_budget, "BAD_BUDGET", "token_budget")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ConfigError("BAD_SEEDS", f"seeds must be a non-empty integer list, got {shown(self.seeds)}")
        object.__setattr__(self, "seeds", tuple(read_int(s, "BAD_SEEDS", "seed", ConfigError) for s in self.seeds))
        check_count(self.block_size, "BAD_BLOCK_SIZE", "block_size")
        if self.prng != "splitmix64":
            raise ConfigError("BAD_PRNG", f"the only declared PRNG is splitmix64, got {shown(self.prng)}")
        for name in ("lexicon_path", "hazard_rules_path", "label_vocab_path"):
            path = getattr(self, name)
            if path is not None and not Path(read_string(path, "MISSING_PATH", name, ConfigError)).is_file():
                raise ConfigError("MISSING_PATH", f"{name} {shown(path)} does not exist")

    def lexicon(self):
        path = self.lexicon_path
        return load_asset(compile_lexicon, DEFAULT_LEXICON_LINES) if path is None else load_asset(load_lexicon, path)

    def label_vocab(self):
        path = self.label_vocab_path
        return DEFAULT_LABEL_VOCAB if path is None else load_asset(load_label_vocab, path)

    def echo(self) -> dict:
        """Resolved configuration embedded in every report, as JSON-native values."""
        return to_json(self)


# The configuration of a library call made without one; frozen, so one instance serves every call.
DEFAULT_CONFIG = RunConfig()


@lru_cache(maxsize=None)
def load_asset(loader: Callable, source: str | tuple[str, ...]):
    """A side file, or the default lexicon's lines, loaded once per (loader, source) on first use."""
    return loader(source)


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file; unknown keys are errors, relative paths resolve
    against the file's directory."""
    path = Path(path)
    raw = read_file(path, "BAD_CONFIG", "config", ConfigError, json.loads)
    unknown = set(read_object(raw, "BAD_CONFIG", "config file", ConfigError)) - _FIELD_NAMES
    if unknown:
        raise ConfigError("UNKNOWN_CONFIG_KEY", f"unknown config keys: {shown(sorted(unknown))}")
    values: dict = dict(raw)
    if "penalty_table" in values:
        table = read_object(values["penalty_table"], "BAD_PENALTY", "penalty_table", ConfigError)
        known = set(PenaltyTable.__dataclass_fields__)
        bad = set(table) - known
        if bad:
            raise ConfigError("UNKNOWN_CONFIG_KEY", f"unknown penalty_table keys: {shown(sorted(bad))}")
        values["penalty_table"] = PenaltyTable(**table)
    for name in ("lexicon_path", "hazard_rules_path", "label_vocab_path"):
        value = values.get(name)
        if isinstance(value, str) and not Path(value).is_absolute():
            values[name] = str((path.parent / value).resolve())
    return RunConfig(**values)
