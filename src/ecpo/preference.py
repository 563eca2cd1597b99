"""Preference pairs over scored candidate sets and the weighted pairwise loss.

The pair for a prompt is (argmax aggregate score, argmin aggregate score)
with ties broken by candidate_id ascending; sets whose score gap does not
exceed gap_min yield no pair, since a zero-gap pair carries no training
signal. The gap maps to a weight clipped to the [psi_floor, psi_ceiling]
band, and the loss value is -w * log(sigmoid(beta * (f_plus - f_minus)))
computed through a stable softplus so magnitudes up to |beta * diff| = 1e4
neither overflow nor lose the asymptote. Loss values only: gradients and the
combined objective belong to the external trainer.

gap_min and the psi band come from ``RunConfig``, which validates them. beta
has no defensible default: ``pairwise_loss`` raises MISSING_BETA when it is
None, as it is in the default ``RunConfig``, and checks any other value with
the config's own rule (``check_beta``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, RunConfig, check_beta
from .errors import ConfigError, InputError, read_number, shown
from .validator import EcpoReport


@dataclass(frozen=True)
class Candidate:
    """One candidate policy document and its validation report."""

    candidate_id: str
    document: object  # as ``parse_policy`` takes it: JSON text or its decoded value
    report: EcpoReport


@dataclass(frozen=True)
class CandidateSet:
    """The candidates for one prompt; ids are unique and the set is non-empty."""

    prompt_id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        if not self.candidates:
            raise InputError("EMPTY_SET", f"prompt {shown(self.prompt_id)} has no candidates")
        ids = [c.candidate_id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise InputError("DUPLICATE_ID", f"prompt {shown(self.prompt_id)} repeats a candidate_id")


@dataclass(frozen=True)
class PreferencePair:
    """A preferred and a rejected candidate, their score gap and the pair weight."""

    prompt_id: str
    plus_id: str
    minus_id: str
    gap: float
    weight: float

    def __post_init__(self):
        if self.gap <= 0:
            raise InputError("BAD_PAIR", f"gap must be > 0, got {self.gap}")
        if self.plus_id == self.minus_id:
            raise InputError("BAD_PAIR", "plus and minus must be distinct candidates")


def weight(gap: float, config: RunConfig | None = None) -> float:
    """The gap clipped to the config's [psi_floor, psi_ceiling] band."""
    cfg = config or DEFAULT_CONFIG
    return min(cfg.psi_ceiling, max(cfg.psi_floor, gap))


def select_pair(candidate_set: CandidateSet, config: RunConfig | None = None) -> PreferencePair | None:
    """Extremes of the set by aggregate score; None when the gap is at most gap_min."""
    cfg = config or DEFAULT_CONFIG
    candidates = candidate_set.candidates
    plus = min(candidates, key=lambda c: (-c.report.ecpo, c.candidate_id))
    minus = min(candidates, key=lambda c: (c.report.ecpo, c.candidate_id))
    gap = plus.report.ecpo - minus.report.ecpo
    if gap <= cfg.gap_min:
        return None
    return PreferencePair(
        prompt_id=candidate_set.prompt_id,
        plus_id=plus.candidate_id,
        minus_id=minus.candidate_id,
        gap=gap,
        weight=weight(gap, cfg),
    )


def pairwise_loss(f_plus: float, f_minus: float, beta: float | None, w: float = 1.0) -> float:
    """-w * log(sigmoid(beta * (f_plus - f_minus))), numerically stable."""
    if beta is None:
        raise ConfigError("MISSING_BETA", "beta is mandatory for loss computation; no default exists")
    check_beta(beta)
    if read_number(w, "BAD_WEIGHT", "w", ConfigError) < 0:
        raise ConfigError("BAD_WEIGHT", f"w must be >= 0, got {w}")
    x = beta * (f_plus - f_minus)
    if x >= 0:
        softplus = math.log1p(math.exp(-x))
    else:
        softplus = -x + math.log1p(math.exp(x))
    return w * softplus

