import math

import pytest
from hypothesis import given, settings, strategies as st

from ecpo.config import RunConfig
from ecpo.errors import ConfigError, InputError
from ecpo.preference import (
    Candidate,
    CandidateSet,
    PreferencePair,
    pairwise_loss,
    select_pair,
    weight,
)
from oracles import fake_report


def make_set(prompt_id, scores, ids=None):
    ids = ids or [f"c{i}" for i in range(len(scores))]
    return CandidateSet(
        prompt_id,
        tuple(Candidate(cid, "{}", fake_report(s)) for cid, s in zip(ids, scores)),
    )


# --- pair selection -------------------------------------------------------------------


def test_select_pair_extremes():
    pair = select_pair(make_set("p", [0.2, 0.9, 0.5]))
    assert (pair.plus_id, pair.minus_id) == ("c1", "c0")
    assert math.isclose(pair.gap, 0.7, abs_tol=1e-12)


def test_select_pair_breaks_ties_by_id():
    pair = select_pair(make_set("p", [0.9, 0.9, 0.1, 0.1], ids=["b", "a", "z", "y"]))
    assert (pair.plus_id, pair.minus_id) == ("a", "y")


def test_select_pair_all_equal_returns_none():
    assert select_pair(make_set("p", [0.4, 0.4, 0.4])) is None


def test_select_pair_gap_at_threshold_returns_none():
    # dyadic scores keep the gap exact: a gap equal to gap_min yields no pair
    config = RunConfig(gap_min=0.0625)
    assert select_pair(make_set("p", [0.5, 0.5625]), config) is None
    assert select_pair(make_set("p", [0.5, 0.625]), config) is not None


def test_candidate_set_validation():
    with pytest.raises(InputError) as err:
        CandidateSet("p", ())
    assert err.value.code == "EMPTY_SET"
    with pytest.raises(InputError) as err:
        make_set("p", [0.1, 0.2], ids=["a", "a"])
    assert err.value.code == "DUPLICATE_ID"


def test_preference_pair_validation():
    with pytest.raises(InputError):
        PreferencePair("p", "a", "b", gap=0.0, weight=0.5)
    with pytest.raises(InputError):
        PreferencePair("p", "a", "a", gap=0.5, weight=0.5)


def test_weight_clips_to_band():
    assert weight(0.001) == 0.05
    assert weight(0.3) == 0.3
    assert weight(2.0) == 1.0


def test_selected_pair_carries_weight():
    pair = select_pair(make_set("p", [0.95, 0.05]))
    assert math.isclose(pair.weight, 0.9, abs_tol=1e-12)
    wide = select_pair(make_set("p", [0.95, 0.05]), RunConfig(psi_floor=0.92))
    assert wide.weight == 0.92
    assert weight(0.3, RunConfig(psi_ceiling=0.25)) == 0.25


# --- loss -----------------------------------------------------------------------------


def test_pairwise_loss_at_zero_margin():
    assert math.isclose(pairwise_loss(0.0, 0.0, beta=1.0), math.log(2.0), abs_tol=1e-12)


def test_pairwise_loss_scales_with_weight():
    one = pairwise_loss(1.0, 0.0, beta=2.0, w=1.0)
    half = pairwise_loss(1.0, 0.0, beta=2.0, w=0.5)
    assert math.isclose(half, one / 2, rel_tol=1e-12)


def test_pairwise_loss_stable_at_large_margins():
    # softplus(-x) for huge x underflows to 0 instead of blowing up
    assert pairwise_loss(1e6, 0.0, beta=1.0) == 0.0
    # and for hugely negative margins it grows linearly, no overflow
    big = pairwise_loss(0.0, 1e6, beta=1.0)
    assert math.isclose(big, 1e6, rel_tol=1e-9)


def test_pairwise_loss_antisymmetry_floor():
    # loss(a,b) + loss(b,a) >= 2*w*ln2 with equality at a == b
    for a, b in ((0.3, 0.8), (0.0, 0.0), (1.0, 0.2)):
        total = pairwise_loss(a, b, beta=3.0, w=0.7) + pairwise_loss(b, a, beta=3.0, w=0.7)
        assert total >= 2 * 0.7 * math.log(2.0) - 1e-12


def test_pairwise_loss_validation():
    with pytest.raises(ConfigError) as err:
        pairwise_loss(0.5, 0.4, beta=0.0)
    assert err.value.code == "BAD_BETA"
    with pytest.raises(ConfigError) as err:
        pairwise_loss(0.5, 0.4, beta=1.0, w=-0.2)
    assert err.value.code == "BAD_WEIGHT"


@pytest.mark.parametrize("beta, w, code", [
    *((beta, 1.0, "BAD_BETA") for beta in (math.nan, math.inf, 0, -1, True, "2")),
    *((1.0, w, "BAD_WEIGHT") for w in (math.nan, math.inf, -1)),
])
def test_pairwise_loss_rejects_what_the_config_rejects(beta, w, code):
    # beta follows RunConfig's rule: a finite number > 0; w is a finite number >= 0
    with pytest.raises(ConfigError) as err:
        pairwise_loss(1, 0, beta, w)
    assert err.value.code == code
    if code == "BAD_BETA":
        with pytest.raises(ConfigError) as err:
            RunConfig(beta=beta)
        assert err.value.code == code


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0.01, max_value=50),
)
def test_pairwise_loss_monotone_in_margin(plus, minus, beta):
    base = pairwise_loss(plus, minus, beta=beta)
    better = pairwise_loss(min(1.0, plus + 0.1), minus, beta=beta)
    assert better <= base + 1e-12


def test_run_config_requires_training_fields():
    # beta has no default: the loss refuses the default config's None
    with pytest.raises(ConfigError) as err:
        pairwise_loss(0.5, 0.4, beta=RunConfig().beta)
    assert err.value.code == "MISSING_BETA"
