import pytest

from ecpo.config import RunConfig, check_weights
from ecpo.errors import ConfigError


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("ecpo_weights", (0.5, 0.3), "BAD_WEIGHTS"),
        ("ecpo_weights", (0.5, 0.3, 0.3), "BAD_WEIGHTS"),
        ("ecpo_weights", (-0.1, 0.6, 0.5), "BAD_WEIGHTS"),
        ("ecpo_weights", (float("nan"), 0.5, 0.5), "BAD_WEIGHTS"),
        ("ecpo_weights", ("0.5", "0.3", "0.2"), "BAD_WEIGHTS"),
        ("ecpo_weights", (True, 0, 0), "BAD_WEIGHTS"),
        ("ecpo_weights", 1.0, "BAD_WEIGHTS"),
        ("match_threshold", 0.0, "BAD_THRESHOLD"),
        ("match_threshold", 1.5, "BAD_THRESHOLD"),
        ("psi_floor", -0.1, "BAD_PSI"),
        ("psi_ceiling", 0.01, "BAD_PSI"),  # below the default floor 0.05
        ("beta", 0.0, "BAD_BETA"),
        ("beta", -1.0, "BAD_BETA"),
        ("lambda_ecpo", -0.5, "BAD_LAMBDA"),
        ("gap_min", -0.01, "BAD_GAP_MIN"),
    ],
)
def test_run_config_rejects_bad_tunable(field, value, code):
    with pytest.raises(ConfigError) as err:
        RunConfig(**{field: value})
    assert err.value.code == code


def test_run_config_accepts_boundary_values():
    config = RunConfig(
        ecpo_weights=(1, 0, 0), match_threshold=1.0, psi_floor=0.3, psi_ceiling=0.3, lambda_ecpo=0.0, gap_min=0.0
    )
    assert config.ecpo_weights == (1.0, 0.0, 0.0)
    assert check_weights([0.5, 0.3, 0.2]) == (0.5, 0.3, 0.2)
