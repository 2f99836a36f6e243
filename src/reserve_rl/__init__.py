"""Risk-sensitive reinforcement learning for insurance loss reserving.

A small research package: a reserving environment built on loss
development triangles, a tail-risk-penalized policy-gradient agent,
classical actuarial baselines, and an evaluation harness with paired
random draws.  See the README for the experiment pipeline.
"""

from .config import VERSION as __version__
from .env import ACTION_GRID, EnvConfig, EnvFactory, ReserveEnv, RewardWeights
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    ReserveRlError,
)
from .regimes import CurriculumSchedule, FixedShock, Stochastic
from .risk import ShortfallBuffer, adaptive_alpha, cvar_rockafellar_oracle, tail_estimate
from .triangles import (
    DevelopmentFactors,
    LossTriangle,
    SplitSpec,
    TriangleCell,
    age_to_age_factors,
    normalize,
    parse_triangle_csv,
    split_rolling_origin,
)

__all__ = [
    "__version__",
    "ACTION_GRID",
    "EnvConfig",
    "EnvFactory",
    "ReserveEnv",
    "RewardWeights",
    "ConfigError",
    "DataError",
    "NumericalError",
    "ReserveRlError",
    "CurriculumSchedule",
    "FixedShock",
    "Stochastic",
    "ShortfallBuffer",
    "adaptive_alpha",
    "cvar_rockafellar_oracle",
    "tail_estimate",
    "DevelopmentFactors",
    "LossTriangle",
    "SplitSpec",
    "TriangleCell",
    "age_to_age_factors",
    "normalize",
    "parse_triangle_csv",
    "split_rolling_origin",
]
