"""The paper's contribution: dual-Vth + sizing leakage optimizers (S11)."""

from .annealing import AnnealConfig, optimize_annealing
from .config import OptimizerConfig
from .deterministic import DeterministicStrategy, optimize_deterministic
from .engine import ConstraintStrategy, GreedyEngine
from .metrics import MetricModels, metric_models, snapshot_metrics
from .moves import (
    Move,
    apply_move,
    candidate_moves,
    fanin_cap_delta,
    leakage_gain,
    own_delay_cost,
    revert_move,
)
from .result import MetricsSnapshot, OptimizationResult, PassRecord
from .sizing import minimize_delay, upsize_effect
from .statistical import StatisticalStrategy, optimize_statistical

__all__ = [
    "AnnealConfig",
    "ConstraintStrategy",
    "DeterministicStrategy",
    "GreedyEngine",
    "MetricModels",
    "MetricsSnapshot",
    "Move",
    "OptimizationResult",
    "OptimizerConfig",
    "PassRecord",
    "StatisticalStrategy",
    "apply_move",
    "candidate_moves",
    "fanin_cap_delta",
    "leakage_gain",
    "metric_models",
    "minimize_delay",
    "optimize_annealing",
    "optimize_deterministic",
    "optimize_statistical",
    "own_delay_cost",
    "revert_move",
    "snapshot_metrics",
    "upsize_effect",
]
