"""Process-variation modeling (substrate S5)."""

from .lognormal import (
    LognormalSum,
    LognormalSummary,
    lognormal_mean,
    lognormal_params_from_moments,
    lognormal_percentile,
    lognormal_variance,
    single_lognormal,
    sum_of_lognormals,
)
from .model import VariationModel
from .parameters import VariationSpec, default_variation
from .spatial import DEFAULT_ENERGY, SpatialCorrelationModel, field_samples

__all__ = [
    "DEFAULT_ENERGY",
    "LognormalSum",
    "LognormalSummary",
    "SpatialCorrelationModel",
    "VariationModel",
    "VariationSpec",
    "default_variation",
    "field_samples",
    "lognormal_mean",
    "lognormal_params_from_moments",
    "lognormal_percentile",
    "lognormal_variance",
    "single_lognormal",
    "sum_of_lognormals",
]
