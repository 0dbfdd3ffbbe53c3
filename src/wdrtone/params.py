"""User-facing tone mapping parameters and their validation."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

from .errors import ParameterError

# Scene-relative log floor: RELATIVE_LOG_FLOOR x max luminance, never below the
# absolute floor. Keeps the floor proportional to exposure so rescaling the
# input rescales the floor with it.
RELATIVE_LOG_FLOOR = 1e-6
ABSOLUTE_LOG_FLOOR = 1e-12

# BT.709 luma coefficients
LUMA_RED = 0.2126
LUMA_GREEN = 0.7152
LUMA_BLUE = 0.0722

# Below this summed weight the weighted fusion is 0/0; fall back to the plain
# mean, which preserves the constant-image identity.
FUSION_WEIGHT_FLOOR = 1e-12


def require_positive_finite(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is a positive finite real."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be a positive finite real, got {value!r}")


def _require_int_at_least(minimum: int, name: str, value: int) -> None:
    """Raise ParameterError unless ``value`` is an integer >= ``minimum``."""
    if not isinstance(value, int) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


require_bins = partial(_require_int_at_least, 2, "bins")
require_scales = partial(_require_int_at_least, 1, "scales")


def require_saturation(saturation: float) -> None:
    """Raise ParameterError unless the colour exponent lies in (0, 1]; NaN fails."""
    if not (0.0 < saturation <= 1.0):
        raise ParameterError(f"saturation must lie in (0, 1], got {saturation!r}")


@dataclass(frozen=True)
class TmoParams:
    """Knobs governing the whole tone mapping pipeline.

    bins: histogram bin count per receptive field (>= 2).
    scales: number of nested receptive fields per pixel (>= 1).
    epsilon: regularization of the variance weight, in units of
        log-luminance variance; larger values bias toward the global look.
    saturation: color restoration exponent in (0, 1].
    display_min / display_max: output luminance interval the per-field
        mapping targets; display_max is positive and finite, display_min
        finite and below it, and twice max(scales, (1 / LUMA_BLUE) **
        saturation) times the larger magnitude stays finite.
    log_floor: positive clamp applied to luminance before the logarithm;
        None selects the scene-relative default.
    gamma: display encoding exponent applied when quantizing to 8 bits.
    """

    bins: int = 5
    scales: int = 5
    epsilon: float = 0.1
    saturation: float = 0.6
    display_min: float = 0.0
    display_max: float = 1.0
    log_floor: float | None = None
    gamma: float = 2.2

    def __post_init__(self) -> None:
        require_bins(self.bins)
        require_scales(self.scales)
        require_positive_finite("epsilon", self.epsilon)
        require_saturation(self.saturation)
        require_positive_finite("display_max", self.display_max)
        if not -math.inf < self.display_min < self.display_max:
            raise ParameterError(
                f"display_min must be finite and < display_max, got [{self.display_min}, {self.display_max}]"
            )
        # twice the larger magnitude bounds the span, `scales` times it the fusion
        # sums and (1 / LUMA_BLUE) ** saturation times it the colour restore, as
        # no channel exceeds 1 / LUMA_BLUE times its luminance; 2x covers rounding
        reach = 2.0 * max(self.scales, (1.0 / LUMA_BLUE) ** self.saturation)
        if max(-self.display_min, self.display_max) > sys.float_info.max / reach:
            raise ParameterError(
                f"display range [{self.display_min}, {self.display_max}] overflows: "
                f"its larger magnitude times {reach:.4g} must be a finite float"
            )
        if self.log_floor is not None:
            require_positive_finite("log_floor", self.log_floor)
        require_positive_finite("gamma", self.gamma)
