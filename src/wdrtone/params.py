"""User-facing tone mapping parameters and their validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

# Scene-relative log floor: RELATIVE_LOG_FLOOR x max luminance, never below the
# absolute floor. Keeps the floor proportional to exposure so rescaling the
# input rescales the floor with it.
RELATIVE_LOG_FLOOR = 1e-6
ABSOLUTE_LOG_FLOOR = 1e-12

# Below this summed weight the weighted fusion is 0/0; fall back to the plain
# mean, which preserves the constant-image identity.
FUSION_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class TmoParams:
    """Knobs governing the whole tone mapping pipeline.

    bins: histogram bin count per receptive field (>= 2).
    scales: number of nested receptive fields per pixel (>= 1).
    epsilon: regularization of the variance weight, in units of
        log-luminance variance; larger values bias toward the global look.
    saturation: color restoration exponent in (0, 1].
    display_min / display_max: output luminance interval the per-field
        mapping targets.
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
        if not isinstance(self.bins, int) or self.bins < 2:
            raise ParameterError(f"bins must be an integer >= 2, got {self.bins!r}")
        if not isinstance(self.scales, int) or self.scales < 1:
            raise ParameterError(f"scales must be an integer >= 1, got {self.scales!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ParameterError(f"epsilon must be a positive finite real, got {self.epsilon!r}")
        if not (0.0 < self.saturation <= 1.0):
            raise ParameterError(f"saturation must lie in (0, 1], got {self.saturation!r}")
        if not (math.isfinite(self.display_min) and math.isfinite(self.display_max)):
            raise ParameterError("display range must be finite")
        if not self.display_min < self.display_max:
            raise ParameterError(
                f"display_min must be < display_max, got [{self.display_min}, {self.display_max}]"
            )
        if self.log_floor is not None and not (self.log_floor > 0.0 and math.isfinite(self.log_floor)):
            raise ParameterError(f"log_floor must be positive, got {self.log_floor!r}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ParameterError(f"gamma must be positive, got {self.gamma!r}")
