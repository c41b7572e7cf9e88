"""Log-space non-negativity transform for sphere-sampled values.

Values are clamped to a small positive floor and taken to log space
before any basis fit; predictions are mapped back with the exponential,
which guarantees strictly positive amplitudes. The floor applies to both
sides of the learning problem: signal samples and sphere-function
samples alike.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SaturationError

# exp() overflows double precision just above this
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class NonNegConfig:
    epsilon: float = 0.005

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidArgumentError("epsilon must be positive")


def clamp_log(values, cfg=NonNegConfig()):
    """log of the values with everything below the floor clamped to it.

    Output is never below log(epsilon), so non-positive inputs are safe.
    """
    out = np.maximum(np.asarray(values, dtype=float), cfg.epsilon)
    return np.log(out, out=out)


def exp_restore(values):
    """Inverse of the log transform; output is strictly positive.

    Raises SaturationError when any input is large enough to overflow
    double precision (around 700).
    """
    values = np.asarray(values, dtype=float)
    if values.size and np.max(values) > _EXP_LIMIT:
        raise SaturationError(
            f"value {np.max(values):.3g} would overflow exp()"
        )
    return np.exp(values)
