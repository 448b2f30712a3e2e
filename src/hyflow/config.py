"""Simulation settings: the one declaration both model formats read.

Each field's name is the setting's name in the equation files (`set dt =
0.01;`) and in a JSON model's `config` object, and every value, whichever
way it arrives, passes the one per-field check `check_setting`. Knobs that
no model sets are named constants next to the code that reads them
(`integrator.H_MIN`, `events.MAX_CHAIN`, `engine.CONDENSE_BUDGET`, ...).
Time starts at 0.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .integrator import TABLES


@dataclass(frozen=True)
class SimConfig:
    """Settings of one simulation; construction checks every field and
    raises ConfigError."""

    duration: float            # simulate over [0, duration]
    dt: float = 0.02           # initial step size, and the step after a jump
    max_dt: float = 0.1        # largest step size
    tol: float = 1e-6          # local error tolerance of step control
    zc_precision: float = 1e-6  # width at which crossing-time bisection stops
    scheme: str = "ode23"      # Runge-Kutta table, a key of integrator.TABLES
    split: int = 1             # initial-box subdivisions per wide variable

    def __post_init__(self):
        for name in FIELD_TYPES:
            object.__setattr__(self, name,
                               check_setting(name, getattr(self, name)))


FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def finite_float(value) -> float | None:
    """`value` as a finite float; None when it is not a number (a bool is
    not one) or has no finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def check_setting(name: str, value):
    """The value of setting `name` in its field's type, or ConfigError.

    Numbers must be finite and > 0, `split` integral as well, and `scheme`
    a key of `TABLES`.
    """
    kind = FIELD_TYPES[name]
    if kind is str:
        if not (isinstance(value, str) and value in TABLES):
            raise ConfigError(f"{name} must be one of {', '.join(TABLES)}, "
                              f"got {value!r}")
        return value
    x = finite_float(value)
    if x is None or x <= 0:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    if kind is int:
        if x != int(x):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(x)
    return x
