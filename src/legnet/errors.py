"""Exception types shared across the toolkit, the integer check behind
every integer setting, and the repr that their messages show."""

from decimal import Decimal
from numbers import Integral
from typing import Any


class LegnetError(Exception):
    """Base class for toolkit errors."""


class ConfigError(LegnetError):
    """Bad or inconsistent configuration (CLI exit code 2)."""


class DataError(LegnetError):
    """Malformed or contradictory input data (CLI exit code 3)."""


class EstimationError(LegnetError):
    """Model fitting failed to converge or produced an unusable fit (CLI exit code 4)."""


def _shown(value: Any) -> str:
    """repr(value), or the digit count of an integer too long for repr."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"<integer of {Decimal(abs(value)).adjusted() + 1} digits>"


def is_int_at_least(value: Any, least: int) -> bool:
    """Whether `value` is an integer >= least; a numpy integer counts, a bool
    or a float does not."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= least


def require_ints(control: Any, **least: int) -> None:
    """Raise ConfigError naming the first of `control`'s fields that is not
    an integer of at least its bound."""
    for name, low in least.items():
        value = getattr(control, name)
        if not is_int_at_least(value, low):
            raise ConfigError(f"{type(control).__name__}.{name} must be an integer "
                              f">= {low}, got {_shown(value)}")
