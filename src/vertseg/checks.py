"""Type rules for config values, shared by the config dataclasses so that
a bad manifest value fails when the manifest loads, with its key named.
"""

import math
import numbers


def integer(name, value, minimum=None):
    """value as an int, after checking that it is an integral number of
    at least minimum (None: any). A bool is rejected; an integral float
    such as 2.0 is accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def real(name, value):
    """value as a float, after checking that it is a finite number (not
    a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def integers(name, values, minimum=None):
    """values as a tuple of three ints, after checking its length and each
    entry as `integer` does."""
    try:
        values = tuple(values)
    except TypeError:
        values = (values,)
    if len(values) != 3:
        raise ValueError(f"{name} must have 3 entries, got {values!r}")
    return tuple(integer(name, v, minimum) for v in values)
