"""Exception types shared across the package.

Every error raised on a contract violation derives from ``SparsedynError``
so callers (and the CLI) can distinguish library failures from bugs.
``require_count`` is the one check of a count argument and ``require_real``
the one check of a real-valued one; no other module tests a number's type.
"""

import math
import numbers


class SparsedynError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(SparsedynError, ValueError):
    """Invalid arguments or invariants violated while building an object."""


class StabilityError(SparsedynError, ValueError):
    """An operation requires a stable system and the input is not stable."""


class AssumptionError(SparsedynError, ValueError):
    """A model assumption required by a formula does not hold.

    The message names the failing assumption (A1, A2, A3, ...).
    """


class NumericalError(SparsedynError, RuntimeError):
    """A numerical routine failed (non-convergence, overflow, singularity)."""


class DivergenceError(SparsedynError, RuntimeError):
    """An iterative process produced non-finite or exploding values."""


class DataError(SparsedynError, ValueError):
    """Malformed external data (CSV files, serialized artifacts)."""


class ConfigError(SparsedynError, ValueError):
    """Invalid experiment configuration; message names the offending field."""


def require_count(value, what: str, least: int | None = None,
                  error: type[SparsedynError] = ConstructionError) -> int:
    """``value`` as an ``int``: a Python or numpy integer of at least
    ``least`` passes; a ``bool``, any other type or a smaller value raises
    ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be at least {least}, got {value}")
    return int(value)


def require_real(value, what: str, bound: str | None = None):
    """``value`` itself, unconverted: a finite Python or numpy real number
    that is ``bound`` (``"positive"``, ``"non-negative"`` or ``"in (0, 1)"``)
    passes; a ``bool``, any other type, NaN, an infinity or a value out of
    bound raises a ``ConstructionError`` naming ``what``.  So does an integer
    beyond the float range, whose digits the message leaves out."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConstructionError(f"{what} must be a real number, got {value!r}")
    try:
        finite, shown = math.isfinite(value), value
    except OverflowError:
        finite, shown = False, "an integer beyond the float range"
    inside = {None: True, "positive": value > 0, "non-negative": value >= 0,
              "in (0, 1)": 0 < value < 1}[bound]
    if not (inside and finite):
        raise ConstructionError(
            f"{what} must be finite{'' if bound is None else ' and ' + bound}, got {shown}")
    return value
