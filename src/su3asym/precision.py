"""Working-precision management for the whole package.

Everything numerical here runs on mpmath's real/complex multiprecision types
(``mpf``/``mpc``).  Precision is measured in significant decimal digits and is
controlled in three ways, in increasing priority:

* the package default (60 digits),
* the environment variable ``RN_PREC`` (read once at import time),
* explicit calls to :func:`set_working_digits` (made by the CLI ``--prec``
  flag).

A floor of 30 digits is enforced: the algorithms in this package
(Euler-Maclaurin depths, contour steps, series guard digits) choose their
internal truncation parameters from the digit count and are not tuned below
that.

The precision is mpmath's, and mpmath's precision is process-global: the
package runs one computation per process at a time, and its caches (keyed by
precision) take no locks.
"""

from __future__ import annotations

import os

from mpmath import mp

MIN_DIGITS = 30
DEFAULT_DIGITS = 60


def _env_default() -> int:
    raw = os.environ.get("RN_PREC")
    if raw is None:
        return DEFAULT_DIGITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"RN_PREC must be an integer, got {raw!r}") from exc
    if value < MIN_DIGITS:
        raise ValueError(f"RN_PREC must be >= {MIN_DIGITS}, got {value}")
    return value


def set_working_digits(digits: int) -> None:
    """Set the global working precision (significant decimal digits)."""
    if digits < MIN_DIGITS:
        raise ValueError(f"working precision must be >= {MIN_DIGITS} digits, got {digits}")
    mp.dps = digits


def working_digits() -> int:
    """Current global working precision in decimal digits."""
    return mp.dps


# Apply the environment override once, at import time.
set_working_digits(_env_default())
