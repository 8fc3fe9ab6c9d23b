"""Working-precision management for the whole package.

Everything numerical here runs on mpmath's real/complex multiprecision types
(``mpf``/``mpc``).  Precision is measured in significant decimal digits.  It
is 60 digits from import on, and :func:`set_working_digits` (called by the
CLI ``--prec`` flag) changes it.

A floor of 30 digits is enforced: the algorithms in this package
(Euler-Maclaurin depths, contour steps, series guard digits) choose their
internal truncation parameters from the digit count and are not tuned below
that.  :func:`set_working_digits` refuses a lower count, and
:func:`working_digits`, which the numerical routines read to pick their
parameters, raises ``ValueError`` when ``mp.dps`` was set below it directly.

The precision is mpmath's, and mpmath's precision is process-global: the
package runs one computation per process at a time, and its caches (keyed by
precision) take no locks.
"""

from __future__ import annotations

from mpmath import mp

MIN_DIGITS = 30
DEFAULT_DIGITS = 60


def set_working_digits(digits: int) -> None:
    """Set the global working precision (significant decimal digits)."""
    if digits < MIN_DIGITS:
        raise ValueError(f"working precision must be >= {MIN_DIGITS} digits, got {digits}")
    mp.dps = digits


def working_digits() -> int:
    """Current global working precision in decimal digits; raises below the floor."""
    if mp.dps < MIN_DIGITS:
        raise ValueError(f"working precision must be >= {MIN_DIGITS} digits, got {mp.dps}")
    return mp.dps


set_working_digits(DEFAULT_DIGITS)
