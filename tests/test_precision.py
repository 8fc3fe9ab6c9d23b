"""The 30-digit working-precision floor binds library callers too."""

from __future__ import annotations

import pytest
from mpmath import mp, mpf

from su3asym.harness import compare_table, log_G_direct
from su3asym.precision import MIN_DIGITS, set_working_digits
from su3asym.saddle_expansion import c_constants
from su3asym.witten_zeta import omega


def test_set_working_digits_refuses_below_the_floor():
    with pytest.raises(ValueError, match="working precision must be >= 30 digits, got 29"):
        set_working_digits(MIN_DIGITS - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: omega(mpf(2)),
        lambda: c_constants(1),
        lambda: log_G_direct(mpf("0.1")),
        lambda: compare_table([2000], 0),
    ],
    ids=["omega", "c_constants", "log_G_direct", "compare_table"],
)
def test_library_refuses_precision_set_below_the_floor(call):
    mp.dps = 20
    with pytest.raises(ValueError, match="working precision must be >= 30 digits, got 20"):
        call()
