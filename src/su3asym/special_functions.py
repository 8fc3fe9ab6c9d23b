"""Pole-checked complex Gamma and Riemann zeta, plus exact Bernoulli numbers.

``gamma_complex`` and ``zeta_complex`` are thin wrappers over mpmath's
``gamma`` and ``zeta`` at the working precision.  They add two things the
rest of the package relies on:

* poles fail with the package's own exceptions: :class:`GammaPoleError` at
  the nonpositive integers, :class:`ZetaPoleError` at s = 1;
* the return type follows the input: real input (including a complex value
  with zero imaginary part) gives ``mpf``, complex input gives ``mpc``.

``bernoulli_fraction`` returns B_n exactly (B_1 = -1/2 convention) from
mpmath's ``bernfrac``.

The special-function kernels of the package's own live in
:mod:`su3asym.witten_zeta`: the fixed-point Euler-Maclaurin zeta along a
straight path, which gives every zeta value omega sums (hundreds of nodes per
contour line), and the contour's Gamma(-z) line, derived from one kept line
Gamma(1/2 + i k h) by a rising product.  Neither omega nor the saddle
constants call ``zeta_complex``; the residues and the zeta identity do.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf

__all__ = [
    "bernoulli_fraction",
    "gamma_complex",
    "zeta_complex",
    "GammaPoleError",
    "ZetaPoleError",
]


class GammaPoleError(ValueError):
    """Gamma evaluated exactly at a nonpositive integer."""


class ZetaPoleError(ValueError):
    """zeta evaluated exactly at s = 1."""


def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention) as a Fraction."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return Fraction(*mp.bernfrac(n))


def _to_mp(s):
    """Coerce input to mpf (real) or mpc (complex)."""
    if isinstance(s, (mpf, mpc)):
        return s
    if isinstance(s, (int, float)):
        return mpf(s)
    if isinstance(s, Fraction):
        return mpf(s.numerator) / mpf(s.denominator)
    if isinstance(s, complex):
        return mpc(s.real, s.imag)
    raise TypeError(f"unsupported numeric type {type(s)!r}")


def _real_if_possible(s):
    """s as mpf when its imaginary part is exactly zero, else as mpc."""
    sm = _to_mp(s)
    return sm.real if isinstance(sm, mpc) and sm.imag == 0 else sm


def gamma_complex(s):
    """Gamma(s) for real or complex s at the working precision.

    Returns mpf for real input, mpc otherwise.  Raises
    :class:`GammaPoleError` at exact nonpositive integers.
    """
    sm = _real_if_possible(s)
    if isinstance(sm, mpf) and sm <= 0 and sm == mp.floor(sm):
        raise GammaPoleError(f"Gamma pole at s = {sm}")
    return mp.gamma(sm)


def zeta_complex(s):
    """zeta(s) for real or complex s != 1 at the working precision.

    Returns mpf for real input, mpc otherwise.  Raises
    :class:`ZetaPoleError` at s = 1.
    """
    sm = _real_if_possible(s)
    if sm == 1:
        raise ZetaPoleError("zeta pole at s = 1")
    return mp.zeta(sm)
