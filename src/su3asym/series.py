"""Truncated formal power/Laurent series with honest order bookkeeping.

A :class:`PowerSeries` stores the coefficients of exponents
``valuation, valuation+1, ..., order-1``; exponents ``>= order`` are *unknown*
(truncated), not zero.  Every operation propagates the truncation order
consistently, so the order of a result is always a guaranteed bound on what is
actually known.  Valuations may be negative (Laurent tails), produced with
:meth:`PowerSeries.shift`.

This is the package's one series kernel.  Coefficients are
:class:`~su3asym.xpoly.XPolynomial` polynomials with mpmath coefficients (the
saddle pipeline), mpmath ``mpf``/``mpc`` values, or ``Fraction`` values, which
stay exact through every operation here (the exact tests).  The series x is
``constant(1, order - 1).shift(1)``.  Missing coefficients read as the int 0.

The analytic operations follow the classical O(n^2) recurrences:

* ``exp``:  E' = a' E, i.e.  n e_n = sum_{k=1..n} k a_k e_{n-k},
* ``pow_real``:  B = A^alpha with a_0 = 1 satisfies A B' = alpha A' B, i.e.
  n b_n = sum_{k=1..n} ((alpha+1) k - n) a_k b_{n-k}  (J. C. P. Miller; Knuth,
  TAOCP Vol. 2, Sec. 4.7), for any scalar exponent, including non-real.
"""

from __future__ import annotations


class PowerSeries:
    """Truncated series  sum_{k=valuation}^{order-1} coeffs[k-valuation] x^k + O(x^order)."""

    __slots__ = ("coeffs", "valuation", "order")

    def __init__(self, coeffs, valuation: int = 0, order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = valuation + len(coeffs)
        if order - valuation != len(coeffs):
            raise ValueError("order - valuation must equal the number of stored coefficients")
        self.coeffs = coeffs
        self.valuation = valuation
        self.order = order

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, order: int):
        return PowerSeries([value] + [value * 0] * (order - 1), valuation=0, order=order)

    # -- bookkeeping -------------------------------------------------------

    def coeff(self, k: int):
        """Coefficient of x^k.  Raises if k is at or beyond the truncation order."""
        if k >= self.order:
            raise ValueError(f"coefficient of x^{k} is beyond truncation order {self.order}")
        if k < self.valuation:
            return 0
        return self.coeffs[k - self.valuation]

    def truncate(self, order: int) -> "PowerSeries":
        """Restrict to a (weaker or equal) truncation order."""
        if order >= self.order:
            return self
        keep = max(0, order - self.valuation)
        return PowerSeries(self.coeffs[:keep], min(self.valuation, order), order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by x^k (k may be negative, producing Laurent exponents)."""
        return PowerSeries(self.coeffs, self.valuation + k, self.order + k)

    def drop_below(self, exponent: int) -> "PowerSeries":
        """Discard stored coefficients with exponent < ``exponent``.

        Used to split a Laurent series into its singular part and the rest.
        """
        if exponent <= self.valuation:
            return self
        keep = exponent - self.valuation
        return PowerSeries(self.coeffs[keep:], exponent, self.order)

    def _at(self, k: int):
        # like coeff() but silently 0 outside the stored window (internal use)
        if self.valuation <= k < self.order:
            return self.coeffs[k - self.valuation]
        return 0

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.constant(other, self.order)
        order = min(self.order, other.order)
        val = min(self.valuation, other.valuation, order)
        coeffs = [self._at(k) + other._at(k) for k in range(val, order)]
        return PowerSeries(coeffs, val, order)

    __radd__ = __add__

    def scalar_mul(self, c) -> "PowerSeries":
        return PowerSeries([c * a for a in self.coeffs], self.valuation, self.order)

    # -- multiplicative operations -------------------------------------------

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self, other
        order = min(a.valuation + b.order, b.valuation + a.order)
        val = a.valuation + b.valuation
        n = order - val
        out = [0] * n
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            jmax = min(len(b.coeffs), n - i)
            for j in range(jmax):
                out[i + j] = out[i + j] + ca * b.coeffs[j]
        return PowerSeries(out, val, order)

    # -- analytic operations ---------------------------------------------------

    def exp(self) -> "PowerSeries":
        """exp of a series whose coefficients up to x^0 are exactly zero."""
        if any(not c == 0 for c in self.coeffs[: max(0, 1 - self.valuation)]):
            raise ValueError("exp requires a series with zero constant term")
        order = self.order
        one = self.coeffs[0] * 0 + 1 if self.coeffs else 1
        e = [one * 0] * max(order, 1)
        e[0] = one
        # n e_n = sum_{k=1}^{n} k a_k e_{n-k}
        for n in range(1, order):
            acc = one * 0
            for k in range(max(self.valuation, 1), n + 1):
                ak = self._at(k)
                if not ak == 0:
                    acc = acc + (k * ak) * e[n - k]
            e[n] = acc / n
        return PowerSeries(e[:order], 0, order)

    def pow_real(self, alpha) -> "PowerSeries":
        """A^alpha for a series A = 1 + a_1 x + ... (see the module docstring).

        Requires valuation 0 and the constant coefficient exactly 1 (factor
        scalars out yourself; this keeps exact arithmetic exact).  ``alpha``
        may be any scalar: int, Fraction, mpf or complex.
        """
        if self.valuation < 0 or not self._at(0) == 1:
            raise ValueError("pow_real requires constant term exactly 1 and no negative powers")
        a = [self._at(k) for k in range(self.order)]
        b = [a[0]]
        for n in range(1, self.order):
            acc = a[0] * 0
            for k in range(1, n + 1):
                if not a[k] == 0:
                    acc = acc + ((alpha + 1) * k - n) * a[k] * b[n - k]
            b.append(acc / n)
        return PowerSeries(b, 0, self.order)
