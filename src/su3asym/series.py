"""Truncated formal power/Laurent series with honest order bookkeeping.

A :class:`PowerSeries` stores the coefficients of exponents
``valuation, valuation+1, ..., order-1``; exponents ``>= order`` are *unknown*
(truncated), not zero.  Every operation propagates the truncation order
consistently, so the order of a result is always a guaranteed bound on what is
actually known.  Valuations may be negative (Laurent tails), produced with
:meth:`PowerSeries.shift`.

Coefficients are generic: any ring whose elements support the exact tests
``c == 0`` and ``c == 1``, give their unit as ``c * 0 + 1``, and have ring
arithmetic (with the int 0 on either side, as missing coefficients read 0)
and division by Python ints.  A series division whose leading coefficient is
not exactly 1 also divides by that coefficient.  Exact coefficient types
(``int``, ``Fraction``) stay exact through every operation here, including
``exp``/``pow_real``.

The analytic operations follow the classical recurrences:

* ``exp``:  E' = a' E, i.e.  n e_n = sum_{k=1..n} k a_k e_{n-k},
* ``pow_real``:  (1+u)^alpha = sum_k binom(alpha, k) u^k  with the binomials
  built incrementally (works for any scalar exponent, including non-real).
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
    def identity(order: int, one=1):
        """The series x (to the given truncation order)."""
        coeffs = [one * 0] * (order - 1)
        if order > 1:
            coeffs[0] = one
        return PowerSeries(coeffs, valuation=1, order=order)

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

    def normalized(self) -> "PowerSeries":
        """Drop leading coefficients that are exactly zero (raises the valuation)."""
        i = 0
        cs = self.coeffs
        while i < len(cs) and cs[i] == 0:
            i += 1
        if i == 0:
            return self
        return PowerSeries(cs[i:], self.valuation + i, self.order)

    def truncate(self, order: int) -> "PowerSeries":
        """Restrict to a (weaker or equal) truncation order."""
        if order >= self.order:
            return self
        keep = max(0, order - self.valuation)
        return PowerSeries(self.coeffs[:keep], min(self.valuation, order), order)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by x^k (k may be negative, producing Laurent exponents)."""
        return PowerSeries(self.coeffs, self.valuation + k, self.order + k)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def drop_below(self, exponent: int) -> "PowerSeries":
        """Discard stored coefficients with exponent < ``exponent``.

        Used when the caller *knows* analytically that those coefficients are
        zero (e.g. Newton-iteration residuals) even though, in floating rings,
        they are held as roundoff dust that plain :meth:`normalized` must keep.
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

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.valuation, self.order)

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.constant(other, self.order)
        return self + (-other)

    def scalar_mul(self, c) -> "PowerSeries":
        return PowerSeries([c * a for a in self.coeffs], self.valuation, self.order)

    # -- multiplicative operations -------------------------------------------

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self, other
        order = min(a.valuation + b.order, b.valuation + a.order)
        val = a.valuation + b.valuation
        n = order - val
        if n <= 0:
            return PowerSeries([], val, order)
        out = [0] * n
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            jmax = min(len(b.coeffs), n - i)
            for j in range(jmax):
                out[i + j] = out[i + j] + ca * b.coeffs[j]
        return PowerSeries(out, val, order)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self.normalized(), other.normalized()
        if not b.coeffs or b.coeffs[0] == 0:
            raise ZeroDivisionError("division by a series with no invertible leading coefficient")
        b0 = b.coeffs[0]
        trivial_pivot = b0 == 1
        order = min(a.order - b.valuation, a.valuation + b.order - 2 * b.valuation)
        val = a.valuation - b.valuation
        n = order - val
        if n <= 0:
            return PowerSeries([], val, order)
        q = [0] * n
        for k in range(n):
            acc = a._at(val + k + b.valuation)
            for i in range(max(0, k - len(b.coeffs) + 1), k):
                acc = acc - q[i] * b.coeffs[k - i]
            q[k] = acc if trivial_pivot else acc / b0
        return PowerSeries(q, val, order)

    # -- analytic operations ---------------------------------------------------

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term (valuation >= 1 after trimming)."""
        a = self.normalized()
        if a.valuation < 1:
            raise ValueError("exp requires a series with zero constant term")
        order = a.order
        one = a.coeffs[0] * 0 + 1 if a.coeffs else 1
        e = [one * 0] * max(order, 1)
        e[0] = one
        # n e_n = sum_{k=1}^{n} k a_k e_{n-k}
        for n in range(1, order):
            acc = None
            kmax = min(n, a.order - 1)
            for k in range(a.valuation, kmax + 1):
                ak = a._at(k)
                if ak == 0:
                    continue
                term = (k * ak) * e[n - k]
                acc = term if acc is None else acc + term
            e[n] = (acc / n) if acc is not None else one * 0
        return PowerSeries(e[:order], 0, order)

    def pow_real(self, alpha) -> "PowerSeries":
        """Fractional/scalar power via the binomial series.

        Requires constant coefficient 1 after trimming (factor scalars out
        yourself; this keeps exact arithmetic exact).  ``alpha`` may be any
        scalar: int, Fraction, mpf, or complex (the binomial series is formal).
        """
        a = self.normalized()
        if a.valuation != 0 or not a.coeffs[0] == 1:
            raise ValueError("pow_real requires constant term exactly 1")
        order = a.order
        u = (a - 1).normalized()
        one = a.coeffs[0] * 0 + 1
        result = PowerSeries.constant(one, order)
        if u.is_zero() or u.valuation >= order:
            return result
        upow = u
        binom = alpha  # binom(alpha, 1)
        k = 1
        while upow.valuation < order:
            result = result + upow.scalar_mul(binom)
            binom = binom * (alpha - k) / (k + 1)
            k += 1
            nxt = upow * u
            if nxt.valuation <= upow.valuation:
                raise ValueError("pow_real requires positive valuation of (series - 1)")
            upow = nxt
        return result.truncate(order)

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c})*x^{self.valuation + i}")
            shown += 1
            if shown >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"PowerSeries({body} + O(x^{self.order}))"
