"""Truncated formal power/Laurent series with honest order bookkeeping.

A :class:`PowerSeries` stores the coefficients of exponents
``valuation, valuation+1, ..., order-1``; exponents ``>= order`` are *unknown*
(truncated), not zero.  Every operation propagates the truncation order
consistently, so the order of a result is always a guaranteed bound on what is
actually known.  Valuations may be negative (Laurent tails), produced with
:meth:`PowerSeries.shift`.

Coefficients are generic: exact (``int``, ``Fraction``), floating
(``mpf``/``mpc``/``float``/``complex``), or polynomial-valued
(:class:`~su3asym.xpoly.XPolynomial`), as long as they support ring
arithmetic, division by Python ints, and (for division pivots) scalar
inversion.  Exact coefficient types stay exact through every operation here,
including ``exp``/``log``/``pow_real``.

The analytic operations follow the classical recurrences:

* ``exp``:  E' = a' E, i.e.  n e_n = sum_{k=1..n} k a_k e_{n-k},
* ``log``:  log a = integral of a'/a,
* ``pow_real``:  (1+u)^alpha = sum_k binom(alpha, k) u^k  with the binomials
  built incrementally (works for any scalar exponent, including non-real).
"""

from __future__ import annotations

from .xpoly import XPolynomial


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
        while i < len(cs) and _is_exact_zero(cs[i]):
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
        return all(_is_exact_zero(c) for c in self.coeffs)

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

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        if a.order != b.order:
            return False
        lo = min(a.valuation, b.valuation)
        return all(a._at(k) == b._at(k) for k in range(lo, a.order))

    def __hash__(self):
        return hash((self.coeffs, self.valuation, self.order))

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

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, c) -> "PowerSeries":
        return PowerSeries([c * a for a in self.coeffs], self.valuation, self.order)

    # -- multiplicative operations -------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scalar_mul(other)
        a, b = self, other
        order = min(a.valuation + b.order, b.valuation + a.order)
        val = a.valuation + b.valuation
        n = order - val
        if n <= 0:
            return PowerSeries([], val, order)
        out = [0] * n
        for i, ca in enumerate(a.coeffs):
            if _is_exact_zero(ca):
                continue
            jmax = min(len(b.coeffs), n - i)
            for j in range(jmax):
                out[i + j] = out[i + j] + ca * b.coeffs[j]
        return PowerSeries(out, val, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries([c / other for c in self.coeffs], self.valuation, self.order)
        a, b = self.normalized(), other.normalized()
        if not b.coeffs or _is_exact_zero(b.coeffs[0]):
            raise ZeroDivisionError("division by a series with no invertible leading coefficient")
        b0 = b.coeffs[0]
        if isinstance(b0, XPolynomial):
            if b0.degree != 0:
                raise TypeError("series division requires a scalar leading coefficient")
            b0 = b0.coeffs[0]
        trivial_pivot = _is_exact_one(b0)
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

    def __rtruediv__(self, other):
        # scalar / series; give the numerator enough order for a full-length quotient
        num_order = max(self.order - self.valuation, 1)
        return PowerSeries.constant(other, num_order) / self

    def __pow__(self, n: int) -> "PowerSeries":
        """Integer power by repeated squaring (use pow_real for fractional exponents)."""
        if not isinstance(n, int):
            raise TypeError("use pow_real() for non-integer exponents")
        if n < 0:
            return 1 / (self ** (-n))
        result = None
        base = self
        m = n
        while m:
            if m & 1:
                result = base if result is None else result * base
            m >>= 1
            if m:
                base = base * base
        if result is None:
            one = _ring_one(self.coeffs[0] if self.coeffs else 1)
            return PowerSeries.constant(one, self.order)
        return result

    # -- calculus ------------------------------------------------------------

    def differentiate(self) -> "PowerSeries":
        coeffs = [(self.valuation + i) * c for i, c in enumerate(self.coeffs)]
        return PowerSeries(coeffs, self.valuation - 1, self.order - 1)

    def integrate(self) -> "PowerSeries":
        """Termwise antiderivative with zero constant term (valuation must be > -1)."""
        a = self.normalized() if self.valuation < 0 else self
        if a.valuation < 0:
            raise ValueError("cannot integrate a series containing x^(-1)")
        coeffs = [c / (a.valuation + i + 1) for i, c in enumerate(a.coeffs)]
        return PowerSeries(coeffs, a.valuation + 1, a.order + 1)

    # -- analytic operations ---------------------------------------------------

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term (valuation >= 1 after trimming)."""
        a = self.normalized()
        if a.valuation < 1:
            raise ValueError("exp requires a series with zero constant term")
        order = a.order
        one = _ring_one(a.coeffs[0]) if a.coeffs else 1
        e = [one * 0] * max(order, 1)
        e[0] = one
        # n e_n = sum_{k=1}^{n} k a_k e_{n-k}
        for n in range(1, order):
            acc = None
            kmax = min(n, a.order - 1)
            for k in range(a.valuation, kmax + 1):
                ak = a._at(k)
                if _is_exact_zero(ak):
                    continue
                term = (k * ak) * e[n - k]
                acc = term if acc is None else acc + term
            e[n] = (acc / n) if acc is not None else one * 0
        return PowerSeries(e[:order], 0, order)

    def log(self) -> "PowerSeries":
        """log of a series with constant term exactly 1."""
        a = self.normalized()
        if a.valuation != 0 or not _is_exact_one_coeff(a.coeffs[0]):
            raise ValueError("log requires constant term exactly 1")
        return (a.differentiate() / a).integrate().truncate(a.order)

    def pow_real(self, alpha) -> "PowerSeries":
        """Fractional/scalar power via the binomial series.

        Requires constant coefficient 1 after trimming (factor scalars out
        yourself; this keeps exact arithmetic exact).  ``alpha`` may be any
        scalar: int, Fraction, mpf, or complex (the binomial series is formal).
        """
        a = self.normalized()
        if a.valuation != 0 or not _is_exact_one_coeff(a.coeffs[0]):
            raise ValueError("pow_real requires constant term exactly 1")
        order = a.order
        u = (a - 1).normalized()
        one = _ring_one(a.coeffs[0])
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

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(x)); inner must have valuation >= 1."""
        b = inner.normalized()
        if b.valuation < 1:
            raise ValueError("composition requires inner valuation >= 1")
        if self.valuation < 0:
            raise ValueError("composition of Laurent series is not supported")
        order = min(b.order, b.valuation * self.order)
        one = _ring_one(self.coeffs[0]) if self.coeffs else 1
        acc = PowerSeries.constant(one * 0, order)
        for k in range(self.order - 1, -1, -1):
            acc = (acc * b).truncate(order) + self._at(k)
        return acc.truncate(order)

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if _is_exact_zero(c):
                continue
            parts.append(f"({c})*x^{self.valuation + i}")
            shown += 1
            if shown >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"PowerSeries({body} + O(x^{self.order}))"


# -- coefficient-ring helpers ----------------------------------------------------


def _is_exact_zero(c) -> bool:
    if isinstance(c, XPolynomial):
        return c.is_zero()
    try:
        return c == 0
    except TypeError:
        return False


def _is_exact_one(c) -> bool:
    try:
        return c == 1
    except TypeError:
        return False


def _is_exact_one_coeff(c) -> bool:
    if isinstance(c, XPolynomial):
        return c.degree == 0 and c.coeffs[0] == 1
    return _is_exact_one(c)


def _ring_one(sample):
    """A multiplicative identity compatible with the coefficient ring of ``sample``."""
    if isinstance(sample, XPolynomial):
        return XPolynomial([1])
    return sample * 0 + 1
