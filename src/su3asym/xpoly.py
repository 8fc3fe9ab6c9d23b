"""Dense polynomials in one variable ``x`` with arbitrary numeric coefficients.

These are the coefficient objects that ride inside the power series of the
saddle-point pipeline: there, a series in the small parameter carries at each
order a *polynomial in the integration variable x* (with complex coefficients
in general — odd powers of x enter multiplied by i).  Only a small, exactly
specified set of ring operations is needed: add/sub, scalar and polynomial
multiply, division by a scalar, equality with polynomials and scalars (so
that ``p == 0`` and ``p == 1`` are exact tests), degree queries, and
coefficient access.

Coefficients may be ints, Fractions, mpf or mpc; the class never converts or
normalises them beyond what the arithmetic itself produces.  Exact zeros are
trimmed from the top on construction, but numerically tiny coefficients are
*kept* — callers that want a tolerance-aware degree use
:meth:`XPolynomial.effective_degree`.
"""

from __future__ import annotations


class XPolynomial:
    """Polynomial sum(c[k] * x**k), stored densely as a coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(0,)):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Index of the highest stored coefficient (0 for the zero polynomial)."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        """Coefficient of x**k (0 beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def effective_degree(self, tol) -> int:
        """Highest k with |coeff(k)| > tol, or -1 if all are below tol."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[k]) > tol:
                return k
        return -1

    def __eq__(self, other):
        if isinstance(other, XPolynomial):
            n = max(len(self.coeffs), len(other.coeffs))
            return all(self.coeff(k) == other.coeff(k) for k in range(n))
        if isinstance(other, (int, float, complex)) or hasattr(other, "real"):
            return self.degree == 0 and self.coeffs[0] == other
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, XPolynomial):
            other = XPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return XPolynomial(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return XPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, XPolynomial):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return XPolynomial(out)
        return XPolynomial([c * other for c in self.coeffs])

    def __rmul__(self, other):
        # scalars only: multiplication of coefficients is commutative here
        return XPolynomial([other * c for c in self.coeffs])

    def __truediv__(self, scalar):
        return XPolynomial([c / scalar for c in self.coeffs])

