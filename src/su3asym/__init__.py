"""su3asym: exact counting and high-precision asymptotics for the SU(3)
representation-growth sequence r(n), together with the associated double zeta
function omega(s) and the saddle-point expansion machinery connecting them.

Public surface:

* :mod:`su3asym.series` / :mod:`su3asym.xpoly` — truncated formal power series
  (``exp`` and real powers by their O(n^2) recurrences) with mpf, polynomial
  or ``Fraction`` coefficients, and the polynomial coefficients used by the
  saddle pipeline.
* :mod:`su3asym.special_functions` — pole-checked complex Gamma and Riemann
  zeta over mpmath, exact Bernoulli numbers.
* :mod:`su3asym.exact_counting` — big-integer counting of SU(3) weighted
  partitions (Euler-product DP) plus an exact-integer exp(log G) oracle.
* :mod:`su3asym.witten_zeta` — the double sum omega(s) = sum 1/(j^s k^s (j+k)^s):
  direct Euler-Maclaurin evaluation, contour-integral continuation, residues,
  and an even-argument zeta identity check.
* :mod:`su3asym.saddle_expansion` — the asymptotic-expansion constants
  (X, Y, A1..A5, C_j), the saddle-point function in closed form, and the
  polynomial ladders derived from the saddle-point analysis.
* :mod:`su3asym.harness` — end-to-end comparisons of exact counts against the
  asymptotic expansion, generating-function residual checks, CSV tables.
* :mod:`su3asym.cli` — the ``su3asym`` command-line interface.
"""

__version__ = "0.1.0"
