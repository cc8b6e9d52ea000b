"""Symbolic certificates for rewrites in the closed forms.

Each identity is reduced to 0 by sympy, so a wrong rewrite fails here at
the formula rather than at a sampled point. sympy is a test dependency
only: neither the package nor `verify` imports it.
"""

import sympy
from sympy import groebner, symbols, together

S1, C1, S2, C2, RHO = symbols("s1 c1 s2 c2 rho")
# Unit targets d_i = s_i^2 with 1 - d_i = c_i^2, s_i, c_i >= 0: identities
# hold modulo the ideal of s_i^2 + c_i^2 = 1, whose Groebner basis this is.
CIRCLE = groebner([S1**2 + C1**2 - 1, S2**2 + C2**2 - 1], S1, C1, S2, C2, RHO, order="grevlex")
D1, D2 = S1**2, S2**2
# q = sqrt((1 - d1)(1 - d2)), a = sqrt(d1 d2), w as in the region-B branch.
Q, A, W = C1 * C2, S1 * S2, S1 * C2 - S2 * C1


def _remainder(expr):
    """The numerator of expr reduced modulo the circle ideal: 0 if and only
    if the numerator lies in the ideal."""
    numerator, _ = sympy.fraction(together(expr))
    return CIRCLE.reduce(sympy.expand(numerator))[1]


def _region_b_den_error(gap):
    """The region-B branch's den, with sqrt(1 - w^2) = a + q, minus the
    written d1 d2 - (rho - q)^2, reduced."""
    den = ((1 - RHO) - W**2 / (1 + (A + Q))) * (A + gap)
    return _remainder(den - (D1 * D2 - (RHO - Q) ** 2))


def test_region_b_denominator_is_the_written_one():
    # The joint-rate kernel forms den = d1 d2 - (rho - q)^2 without
    # cancellation, from its gap (d1 + d2 - d1 d2) / (1 + q) - (1 - rho)
    # and 1 - w^2 = (a + q)^2; a + q >= 0, so a + q is its root.
    assert _remainder(W**2 + (A + Q) ** 2 - 1) == 0
    assert _region_b_den_error((D1 + D2 - D1 * D2) / (1 + Q) - (1 - RHO)) == 0


def test_a_wrong_rewrite_leaves_a_remainder():
    # 1 - q in place of 1 + q in the gap's denominator.
    assert _region_b_den_error((D1 + D2 - D1 * D2) / (1 - Q) - (1 - RHO)) != 0
