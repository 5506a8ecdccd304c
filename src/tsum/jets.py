"""Exact truncated power-series (jet) arithmetic with inline leading poles.

A ``JetSeries`` at rational base point ``b`` with pole order ``m`` and
order ``K`` stores K+1 coefficients ``c_0 .. c_K`` representing

    f(z) = sum_i c_i * (z - b)**(i - m),

so ``c_0`` multiplies the most singular power and the residue (coefficient
of the (-1)-power) sits at index ``m - 1``.  Arithmetic is the exact
truncation of formal Laurent-series arithmetic at K+1 stored coefficients,
with the coefficients' own + and *: rationals, or ``special.Terms`` that
stay unrounded until one ``special.kernel_sums`` rounds them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce


class JetError(ValueError):
    """Incompatible operands or unsupported jet operation."""


@dataclass(frozen=True)
class JetSeries:
    """Rational base, and rational or ``special.Terms`` coefficients."""

    base_point: object
    coeffs: tuple
    pole_order: int = 0

    def __post_init__(self):
        if not isinstance(self.base_point, (int, Fraction)):
            raise JetError(f"a jet takes a rational base point, not {self.base_point!r}")
        try:
            pole_order = operator.index(self.pole_order)
        except TypeError:
            raise JetError(f"pole_order takes integer arguments, not {self.pole_order!r}") from None
        if not self.coeffs or pole_order < 0:
            raise JetError("a jet needs a coefficient and a non-negative pole_order")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def jet_mul(a: JetSeries, b: JetSeries) -> JetSeries:
    """The product jet: coefficient k is sum_i a_i b_(k-i) in order of i."""
    if a.order != b.order:
        raise JetError(f"jet orders differ: {a.order} vs {b.order}")
    if a.base_point != b.base_point:
        raise JetError("jet base points differ")
    cs = tuple(reduce(operator.add, [a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)])
               for k in range(a.order + 1))
    return JetSeries(a.base_point, cs, a.pole_order + b.pole_order)


def jet_residue(f: JetSeries):
    """Coefficient of the (-1)-power term of a jet with a genuine pole."""
    if f.pole_order < 1:
        raise JetError("jet_residue requires pole_order >= 1")
    if f.order < f.pole_order - 1:
        raise JetError("jet order insufficient to reach the residue coefficient")
    return f.coeffs[f.pole_order - 1]
