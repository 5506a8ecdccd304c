"""Truncated power-series (jet) arithmetic with inline leading poles.

A ``JetSeries`` at base point ``b`` with pole order ``m`` and order ``K``
stores K+1 coefficients ``c_0 .. c_K`` representing

    f(z) = sum_i c_i * (z - b)**(i - m),

so ``c_0`` multiplies the most singular power and the residue (coefficient
of the (-1)-power) sits at index ``m - 1``.  Arithmetic is the exact
truncation of formal Laurent-series arithmetic at K+1 stored coefficients.
``jet_mul`` takes rounded jets and exact ones (rational base, no precision)
alike, with the coefficients' own + and *.
"""

from __future__ import annotations

import operator
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from typing import Any, Sequence

from mpmath import mp

from .numeric import RealLike, to_mpf


class JetError(ValueError):
    """Incompatible operands or unsupported jet operation."""


@dataclass(frozen=True)
class JetSeries:
    """Rounded: mpf base and coefficients at ``prec`` bits.  Exact: rational
    base, ``prec`` None, and rational or ``special.Terms`` coefficients."""

    base_point: Any
    order: int
    coeffs: tuple
    pole_order: int
    prec: int | None

    def __post_init__(self):
        if self.order < 0 or self.pole_order < 0:
            raise JetError("order and pole_order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise JetError("coeffs length must equal order + 1")


def jet_from_coeffs(base: RealLike, coeffs: Sequence[RealLike], prec: int | None,
                    pole_order: int = 0) -> JetSeries:
    """A jet of base and coefficients rounded at ``prec`` bits, or kept as
    they are when ``prec`` is None."""
    if prec is None:
        return JetSeries(base, len(coeffs) - 1, tuple(coeffs), pole_order, None)
    cs = tuple(to_mpf(c, prec) for c in coeffs)
    return JetSeries(to_mpf(base, prec), len(cs) - 1, cs, pole_order, prec)


def _check_compatible(a: JetSeries, b: JetSeries) -> None:
    if a.order != b.order:
        raise JetError(f"jet orders differ: {a.order} vs {b.order}")
    if a.base_point != b.base_point:
        raise JetError("jet base points differ")
    if (a.prec is None) != (b.prec is None):
        raise JetError("a rounded jet and an exact jet do not multiply")


def jet_mul(a: JetSeries, b: JetSeries) -> JetSeries:
    """The product jet: coefficient k is sum_i a_i b_(k-i) in order of i,
    each product and partial sum of rounded jets rounded at the larger
    precision, those of exact jets exact."""
    _check_compatible(a, b)
    prec = max(a.prec, b.prec) if a.prec else None
    K = a.order
    with mp.workprec(prec) if prec else nullcontext():
        cs = tuple(reduce(operator.add, [a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)])
                   for k in range(K + 1))
    return JetSeries(a.base_point, K, cs, a.pole_order + b.pole_order, prec)


def jet_residue(f: JetSeries):
    """Coefficient of the (-1)-power term of a jet with a genuine pole."""
    if f.pole_order < 1:
        raise JetError("jet_residue requires pole_order >= 1")
    if f.order < f.pole_order - 1:
        raise JetError("jet order insufficient to reach the residue coefficient")
    return f.coeffs[f.pole_order - 1]
