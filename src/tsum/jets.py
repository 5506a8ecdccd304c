"""Truncated power-series (jet) arithmetic with inline leading poles.

A ``JetSeries`` at base point ``b`` with pole order ``m`` and order ``K``
stores K+1 coefficients ``c_0 .. c_K`` representing

    f(z) = sum_i c_i * (z - b)**(i - m),

so ``c_0`` multiplies the most singular power and the residue (coefficient
of the (-1)-power) sits at index ``m - 1``.  Arithmetic is the exact
truncation of formal Laurent-series arithmetic at K+1 stored coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpf

from .numeric import RealLike, to_mpf


class JetError(ValueError):
    """Incompatible operands or unsupported jet operation."""


@dataclass(frozen=True)
class JetSeries:
    base_point: mpf
    order: int
    coeffs: tuple[mpf, ...]
    pole_order: int
    prec: int

    def __post_init__(self):
        if self.order < 0 or self.pole_order < 0:
            raise JetError("order and pole_order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise JetError("coeffs length must equal order + 1")


def jet_from_coeffs(base: RealLike, coeffs: Sequence[RealLike], prec: int,
                    pole_order: int = 0) -> JetSeries:
    b = to_mpf(base, prec)
    cs = tuple(to_mpf(c, prec) for c in coeffs)
    return JetSeries(b, len(cs) - 1, cs, pole_order, prec)


def _check_compatible(a: JetSeries, b: JetSeries) -> None:
    if a.order != b.order:
        raise JetError(f"jet orders differ: {a.order} vs {b.order}")
    if a.base_point != b.base_point:
        raise JetError("jet base points differ")


def jet_mul(a: JetSeries, b: JetSeries) -> JetSeries:
    _check_compatible(a, b)
    prec = max(a.prec, b.prec)
    K = a.order
    with mp.workprec(prec):
        cs = [mpf(0)] * (K + 1)
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j in range(0, K + 1 - i):
                cb = b.coeffs[j]
                if cb != 0:
                    cs[i + j] = +(cs[i + j] + ca * cb)
    return JetSeries(a.base_point, K, tuple(cs), a.pole_order + b.pole_order, prec)


def jet_scale(a: JetSeries, factor: RealLike) -> JetSeries:
    with mp.workprec(a.prec):
        f = to_mpf(factor, a.prec) if isinstance(factor, (int, Fraction)) else factor
        cs = tuple(+(c * f) for c in a.coeffs)
    return JetSeries(a.base_point, a.order, cs, a.pole_order, a.prec)


def jet_residue(f: JetSeries) -> mpf:
    """Coefficient of the (-1)-power term of a jet with a genuine pole."""
    if f.pole_order < 1:
        raise JetError("jet_residue requires pole_order >= 1")
    if f.order < f.pole_order - 1:
        raise JetError("jet order insufficient to reach the residue coefficient")
    return f.coeffs[f.pole_order - 1]
