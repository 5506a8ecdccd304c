"""Arbitrary-precision plumbing: precision policy, constants, Bernoulli numbers.

All real arithmetic rides on mpmath ``mpf`` values (binary mantissa/exponent,
deterministic round-to-nearest at the active precision).  Every public
operation in this package takes a target precision ``prec`` in bits, works
internally at ``prec`` plus guard bits, and rounds the result back to
``prec``.  Exact rational bookkeeping uses ``fractions.Fraction``.

Parallelism is process-only: ``mp.workprec`` mutates mpmath's
process-global context, so no computation here may run on two threads of
one process at once.  The module caches are plain dicts for that reason.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Union

from mpmath import mp, mpf

Rational = Union[int, Fraction]
RealLike = Union[int, Fraction, mpf]

MIN_PRECISION = 16

_const_cache: dict[tuple[str, int], mpf] = {}
_bernoulli_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


class PrecisionError(ValueError):
    """Requested precision below the supported minimum."""


def guard_bits(term_count: int) -> int:
    """Guard bits for an operation touching roughly ``term_count`` terms."""
    return 32 + max(0, math.ceil(math.log2(term_count + 2)))


def check_precision(prec: int) -> None:
    if prec < MIN_PRECISION:
        raise PrecisionError(f"precision must be >= {MIN_PRECISION} bits, got {prec}")


def working_prec(prec: int, term_count: int = 1) -> int:
    check_precision(prec)
    return prec + guard_bits(term_count)


def tolerance_mpf(tol, wp: int) -> mpf:
    """The acceptance tolerance ``tol`` (a decimal string) as an mpf at
    ``wp`` bits; NaN, infinities and values <= 0 are rejected."""
    with mp.workprec(wp):
        try:
            value = +mpf(str(tol))
        except ValueError:
            value = mp.nan
    if not (mp.isfinite(value) and value > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    return value


def to_mpf(x: RealLike, prec: int) -> mpf:
    """Convert ``x`` to an mpf rounded at ``prec`` bits."""
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / x.denominator
        return +mpf(x)


def round_to(x: mpf, prec: int) -> mpf:
    with mp.workprec(prec):
        return +x


def real_const(name: str, prec: int) -> mpf:
    """Fundamental constant (``pi``, ``log2`` or ``euler_gamma``) at ``prec`` bits."""
    check_precision(prec)
    key = (name, prec)
    cached = _const_cache.get(key)
    if cached is not None:
        return cached
    with mp.workprec(prec + 8):
        if name == "pi":
            value = +mp.pi
        elif name == "log2":
            value = +mp.ln2
        elif name == "euler_gamma":
            value = +mp.euler
        else:
            raise ValueError(f"unknown constant {name!r}")
    value = round_to(value, prec)
    _const_cache[key] = value
    return value


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2), memoized.

    Odd indices >= 3 are zero; even indices come from the defining
    recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 restricted to even j plus
    the explicit B_1 term.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    k = n // 2
    while len(_bernoulli_even) <= k:
        m = len(_bernoulli_even)
        nn = 2 * m
        s = Fraction(0)
        for j in range(m):
            s += comb(nn + 1, 2 * j) * _bernoulli_even[j]
        s += Fraction(-(nn + 1), 2)  # B_1 contribution, C(n+1,1) * (-1/2)
        _bernoulli_even.append(-s / (nn + 1))
    return _bernoulli_even[k]


def real_to_str(x: mpf, prec: int) -> str:
    """Deterministic decimal-string form carrying the full precision."""
    dps = max(3, int(prec * 0.30103) + 2)
    with mp.workprec(prec + 8):
        return mp.nstr(mpf(x), dps, strip_zeros=False)

