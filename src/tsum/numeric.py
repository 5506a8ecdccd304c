"""Arbitrary-precision plumbing: precision policy, argument checks, Bernoulli numbers.

All real arithmetic rides on mpmath ``mpf`` values (binary mantissa/exponent,
deterministic round-to-nearest at the active precision).  Every public
operation in this package that returns a number takes a target precision
``prec`` in bits; the jets and the depth-1 constants are exact ``Terms``
and take none.  A kernel value (Hurwitz zeta, its alternating form,
digamma) is rounded once to ``prec`` from the exact integers of the
fixed-point kernel.  A value that is a sum of rationals times products of
such values (a depth-1 constant, log 2 = alt_zeta(1) and pi = -4
t_bar(1) among them, pi tan, pi sec and the coefficients of their jets,
those of the Psi jets, zeta(1; a), the closed side of every identity
check, residue checks included, and the symbolic reductions) is added
exactly from kernel values by ``special.kernel_sums``, with as many guard
bits as its measured cancellation needs, and is rounded once too.
Only composite computations (the series engine and the series sides) work
at ``prec`` plus guard bits and round the result back to ``prec``.  Exact rational
bookkeeping uses ``fractions.Fraction``, and a fraction becomes an mpf by
one correct rounding.  The Bernoulli numbers are exact fractions from an
integer pass over the tangent numbers that is extended as far as asked,
never redone, with no zeta evaluation.

Parallelism is process-only: ``mp.workprec`` mutates mpmath's
process-global context, so no computation here may run on two threads of
one process at once.  The module caches are plain dicts for that reason.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

from mpmath import mp, mpf
from mpmath.libmp import from_rational, mpf_pos, round_nearest, to_str

Rational = Union[int, Fraction]
RealLike = Union[int, Fraction, mpf]

MIN_PRECISION = 16

_tolerance_cache: dict[tuple[str, int], mpf] = {}
_bernoulli_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...
# stages 1..k of T_k, k = len(_bernoulli_even) - 1: the state of the tangent pass
_tangent_column: list[int] = []


class PrecisionError(ValueError):
    """Requested precision below the supported minimum."""


class DomainError(ValueError):
    """Argument outside the supported domain."""


def guard_bits(term_count: int) -> int:
    """Guard bits for an operation touching roughly ``term_count`` terms."""
    return 32 + max(0, math.ceil(math.log2(term_count + 2)))


def check_precision(prec: int) -> None:
    """``prec`` must be an int of at least ``MIN_PRECISION`` bits."""
    if check_integer(prec, "precision", PrecisionError) < MIN_PRECISION:
        raise PrecisionError(f"precision must be >= {MIN_PRECISION} bits, got {prec}")


def check_rational(x: Rational, name: str) -> Fraction:
    """``x`` as a Fraction; anything but an int or a Fraction (a float, an
    mpf, a string) is a DomainError of ``name``."""
    if not isinstance(x, (int, Fraction)):
        raise DomainError(f"{name} takes rational arguments, not {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def check_integer(x, name: str, error: type[ValueError] = DomainError) -> int:
    """``x`` as an int; anything without an exact integer value (a float, a
    Fraction, an mpf) is an ``error`` of ``name``."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{name} takes integer arguments, not {x!r}") from None


def tolerance_mpf(tol, wp: int) -> mpf:
    """The acceptance tolerance ``tol`` (a decimal string) as an mpf at
    ``wp`` bits; NaN, infinities and values <= 0 are rejected.  Kept per
    (str(tol), wp), which is all the value depends on: an mpf is immutable."""
    key = (str(tol), wp)
    value = _tolerance_cache.get(key)
    if value is None:
        with mp.workprec(wp):
            try:
                value = +mpf(key[0])
            except ValueError:
                value = mp.nan
        if not (mp.isfinite(value) and value > 0):
            raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
        _tolerance_cache[key] = value
    return value


def to_mpf(x: RealLike, prec: int) -> mpf:
    """Convert ``x`` to an mpf correctly rounded at ``prec`` bits."""
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, prec, round_nearest))
    with mp.workprec(prec):
        return +mpf(x)


def round_to(x: mpf, prec: int) -> mpf:
    with mp.workprec(prec):
        return +x


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2), from a table of the
    even ones grown by the tangent numbers T_k, tan z = sum_k T_k
    z^(2k-1)/(2k-1)!, and B_2k = (-1)^(k-1) 2k T_k/(4^k (4^k - 1)).

    Brent and Harvey's pass starts from T_k = (k-1)! and sets T_k <- (k-j)
    T_(k-1) + (k-j+2) T_k at stage j = 2, 3, ... for every k >= j.  Taken one
    column k at a time, stages 1..k of T_k follow from those of T_(k-1), so the
    table is extended, never refilled: it holds B_2k up to the largest index
    asked for, and all B_m, m <= n, cost O(n^2) products of an integer by a
    small one, whatever the order of the requests."""
    n = check_integer(n, "bernoulli")
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    table, column = _bernoulli_even, _tangent_column
    for k in range(len(table), n // 2 + 1):
        column.append(0)  # T_(k-1) has no stage k, where its factor k - j is 0
        cur = [(k - 1) * column[0] if k > 1 else 1]
        for j in range(2, k + 1):
            cur.append((k - j) * column[j - 1] + (k - j + 2) * cur[-1])
        column[:] = cur
        table.append(Fraction((-1) ** (k - 1) * 2 * k * cur[-1], 4 ** k * (4 ** k - 1)))
    return table[n // 2]


def real_to_str(x: mpf, prec: int) -> str:
    """Deterministic decimal-string form carrying the full precision."""
    check_precision(prec)
    dps = max(3, int(prec * 0.30103) + 2)
    return to_str(mpf_pos(x._mpf_, prec + 8, round_nearest), dps, strip_zeros=False)

