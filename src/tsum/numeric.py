"""Arbitrary-precision plumbing: precision policy, argument checks, exact
balls, Bernoulli numbers.

Every public operation in this package that returns a number takes a
target precision ``prec`` in bits; the jets and the depth-1 constants are
exact ``Terms`` and take none.  A kernel value (Hurwitz zeta, its
alternating form, digamma) is rounded once to ``prec`` from the exact
integers of the fixed-point kernel, and so is a sum of rationals times
products of such values (``special.kernel_sums``: the depth-1 constants,
pi tan, pi sec, the jets' coefficients, the closed side of every identity
check and the symbolic reductions), with guard bits for its measured
cancellation.  Only the series engine works at ``prec`` plus guard bits
and rounds back to ``prec``.  Every value past the engines is a ``Ball``,
by one radius rule: a value rounded once at ``prec`` from a sum that kept
prec + 8 bits (``kernel_sums``, ``eval_symbolic``, ``ttilde``) lies within
2^(1-prec) of its size, and a ``SeriesResult`` within its ``tail_bound``.
No computation reads mpmath's process-global precision; every mpmath call
names its own.  Parallelism is still process-only: the module caches and
the tables that grow in place (``_bernoulli_even``, ``_tangent_column``,
``special._coeff_tables``) have no lock.  The Bernoulli numbers are exact
fractions from an integer pass over the tangent numbers that is extended
as far as asked, never redone, with no zeta evaluation.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Union

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_pos, round_nearest, to_str

Rational = Union[int, Fraction]

MIN_PRECISION = 16
_DECIMAL = re.compile(r"\s*\+?(?:\d+\.?\d*|\.\d+)(?:[eE]([-+]?\d+))?\s*")

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


def check_tolerance(tol: str) -> Fraction:
    """The tolerance ``tol``, a positive decimal string such as "1e-40", as
    an exact Fraction; anything else is a DomainError, and so is a decimal
    exponent of 10^5 or more in size, read before any power of ten is built."""
    match = isinstance(tol, str) and _DECIMAL.fullmatch(tol)
    if not match or len((match[1] or "").lstrip("+-0")) > 5 or not (value := Fraction(tol)):
        raise DomainError("tolerance must be a positive decimal number with an exponent "
                          f"below 10^5 in size, got {tol!r}")
    return value


def _exact(x: mpf) -> "Ball":
    """A finite mpf as a ball of radius 0."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ArithmeticError(f"a ball needs a finite value, not {x}")
    return Ball(-man if sign else man, 0, exp)


class Ball:
    """The reals within rad 2^exp of mid 2^exp, on Python ints.  + - * keep
    the midpoint exact and add to rad all that the radii can move it.  * by
    a rational p/q floors at a unit 2^exp/2^k, 2^k >= q, and + of one adds
    it times 1 at 2^min(exp, 0); each adds to rad what its floor drops.
    ``round`` is the one rounding."""

    __slots__ = ("mid", "rad", "exp")

    def __init__(self, mid: int, rad: int = 0, exp: int = 0):
        self.mid, self.rad, self.exp = mid, rad, exp

    @classmethod
    def from_series(cls, res) -> "Ball":
        """A ``SeriesResult``'s value within its ``tail_bound``."""
        bound = _exact(res.tail_bound)
        return _exact(res.value) + cls(0, bound.mid, bound.exp)

    @classmethod
    def from_rounded(cls, v: mpf, prec: int) -> "Ball":
        """``v``, rounded once at ``prec``: 2^(1-prec) |v| is under 2 units of
        2^(top - prec), |v| < 2^top."""
        x = _exact(v)
        return x + cls(0, 2 if x.mid else 0, x.exp + abs(x.mid).bit_length() - prec)

    def __add__(self, other) -> "Ball":
        if not isinstance(other, Ball):
            other = Ball(1 << max(-self.exp, 0), 0, min(self.exp, 0)) * other
        low = min(self.exp, other.exp)
        a, b = self.exp - low, other.exp - low
        return Ball((self.mid << a) + (other.mid << b), (self.rad << a) + (other.rad << b), low)

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad, self.exp)

    def __sub__(self, other) -> "Ball":
        return self + -other

    def __mul__(self, other) -> "Ball":
        if isinstance(other, Ball):
            return Ball(self.mid * other.mid, abs(self.mid) * other.rad
                        + self.rad * (abs(other.mid) + other.rad), self.exp + other.exp)
        n, d = other.numerator, other.denominator  # an int or a Fraction
        k = (d - 1).bit_length()
        mid, rest = divmod(self.mid * n << k, d)
        return Ball(mid, -(-(self.rad * abs(n) << k) // d) + (rest != 0), self.exp - k)

    def round(self, prec: int) -> "Ball":
        """The midpoint to ``prec`` bits, to nearest with ties to even as
        mpmath's round_nearest, and rad widened by the move."""
        shift = abs(self.mid).bit_length() - prec
        if shift <= 0:
            return self
        half = 1 << shift - 1
        q, r = divmod(abs(self.mid), half << 1)
        q += r > half or r == half and q & 1
        near = (q if self.mid > 0 else -q) << shift
        return Ball(near, self.rad + abs(self.mid - near), self.exp)

    def upper(self) -> Fraction:
        """(|mid| + rad) 2^exp: no point of the ball is larger in size."""
        top = abs(self.mid) + self.rad
        return Fraction(top << self.exp) if self.exp >= 0 else Fraction(top, 1 << -self.exp)

    def mpf(self) -> mpf:
        """The midpoint as an mpf, exactly."""
        return mp.make_mpf(from_man_exp(self.mid, self.exp))


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

