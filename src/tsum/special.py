"""Single-variable special functions and their jets.

One fixed-point kernel computes every Hurwitz zeta, alternating Hurwitz
zeta and digamma value: sum_{n>=0} sigma^n (n + x)^(-s) at a rational x
that is not a non-positive integer, in integers scaled by 2^F.  For each
exponent it sums the series directly when its terms fall below 2^-F within
the head that the asymptotic series would need; otherwise it adds that
head to Euler-Maclaurin (sigma = +1) or Boole summation (sigma = -1) at
x + n.  The exponents summed that way share that head and one term table:
the series of the largest runs once, and each lower exponent's terms follow
from the one above it by a small multiplication and division per term, a
walk down in s.  The series' coefficients |B_2k|/(2k)! are exact up to a
crossover that grows with F and come from zeta(2k), a sum of a few powers,
past it.  Digamma is minus the sigma = +1, s = 1 case, whose divergent
1/(s-1) gives way to a logarithm.  F rises until each value keeps
prec + 56 bits, and each value is rounded once.

Everything else is a sum of rationals times products of such values
K_sigma(s; x), added exactly and rounded once (``kernel_sums``): pi tan
and pi sec come from pi cot(pi x) and pi csc(pi x), the sums of
sigma^n/(x + n) over all integers n, so each Taylor coefficient at a
rational base is a difference of two kernel values (at a pole, after the
1/z term, a multiple of one); the Psi jets and zeta(1; a) are kernel values
plus rationals; each depth-1 constant (zeta, the alternating zeta, t, T
and their alternating forms) is one kernel term, a rational times a value
at 1 or 1/2; the closed forms of the identity checks and the symbolic
reductions multiply these.  Such a sum stays unrounded as ``Terms`` until
one ``kernel_sums``, the public rounding of every such sum, rounds it: the
depth-1 constants return their term, so zeta(3) is
``kernel_sums([riemann_zeta(3)], prec)[0]``, and ``kernel_jet`` and
``psi_jet`` return exact jets of ``Terms``, which the residue checks
multiply out and the lemma checks round.  Every function here takes
rational arguments only.

``tail_zeta_batch`` serves the many exponents the series engine needs at
one point in one pass; the per-value functions are batches of one, cached
under the same keys.

Conventions for the divergent boundary symbols: ``ttilde(1)`` is 0, and
zeta(1; a) is psi(1/2) - psi(a) in ``zeta_terms``, the one reading that
the pair theorems and their corollaries take; ``riemann_zeta(1)`` is an
error.  The symbolic zeta(1) -> -2 log 2 rule lives with the reductions.
"""

from __future__ import annotations

import bisect
import itertools
import math
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_div, mpf_log, mpf_pi, mpf_pow_int,
                          mpf_rdiv_int, mpf_shift, round_nearest, to_int)

from .jets import JetSeries
from .numeric import (DomainError, Rational, bernoulli, check_integer, check_precision,
                      check_rational)

_HALF = Fraction(1, 2)


class KernelKind(Enum):
    PI_TAN = "pi_tan"
    PI_OVER_COS = "pi_over_cos"


_zeta_cache: dict = {}  # (sigma, x as num, den, prec) -> {s: kernel value}
# sigma -> [G, c_k as (m, e), the source of further entries]: m 2^-e is c_k to
# G + 8 bits, G the largest F asked so far rounded up to a multiple of 256; a
# call at F uses m >> (G - F)
_coeff_tables: dict = {1: [0, []], -1: [0, []]}


def _admissible(x: Rational, name: str) -> Fraction:
    """x as a Fraction, if rational and not a non-positive integer."""
    x = check_rational(x, name)
    if x.denominator == 1 and x <= 0:
        raise DomainError(f"{name} is undefined at the non-positive integer {x}")
    return x


# ---------------------------------------------------------------------------
# The fixed-point kernel: many exponents at one point
# ---------------------------------------------------------------------------

def _coefficients(sigma: int, G: int):
    """c_k = |B_2k|/(2k)!, times 4^k - 1 at sigma = -1, as pairs (m, e) with
    m 2^-e near c_k and m of G + 8 or G + 9 bits, for k = 1, 2, ... in turn.

    Up to the crossover k0 = (G + 8)/8, m = floor(c_k 2^e) from the exact
    B_2k of ``bernoulli``.  Past k0, c_k = 2 zeta(2k) (2 pi)^(-2k) and
    (4^k - 1) c_k = 2 lambda(2k) pi^(-2k), lambda(2k) the sum of n^(-2k) over
    odd n (Fillebrown), worked at P = G + 48 bits.  Each n^(-2k) is floored
    to 2^-P and carried to k + 1 by one floor division by n^2, and the sum
    stops at the first n with n^(-2k) < 2^-P: at most 21 terms, as 2k >
    (G + 8)/4, and fewer later.  Each kept term errs by under 4/3 units of
    2^-P and the dropped ones add up to under 2, so zeta(2k) or lambda(2k)
    errs by under 30.  The power of pi, kept to P + 16 bits with one product
    per k, errs relatively by under k + 2 units of 2^-P.  While k < 2^38
    these stay below a unit of m, so m is the exact floor or one off it.
    """
    k0 = (G + 8) // 8
    fac = 1  # (2k)!
    for k in range(1, k0 + 1):
        fac *= (2 * k - 1) * 2 * k
        b = bernoulli(2 * k)
        num, den = abs(b.numerator) * (1 if sigma == 1 else 4 ** k - 1), b.denominator * fac
        e = G + 8 - num.bit_length() + den.bit_length()
        yield (num << e) // den, e
    P, k, step = G + 48, k0 + 1, 1 if sigma == 1 else 2
    powers, squares = [], []  # floor(2^P n^(-2k)) and n^2 for n = 1 + step, 1 + 2 step, ...
    for n in itertools.count(1 + step, step):
        t = (1 << P) // n ** (2 * k)
        if not t:
            break
        powers.append(t)
        squares.append(n * n)
    base = mpf_pow_int(mpf_pi(P + 16, round_nearest), 2, P + 16, round_nearest)
    base = mpf_shift(base, 2) if sigma == 1 else base  # 4 pi^2 or pi^2, exactly
    _, pw, pe, _ = mpf_pow_int(base, -k, P + 16, round_nearest)  # pw 2^pe = base^-k
    _, r, re, _ = mpf_rdiv_int(1, base, P + 16, round_nearest)
    while True:
        prod = ((1 << P) + sum(powers)) * pw  # 2^(P - 1 - pe) c_k
        shift = prod.bit_length() - G - 8
        yield prod >> shift, P - 1 - pe - shift
        powers = [t // q for t, q in zip(powers, squares)]
        while powers and not powers[-1]:
            powers.pop()
        pw *= r
        shift = pw.bit_length() - P - 16
        pw, pe = pw >> shift, pe + re + shift


def _scaled_tails(sigma: int, ss: list[int], Y: int, D: int, F: int) -> list[int]:
    """2^F y^(s-1) sum_{n>=0} sigma^n (n + y)^(-s) at y = Y/D, in fixed point,
    for each s of the sorted ss; at sigma = +1, s = 1 the constant term of the
    Laurent series at s = 1, -psi(y), where y^(1-s)/(s-1) leaves -ln y.

    Euler-Maclaurin gives 1/(s-1) + 1/(2y) + sum_k (-1)^(k-1) E_k(s), E_k(s) =
    c_k (s)_(2k-1) y^(-2k), c_k = |B_2k|/(2k)!; Boole summation the same
    without 1/(s-1) and with (4^k - 1) c_k, each c_k held to F + 8 bits (ln y
    to F + 16) by the table of ``_coefficients`` at a width G >= F, read as
    m >> (G - F).  For these completely monotone summands the remainder is
    at most the first omitted term.  So the terms of the top exponent
    t = max(ss) run to the first below one unit; past the smallest term, at
    t + 2k > c pi y, that raises ArithmeticError.  This one term table serves every
    exponent: each lower one walks down from the one above,
    E_k(s - 1) = E_k(s) (s - 1)/(s + 2k - 2), one small multiplication and
    one floor per term, and zeros are dropped from the end.  E_k(s) <= E_k(t),
    so the first omitted term of s is below one unit too.

    The error, in units 2^-F: a top term errs by under 2 units.  The floor of
    the rise at step j reaches term k scaled by E_k c_j/E_j <= c_j while the
    terms fall, so these add up to under sum_j (4^j - 1) c_j < 0.3 units.  The
    coefficient read, of F + 7 bits or more, errs by under one unit of its own
    up to k0 (an exact floor, floored again) and under two past k0 (one off
    the exact floor at G + 8 bits), so it adds under E_k 2^-(F+6) units, below
    0.1 as the head keeps c pi y > t and so E_k <= E_1 < 4; the product takes
    one more floor.  Entries past k0 depend on G, so a value may too, within
    this count.  A walked term inherits the error of the term above it times
    (s - 1)/(s + 2k - 2) < 1, plus one floor, so E_k(s) errs by under
    t - s + 2 units, and the K terms of the table by under K(t - s + 2);
    1/(2y), 1/(s-1) or ln y and the omitted term add a unit each.  K stays
    below the index (c pi y - t)/2 of the smallest term at the head's y, which
    ``_head_length`` keeps under 3(t + 0.7 B + 6)/(c pi) + 1 for a head to B
    bits (a larger y only shortens the table), so K < t + 1.05 B + 13 <=
    t + 2.1 F + 13, as ``_fixed_sums`` takes B = F or 2F.  For t and F below
    2^24 the count is below 2^50 units, far inside the 2^54 that
    ``_zeta_batch``'s prec + 56 rule leaves a value (its relative error then
    stays under 2^-(prec+1)), so F needs no more bits.
    """
    table = _coeff_tables[sigma]
    if table[0] < F:
        G = -(-F // 256) * 256
        table[:] = [G, [], _coefficients(sigma, G)]
    G, coeffs, source = table
    Y2, D2 = Y * Y, D * D
    t = ss[-1]
    kmax = ((2 if sigma == 1 else 1) * 355 * Y // (113 * D) - t) // 2 + 1  # pi < 355/113
    rise = (t * D2 << F) // Y2  # 2^F (t)_(2k-1) y^(-2k), floored
    terms = []  # E_k(t), k = 1..K, in units
    for k in itertools.count(1):
        if k > kmax:
            raise ArithmeticError(f"tail series of exponent {t} at {Fraction(Y, D)} "
                                  f"cannot reach 2^-{F}")
        if k > len(coeffs):
            coeffs.append(next(source))
        m, e = coeffs[k - 1]
        term = (rise * (m >> (G - F))) >> (e - G + F)
        if not term:
            break
        terms.append(term)
        rise = rise * (t + 2 * k - 1) * (t + 2 * k) * D2 // Y2
    half = (D << F) // (2 * Y)
    out, at = [], t  # terms holds E_k(at)
    for s in reversed(ss):
        for u in range(at, s, -1):  # E_k(u - 1) = E_k(u) (u - 1)/(u + 2k - 2)
            terms = [E * (u - 1) // d for E, d in zip(terms, range(u, u + 2 * len(terms), 2))]
            while terms and not terms[-1]:
                terms.pop()
        at = s
        v = half + sum(terms[::2]) - sum(terms[1::2])
        if sigma == 1 and s > 1:
            v += (1 << F) // (s - 1)
        elif sigma == 1:  # ln y to F + 16 bits, truncated to 2^-F
            v -= to_int(mpf_shift(mpf_log(mpf_div(from_int(Y), from_int(D), F + 16, round_nearest),
                                          F + 16, round_nearest), F))
        out.append(v)
    return out[::-1]


def _head_length(sigma: int, s: int, x: Fraction, bits: int) -> int:
    """Unit shifts n after which the tail series of exponent s reaches
    2^-(bits + 8): its smallest term is about exp(-(z - s ln(z/s) - s)),
    z = c pi (x + n), with c = 2 for sigma = +1 and 1 for sigma = -1.  Past
    z = s that exponent grows with z, convexly, and it exceeds
    b = (bits + 8) ln 2 by z = 3 (s + b).  Newton's method from there finds
    the least such z from s and b alone; n >= z/(c pi) - x then follows in
    exact rationals, so x may be of any size."""
    b = (bits + 8) * math.log(2)
    z = 3.0 * (s + b)
    while True:
        step = (z - s * math.log(z / s) - s - b) / (1 - s / z)
        z -= step
        if step <= 1e-12 * z:
            break
    return max(0, math.ceil(Fraction(z / ((2 if sigma == 1 else 1) * math.pi)) - x))


def _direct_length(sigma: int, s: int, x: Fraction, F: int, n: int) -> int:
    """Fewest terms M <= n after which |x^(s-1) sum_{j>=M} sigma^j (x+j)^(-s)|
    < 2^-F, else n + 1.  Past x + M > 0 the rest is at most
    |x|^(s-1) (x+M)^(-s), times 1 + (x+M)/(s-1) for sigma = +1 (whose s = 1
    series diverges); with x = a/d and x + M = Y/d the test is exact in
    integers, |a|^(s-1) 2^F d < Y^s, or |a|^(s-1) 2^F ((s-1) d + Y) <
    (s-1) Y^s for sigma = +1."""
    if sigma == 1 and s == 1:
        return n + 1
    a, d = x.numerator, x.denominator
    bound = abs(a) ** (s - 1) << F

    def small(M: int) -> bool:
        Y = a + M * d
        if Y <= 0:
            return False
        if sigma == 1:
            return bound * ((s - 1) * d + Y) < (s - 1) * Y ** s
        return bound * d < Y ** s

    return bisect.bisect_left(range(n + 1), True, key=small)


def _fixed_sums(sigma: int, ss: list[int], x: Fraction, F: int) -> list[int]:
    """2^F x^(s-1) sum_{j>=0} sigma^j (x + j)^(-s) for sorted distinct ss; at
    sigma = +1, s = 1, 2^F (-psi(x)).

    The head n of the asymptotic path puts the smallest term of the series
    below 2^-(B+8), B = F for a batch of several exponents and 2F for a batch
    of one.  With ``_coefficients`` cheap past its crossover, a table term
    costs about what a head term does, and every exponent of a batch walks
    both, so a batch's head stops where the series can first reach 2^-F; a
    batch of one walks nothing, and there a head term, one division, is the
    cheaper.  An exponent whose terms fall below 2^-F within its own such
    head is summed directly, one floor division per term.  As the terms fall
    faster and the head grows with s, these are the largest exponents,
    so the search runs down from the top; the rest share the head n of the
    largest of them, and one term table at y = x + n > 0: ``_scaled_tails``
    runs the asymptotic series of the largest and walks its terms down in s
    to every other.  With V_s(y) from there,
    V_s(x) = sum_{j<n} sigma^j (x/(x+j))^(s-1)/(x+j) + sigma^n (x/y)^(s-1) V_s(y).
    Each head term is walked in s itself, head_j(s+1) = head_j(s) x/(x+j),
    and so is the ratio (x/y)^(s-1): one floor division at the first such
    exponent s0, then one multiplication and one floor per term and later
    unit of s.  A step multiplies the error a term inherits by |x/(x+j)|, so
    where |x+j| >= |x|, at every j for x > 0, a head term errs by under
    s - s0 + 1 units, and the ratio too.
    """
    num, den = x.numerator, x.denominator
    direct, n = {}, 0
    for s in reversed(ss):
        n = _head_length(sigma, s, x, F if len(ss) > 1 else 2 * F)
        m = _direct_length(sigma, s, x, F, n)
        if m > n:
            break
        direct[s] = m
    rest, y = [s for s in ss if s not in direct], num + n * den  # y/den = x + n
    tails = dict(zip(rest, _scaled_tails(sigma, rest, y, den, F) if rest else ()))
    qs = [num + j * den for j in range(n)]  # x + j = q/den
    head, out = None, []
    for s in ss:
        if s in direct:
            top = den * num ** (s - 1) << F
            out.append(sum(sigma ** j * (top // (num + j * den) ** s) for j in range(direct[s])))
            continue
        if head is None:  # ratio = 2^F (x/y)^(s-1), head_j = 2^F (x/(x+j))^(s-1)/(x+j)
            top, at = num ** (s - 1) << F, s
            ratio, head = top // y ** (s - 1), [top * den // q ** s for q in qs]
        for _ in range(at, s):
            ratio = ratio * num // y
            head = [h * num // q for h, q in zip(head, qs)]
        at = s
        v = sigma ** n * ratio * tails[s] >> F
        out.append(v + (sum(head) if sigma == 1 else sum(head[::2]) - sum(head[1::2])))
    return out


def _zeta_batch(sigma: int, ss, x: Fraction, prec: int) -> list[mpf]:
    """Kernel values for the exponents ss at x, each rounded once at ``prec``
    and cached per point and exponent.

    The one precision rule: a fixed-point sum v of ``_fixed_sums`` errs by
    under 2^50 units in its tail (the count in ``_scaled_tails``) and, for
    x > 0, under s per head term (the count in ``_fixed_sums``), so it must
    keep prec + 56 bits, which leave it 2^54 units; an exponent that falls
    short (its value cancels, next to a zero at x < 0 or of digamma) is
    summed again with F raised by the shortfall."""
    check_precision(prec)
    num, den = x.numerator, x.denominator
    cache = _zeta_cache.setdefault((sigma, num, den, prec), {})
    todo = sorted({s for s in ss if s not in cache})
    F = prec + 64 + (2 * num // den + 1).bit_length() + max(todo, default=0).bit_length()
    while todo:
        short = {}
        for s, v in zip(todo, _fixed_sums(sigma, todo, x, F)):
            lack = prec + 56 - abs(v).bit_length()
            if lack > 0:
                short[s] = lack
            else:  # zeta = v 2^-F x^(1-s); a divisor shifted by F would cost
                # mpmath's normalization F/8 wide shifts to strip its zero bits
                cache[s] = mp.make_mpf(mpf_div(
                    from_man_exp(v * den ** (s - 1), -F), from_int(num ** (s - 1)), prec,
                    round_nearest))
        todo = sorted(short)
        F += max(short.values(), default=0)
    return [cache[s] for s in ss]


def tail_zeta_batch(sigma: int, ss, x: Rational, prec: int) -> list[mpf]:
    """sum_{n>=0} sigma^n (n + x)^(-s) at one rational x, not a non-positive
    integer, for every integer s in ``ss``, s >= 2 at sigma = +1 (Hurwitz
    zeta) and s >= 1 at sigma = -1 (alternating Hurwitz zeta), each rounded
    once at ``prec``; one fixed-point pass serves every exponent not yet
    cached.  Digamma is minus the kernel's sigma = +1, s = 1 value (``digamma``).

    A ``range`` of exponents, as the series engine passes, is checked once:
    its items are ints by construction, and the domain test reads its least
    item.  Any other iterable is checked item by item."""
    x, sigma = _admissible(x, "the zeta family"), check_integer(sigma, "the zeta family")
    if isinstance(ss, range):
        least = min(ss[0], ss[-1]) if ss else None
    else:
        ss = [check_integer(s, "the zeta family") for s in ss]
        least = min(ss, default=None)
    if sigma not in (1, -1) or least is not None and least < (2 if sigma == 1 else 1):
        raise DomainError(f"sigma = {sigma}, s in {sorted(ss)}: the zeta family needs "
                          "sigma = +-1, s >= 2 (zeta(1; x) is convention-only), s >= 1 "
                          "at sigma = -1")
    return _zeta_batch(sigma, ss, x, prec)


# ---------------------------------------------------------------------------
# Single values from the kernel
# ---------------------------------------------------------------------------

def hurwitz_zeta(s: int, a: Rational, prec: int) -> mpf:
    """Hurwitz zeta zeta(s; a) = sum_{n>=0} (n+a)^(-s), integer s >= 2, rational a
    not a non-positive integer."""
    return tail_zeta_batch(1, [s], a, prec)[0]


def alt_hurwitz_zeta(s: int, a: Rational, prec: int) -> mpf:
    """Alternating Hurwitz zeta sum_{n>=0} (-1)^n (n+a)^(-s), s >= 1, rational a
    not a non-positive integer."""
    return tail_zeta_batch(-1, [s], a, prec)[0]


def digamma(a: Rational, prec: int) -> mpf:
    """psi(a) for rational a, not a non-positive integer: minus the kernel's
    sigma = +1, s = 1 value, sum_{j<n} 1/(a+j) - ln y + 1/(2y) + sum_k
    B_2k/(2k) y^(-2k) at y = a + n."""
    return mp.fneg(_zeta_batch(1, [1], _admissible(a, "digamma"), prec)[0], exact=True)


def ttilde(s: int, prec: int) -> mpf:
    """ttilde(s) = 2^s t(s) = zeta(s; 1/2); ttilde(1) is 0 by convention."""
    if check_integer(s, "ttilde") < 1:
        raise DomainError("ttilde requires s >= 1")
    if s == 1:
        return mp.zero
    return hurwitz_zeta(s, _HALF, prec)


def ttilde_bar(s: int, prec: int) -> mpf:
    """Alternating ttilde(s) = 2^s t_bar(s) = -alt_hurwitz_zeta(s, 1/2)."""
    if check_integer(s, "ttilde_bar") < 1:
        raise DomainError("ttilde_bar requires s >= 1")
    return mp.fneg(alt_hurwitz_zeta(s, _HALF, prec), exact=True)


class Terms(list):
    """An unrounded sum of kernel terms (c, keys) for ``kernel_sums``: + joins
    two sums, and * multiplies them out, or scales each c by a rational."""

    def __add__(self, other: list) -> "Terms":
        return Terms(list.__add__(self, other))

    def __mul__(self, other) -> "Terms":
        if isinstance(other, list):
            return Terms((c * d, k + l) for c, k in self for d, l in other)
        return Terms((c * other, k) for c, k in self)

    __rmul__ = __mul__


def zeta_terms(c: Rational, s: int, a: Rational) -> Terms:
    """c zeta(s; a), integer s >= 1, as terms (c, ((1, s, a),)) of
    ``kernel_sums``; zeta(1; a) is psi(1/2) - psi(a) = K(1; a) - K(1; 1/2)."""
    name = "zeta_terms"
    c, s, a = check_rational(c, name), check_integer(s, name), check_rational(a, name)
    if s < 1:
        raise DomainError("zeta_terms requires s >= 1")
    terms = Terms([(c, ((1, s, a),))])
    return terms + [(-c, ((1, 1, _HALF),))] if s == 1 else terms


# ---------------------------------------------------------------------------
# Depth-1 constants: each one kernel term at 1 or 1/2 (pi = 2 K_-1(1; 1/2))
# ---------------------------------------------------------------------------

def riemann_zeta(s: int) -> Terms:
    """zeta(s) = K_+1(s; 1) for integer s >= 2."""
    if check_integer(s, "riemann_zeta") < 2:
        raise DomainError("riemann_zeta requires s >= 2; zeta(1) exists only as a convention")
    return Terms([(1, ((1, s, 1),))])


def alt_zeta(s: int) -> Terms:
    """Alternating Riemann zeta sum_{n>=1} (-1)^(n-1) n^(-s) = K_-1(s; 1), s >= 1;
    alt_zeta(1) is log 2."""
    if check_integer(s, "alt_zeta") < 1:
        raise DomainError("alt_zeta requires s >= 1")
    return Terms([(1, ((-1, s, 1),))])


def single_t(s: int) -> Terms:
    """t(s) = sum_{n>=1} (2n-1)^(-s) = 2^-s K_+1(s; 1/2), s >= 2."""
    if check_integer(s, "single_t") < 2:
        raise DomainError("single_t requires s >= 2 (t(1) diverges)")
    return Terms([(Fraction(1, 2 ** s), ((1, s, _HALF),))])


def single_t_bar(s: int) -> Terms:
    """t(s with alternating sign) = sum_{n>=1} (-1)^n (2n-1)^(-s) = -beta(s)
    = -2^-s K_-1(s; 1/2), s >= 1."""
    if check_integer(s, "single_t_bar") < 1:
        raise DomainError("single_t_bar requires s >= 1")
    return Terms([(Fraction(-1, 2 ** s), ((-1, s, _HALF),))])


def single_T(s: int) -> Terms:
    """Depth-1 T value, T(s) = 2 t(s) = 2^(1-s) K_+1(s; 1/2), s >= 2."""
    if check_integer(s, "single_T") < 2:
        raise DomainError("single_T requires s >= 2")
    return Terms([(Fraction(2, 2 ** s), ((1, s, _HALF),))])


def single_T_bar(s: int) -> Terms:
    """Depth-1 alternating T value, 2 t_bar(s) = -2^(1-s) K_-1(s; 1/2), s >= 1."""
    if check_integer(s, "single_T_bar") < 1:
        raise DomainError("single_T_bar requires s >= 1")
    return Terms([(Fraction(-2, 2 ** s), ((-1, s, _HALF),))])


# ---------------------------------------------------------------------------
# Sums of products of kernel values: the trigonometric kernels and the Psi jets
# ---------------------------------------------------------------------------

def kernel_sums(sums, prec: int, guard: int = 32) -> list[mpf]:
    """Each sum [(c, keys), ...] (a list or ``Terms``) = sum c prod
    K_sigma(s; x) over the (sigma, s, x) of keys, with rational c and K the
    value of ``_zeta_batch``, rounded once at ``prec``; a term with no keys
    is c itself.  This is the one rounding of every exact value here: the
    coefficients of ``kernel_jet`` and ``psi_jet`` (at order 0, pi tan,
    pi sec and Psi^(p-1) at a point), ``zeta_terms`` (zeta(1; a) among
    them) and the depth-1 constants.  A sum that is not a list, such as one
    term or one sum where the list of sums belongs, a term not of the shape
    (c, keys) with keys a tuple of triples, or a term whose c or x is not an
    int or a Fraction, or s not an int >= 1, or sigma not +-1, is a
    DomainError.

    Terms with the same keys, in any order, are merged first, so terms that
    cancel exactly give an exact 0.  A key is merged as the integers (sigma,
    s, numerator of x, denominator of x), so an int point and the equal
    Fraction are one key, and no Fraction is hashed or built per key.  The
    values are read straight from ``_zeta_cache`` at prec + g bits, each
    within 2^-(prec+g) of its size; one ``_zeta_batch`` per (sigma, x)
    computes the exponents not cached there, so a warm call makes none.  Each
    term c prod m_i 2^e_i is added exactly in integers, shifted by sum e_i
    less the least such sum.  A product of k values errs by k 2^-(prec+g) of
    its size, to first order, so it counts k times in the size of the sum: a
    product of two values costs one bit more, a rational none.  A sum whose
    size is 2^loss times its value must have g >= loss + 8 to keep prec + 8
    bits; g rises to that, doubles for a sum of rounded values that comes out
    exactly 0, and past 2048 bits raises ArithmeticError.  It starts at
    ``guard``, which the caller takes from what it sums, as each rise costs a
    cold ``_zeta_batch`` per point; a measured loss of every bit raises g by
    only about prec + g, so a sum that cancels far needs its guard up front.
    The default 32 covers the closed forms of the identity checks, which lose
    up to about 14 bits; ``eval_symbolic`` starts from the weight.
    """
    check_precision(prec)
    if check_integer(guard, "kernel_sums") < 1:
        raise DomainError("kernel_sums requires guard >= 1")
    merged = []
    for terms in sums:
        if not isinstance(terms, list):
            raise DomainError("kernel_sums takes a list of sums, each a list of terms (c, keys), "
                              f"not {terms!r} as a sum")
        acc: dict = {}
        for term in terms:
            try:
                c, keys = term
                ok = isinstance(c, (int, Fraction)) and all(
                    sigma in (1, -1) and isinstance(sigma, int) and isinstance(s, int) and s >= 1
                    and isinstance(x, (int, Fraction)) for sigma, s, x in keys)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise DomainError("kernel_sums takes terms (c, keys), a rational c and a tuple of "
                                  f"keys (+-1, int s >= 1, rational x), not {term!r}")
            key = tuple(sorted([(sigma, s, x.numerator, x.denominator) for sigma, s, x in keys]))
            if key in acc:
                acc[key] += c
            else:
                acc[key] = c
        merged.append([(c, keys) for keys, c in acc.items() if c])
    out: list = [None] * len(merged)
    todo, g = range(len(merged)), guard
    while todo:
        if g > 2048:
            raise ArithmeticError("a sum of kernel values cancels past 2048 guard bits")
        points: dict = {}
        for i in todo:
            for _, keys in merged[i]:
                for sigma, s, num, den in keys:
                    points.setdefault((sigma, num, den), set()).add(s)
        values = {}
        for (sigma, num, den), ss in points.items():
            cache = _zeta_cache.get((sigma, num, den, prec + g), {})
            missing = sorted(s for s in ss if s not in cache)
            if missing:
                _zeta_batch(sigma, missing, _admissible(Fraction(num, den), "kernel_sums"),
                            prec + g)
                cache = _zeta_cache[sigma, num, den, prec + g]
            values.update(((sigma, s, num, den), cache[s]._mpf_) for s in ss)
        short, need = [], g
        for i in todo:
            terms = merged[i]
            den = math.lcm(*(c.denominator for c, _ in terms))
            exps = [sum(values[key][2] for key in keys) for _, keys in terms]
            e0 = min([0] + exps)
            total = size = 0
            for (c, keys), e in zip(terms, exps):
                t = c.numerator * (den // c.denominator) << e - e0
                for key in keys:
                    sign, man, _, _ = values[key]
                    t *= -man if sign else man
                total, size = total + t, size + len(keys) * abs(t)
            # g >= loss + 8, loss = log2(size / |total|); an exact 0 doubles g
            want = 0 if not size else 2 * g if not total else (
                size.bit_length() - abs(total).bit_length() + 9)
            if want > g:
                short.append(i)
                need = max(need, want)
            else:
                out[i] = mp.make_mpf(mpf_div(from_man_exp(total, e0), from_int(den), prec,
                                             round_nearest))
        todo, g = short, need
    return out


def kernel_jet(kind: KernelKind, base: Rational, order: int) -> JetSeries:
    """Exact jet of the kernel at rational ``base``, each coefficient a sum
    of kernel values kept unrounded as ``Terms``, from z^0 up to z^order; at
    a pole (a half-integer base) a pole_order-1 Laurent jet from z^-1.

    With base = k + r, r in [-1/2, 1/2), and x = r + 1/2, and f_sigma(x) =
    sum over all integers n of sigma^n/(x + n) (pi cot and pi csc of pi x),
    pi tan(pi(base + z)) = -f_+1(x + z) and pi/cos(pi(base + z)) =
    (-1)^k f_-1(x + z).  The z^j coefficient of f_sigma(x + z) is
    (-1)^j K(j+1; x) - sigma K(j+1; 1 - x); at the pole x = 0 it is
    ((-1)^j - 1) sigma K(j+1; 1) after the 1/z term.
    """
    if check_integer(order, kind.value) < 0:
        raise DomainError("order must be >= 0")
    base = check_rational(base, kind.value)
    k = math.floor(base + _HALF)
    x = base - k + _HALF
    sigma = 1 if kind is KernelKind.PI_TAN else -1
    sign = -1 if sigma == 1 or k % 2 else 1
    if x == 0:
        return JetSeries(base, (Terms([(sign, ())]),) + tuple(
            Terms([(sign * ((-1) ** j - 1) * sigma, ((sigma, j + 1, 1),))])
            for j in range(order)), 1)
    return JetSeries(base, tuple(Terms([(sign * (-1) ** j, ((sigma, j + 1, x),)),
                                        (-sign * sigma, ((sigma, j + 1, 1 - x),))])
                                 for j in range(order + 1)))


def psi_jet(p: int, base: Rational, order: int) -> JetSeries:
    """Exact jet of the shifted digamma derivative Psi^(p-1)(1/2 - z) at
    ``base``, each coefficient a sum of kernel values kept unrounded as
    ``Terms``.

    The z^j coefficient is (-1)^p (p-1)! C(p-1+j, j) zeta(p+j; -base), with
    the zeta(1; a) convention psi(1/2) - psi(a) of ``zeta_terms``.  At a
    non-negative integer base n the function has a pole of order p,
    (p-1)!/(z-n)^p, and the jet carries pole_order = p; the Hurwitz value at
    -n is then the finite sum over its first n terms plus zeta(q; 1), so
    that at p = 1 the constant term is H_n + psi(1) - psi(1/2) = H_n + 2 ln 2.
    """
    if check_integer(p, "psi_jet") < 1:
        raise DomainError("psi_jet requires p >= 1")
    if check_integer(order, "psi_jet") < 0:
        raise DomainError("order must be >= 0")
    base = check_rational(base, "psi_jet")
    fac = factorial(p - 1)
    c = (-1) ** p * fac
    pole = base.denominator == 1 and base >= 0
    if pole:
        # zeta(q; -n) = sum_{m=1..n} (-m)^(-q) + zeta(q; 1) past the pole
        n = int(base)
        sums = [Terms([(fac, ())])] + [Terms()] * min(p - 1, order)
        for q in range(p, order + 1):
            b = c * comb(q - 1, q - p)
            sums.append(Terms([(b * sum(Fraction(1, (-m) ** q) for m in range(1, n + 1)), ())])
                        + zeta_terms(b, q, 1))
    else:
        sums = [zeta_terms(c * comb(p - 1 + j, j), p + j, -base) for j in range(order + 1)]
    return JetSeries(base, tuple(sums), p if pole else 0)
