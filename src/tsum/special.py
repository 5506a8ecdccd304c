"""Single-variable special functions and their jets.

One fixed-point kernel computes every Hurwitz zeta, alternating Hurwitz
zeta and digamma value: sum_{n>=0} sigma^n (n + x)^(-s) at a rational x
that is not a non-positive integer, in integers scaled by 2^F.  For each
exponent it sums the series directly when its terms fall below 2^-F within
the head that the asymptotic series would need; otherwise it adds that
head to Euler-Maclaurin (sigma = +1) or Boole summation (sigma = -1) at
x + n.  Digamma is minus the sigma = +1, s = 1 case, whose divergent
1/(s-1) gives way to a logarithm.  F rises until each value keeps
prec + 56 bits, and each value is rounded once; the depth-1 constants are
such values times +-2^k.  Taylor recurrences give the trigonometric
kernels.  The zeta family takes rational arguments only.

``tail_zeta_batch`` serves the many exponents the series engine needs at
one point in one pass; the per-value functions are batches of one, cached
under the same keys.

Conventions for the divergent boundary symbols: ``ttilde(1)`` is 0, and
zeta(1; a) -> psi(1/2) - psi(a) lives in ``ZetaConvention``, applied only
where explicitly requested; ``riemann_zeta(1)`` is an error.  The symbolic
zeta(1) -> -2 log 2 rule lives with the reductions.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from .jets import JetSeries, jet_from_coeffs, jet_mul, jet_recip
from .numeric import (
    Rational,
    RealLike,
    bernoulli,
    real_const,
    round_to,
    to_mpf,
    working_prec,
)

_HALF = Fraction(1, 2)


class DomainError(ValueError):
    """Argument outside the supported domain."""


class PoleProximityError(DomainError):
    """Evaluation point exactly at or numerically too close to a pole."""


class KernelKind(Enum):
    PI_TAN = "pi_tan"
    PI_OVER_COS = "pi_over_cos"


_zeta_cache: dict = {}
# sigma -> [G, c_k as (m, e)]: m = floor(c_k 2^e) has G + 8 bits, for the
# largest F asked so far rounded up to a power of two; a call at F uses m >> (G - F)
_coeff_tables: dict = {1: [0, []], -1: [0, []]}


def _rational(x: Rational, name: str) -> Fraction:
    if not isinstance(x, (int, Fraction)):
        raise DomainError(f"{name} takes rational arguments, not {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def _admissible(x: Rational, name: str) -> Fraction:
    """x as a Fraction, if rational and not a non-positive integer."""
    x = _rational(x, name)
    if x.denominator == 1 and x <= 0:
        raise DomainError(f"{name} is undefined at the non-positive integer {x}")
    return x


# ---------------------------------------------------------------------------
# The fixed-point kernel: many exponents at one point
# ---------------------------------------------------------------------------

def _scaled_tail(sigma: int, s: int, Y: int, D: int, F: int) -> int:
    """2^F y^(s-1) sum_{n>=0} sigma^n (n + y)^(-s) at y = Y/D, in fixed point;
    at sigma = +1, s = 1 the constant term of the Laurent series at s = 1,
    -psi(y), where y^(1-s)/(s-1) leaves -ln y.

    Euler-Maclaurin gives 1/(s-1) + 1/(2y) + sum_k c_k (s)_(2k-1) y^(-2k),
    c_k = B_2k/(2k)!; Boole summation the same without 1/(s-1) and with
    (4^k - 1) c_k, each held to F + 8 bits (ln y to F + 16).  For these
    completely monotone summands the remainder is at most the first omitted
    term, so the loop stops at the first term below one unit; past the
    smallest term, at s + 2k > c pi y, it raises ArithmeticError.
    """
    table = _coeff_tables[sigma]
    if table[0] < F:
        table[:] = [1 << (F - 1).bit_length(), []]
    G, coeffs = table
    v = (D << F) // (2 * Y)
    if sigma == 1 and s > 1:
        v += (1 << F) // (s - 1)
    elif sigma == 1:
        with mp.workprec(F + 16):
            v -= int(mp.ldexp(mp.ln(mpf(Y) / D), F))
    Y2, D2 = Y * Y, D * D
    kmax = ((2 if sigma == 1 else 1) * math.pi * Y / D - s) / 2 + 1
    rise = (s * D2 << F) // Y2  # 2^F (s)_(2k-1) y^(-2k), floored
    for k in itertools.count(1):
        if k > kmax:
            raise ArithmeticError(f"tail series of exponent {s} at {Fraction(Y, D)} "
                                  f"cannot reach 2^-{F}")
        if k > len(coeffs):
            c = abs(bernoulli(2 * k)) / factorial(2 * k) * (1 if sigma == 1 else 4 ** k - 1)
            e = G + 8 - c.numerator.bit_length() + c.denominator.bit_length()
            coeffs.append(((c.numerator << e) // c.denominator, e))
        m, e = coeffs[k - 1]
        term = (rise * (m >> (G - F))) >> (e - G + F)
        if not term:
            return v
        v += term if k % 2 else -term
        rise = rise * (s + 2 * k - 1) * (s + 2 * k) * D2 // Y2


def _head_length(sigma: int, s: int, x: Fraction, bits: int) -> int:
    """Unit shifts n after which the tail series of exponent s reaches
    2^-(bits + 8): its smallest term is about exp(-(z - s ln(z/s) - s)),
    z = c pi (x + n), with c = 2 for sigma = +1 and 1 for sigma = -1.  Past
    z = s that exponent grows with z, and it exceeds b = (bits + 8) ln 2 by
    z = 3 (s + b); at x < 0 the search starts -x further out."""
    c = (2 if sigma == 1 else 1) * math.pi

    def reached(n: int) -> bool:
        z = c * float(x + n)
        return z > s and z - s * math.log(z / s) - s >= (bits + 8) * math.log(2)

    top = math.ceil(3 * (s + bits + 8) / c + max(0, -x))
    return bisect.bisect_left(range(top + 1), True, key=reached)


def _direct_length(sigma: int, s: int, x: Fraction, F: int, n: int) -> int:
    """Fewest terms M <= n after which |x^(s-1) sum_{j>=M} sigma^j (x+j)^(-s)|
    < 2^-F, else n + 1.  Past x + M > 0 the rest is at most (x+M)^(-s), times
    1 + (x+M)/(s-1) for sigma = +1 (whose s = 1 series diverges)."""
    if sigma == 1 and s == 1:
        return n + 1

    def small(M: int) -> bool:
        if x + M <= 0:
            return False
        y = float(x + M)
        rest = (s - 1) * math.log(abs(x)) - s * math.log(y)
        return rest + (math.log1p(y / (s - 1)) if sigma == 1 else 0) < -F * math.log(2)

    return bisect.bisect_left(range(n + 1), True, key=small)


def _fixed_sums(sigma: int, ss: list[int], x: Fraction, F: int) -> list[int]:
    """2^F x^(s-1) sum_{j>=0} sigma^j (x + j)^(-s) for sorted distinct ss, each
    within a few units per term; at sigma = +1, s = 1, 2^F (-psi(x)).

    The head n of the asymptotic path reaches twice the bits, so that the
    series stops far short of its smallest term and of the Bernoulli numbers
    that term needs.  An exponent whose terms fall below 2^-F within its own
    such head is summed directly, one floor division per term.  As the terms
    fall faster and the head grows with s, these are the largest exponents,
    so the search runs down from the top; the rest share the head n of the
    largest of them.  With y = x + n > 0 and V_s(y) from ``_scaled_tail``,
    V_s(x) = sum_{j<n} sigma^j (x/(x+j))^(s-1)/(x+j) + sigma^n (x/y)^(s-1) V_s(y).
    The ratio powers start from one floor division at the first such
    exponent and take one floored factor per later unit of s.
    """
    num, den = x.numerator, x.denominator
    direct, n = {}, 0
    for s in reversed(ss):
        n = _head_length(sigma, s, x, 2 * F)
        m = _direct_length(sigma, s, x, F, n)
        if m > n:
            break
        direct[s] = m
    ratio, power, out = None, 0, []  # 2^F (x/(x+j))^power
    for s in ss:
        if s in direct:
            top = den * num ** (s - 1) << F
            out.append(sum(sigma ** j * (top // (num + j * den) ** s) for j in range(direct[s])))
            continue
        if ratio is None:
            ratio, power = [(num ** (s - 1) << F) // (num + j * den) ** (s - 1)
                            for j in range(n + 1)], s - 1
        for _ in range(power, s - 1):
            ratio = [r * num // (num + j * den) for j, r in enumerate(ratio)]
        power = s - 1
        v = sigma ** n * ratio[n] * _scaled_tail(sigma, s, num + n * den, den, F) >> F
        out.append(v + sum(sigma ** j * r * den // (num + j * den)
                           for j, r in enumerate(ratio[:n])))
    return out


def _zeta_batch(sigma: int, ss, x: Fraction, prec: int) -> list[mpf]:
    """Kernel values for the exponents ss at x, each rounded once at ``prec``
    and cached under (s, point).

    The one precision rule: a fixed-point sum v of ``_fixed_sums`` errs by a
    few units per term, so it must keep prec + 56 bits; an exponent that
    falls short (its value cancels, next to a zero at x < 0 or of digamma)
    is summed again with F raised by the shortfall."""
    num, den = x.numerator, x.denominator
    point = (sigma, num, den, prec)
    todo = sorted({s for s in ss if (s, point) not in _zeta_cache})
    F = prec + 64 + (2 * num // den + 1).bit_length() + max(todo, default=0).bit_length()
    while todo:
        short = {}
        for s, v in zip(todo, _fixed_sums(sigma, todo, x, F)):
            lack = prec + 56 - abs(v).bit_length()
            if lack > 0:
                short[s] = lack
            else:  # zeta = v 2^-F x^(1-s)
                _zeta_cache[s, point] = mp.make_mpf(from_rational(
                    v * den ** (s - 1), num ** (s - 1) << F, prec, round_nearest))
        todo = sorted(short)
        F += max(short.values(), default=0)
    return [_zeta_cache[s, point] for s in ss]


def tail_zeta_batch(sigma: int, ss, x: Rational, prec: int) -> list[mpf]:
    """sum_{n>=0} sigma^n (n + x)^(-s) at one rational x, not a non-positive
    integer, for every integer s in ``ss``, s >= 2 at sigma = +1 (Hurwitz
    zeta) and s >= 1 at sigma = -1 (alternating Hurwitz zeta), each rounded
    once at ``prec``; one fixed-point pass serves every exponent not yet
    cached.  Digamma is minus the kernel's sigma = +1, s = 1 value (``digamma``)."""
    x = _admissible(x, "the zeta family")
    if sigma not in (1, -1) or any(s < (2 if sigma == 1 else 1) for s in ss):
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


def riemann_zeta(s: int, prec: int) -> mpf:
    """zeta(s) for integer s >= 2, the Hurwitz value at a = 1."""
    if s < 2:
        raise DomainError("riemann_zeta requires s >= 2; zeta(1) exists only as a convention")
    return hurwitz_zeta(s, 1, prec)


def alt_hurwitz_zeta(s: int, a: Rational, prec: int) -> mpf:
    """Alternating Hurwitz zeta sum_{n>=0} (-1)^n (n+a)^(-s), s >= 1, rational a
    not a non-positive integer."""
    return tail_zeta_batch(-1, [s], a, prec)[0]


def alt_zeta(s: int, prec: int) -> mpf:
    """Alternating Riemann zeta sum_{n>=1} (-1)^(n-1) n^(-s), s >= 1."""
    if s < 1:
        raise DomainError("alt_zeta requires s >= 1")
    if s == 1:
        return real_const("log2", prec)
    return alt_hurwitz_zeta(s, 1, prec)


def digamma(a: Rational, prec: int) -> mpf:
    """psi(a) for rational a, not a non-positive integer: minus the kernel's
    sigma = +1, s = 1 value, sum_{j<n} 1/(a+j) - ln y + 1/(2y) + sum_k
    B_2k/(2k) y^(-2k) at y = a + n."""
    return mp.fneg(_zeta_batch(1, [1], _admissible(a, "digamma"), prec)[0], exact=True)


def hurwitz_zeta1(a: Rational, prec: int) -> mpf:
    """The zeta(1; a) convention value psi(1/2) - psi(a), for rational a not a
    non-positive integer."""
    wp = prec + 8
    with mp.workprec(wp):
        return round_to(digamma(_HALF, wp) - digamma(a, wp), prec)


def param_digamma_deriv(p: int, a: Rational, prec: int) -> mpf:
    """Value of the shifted digamma derivative Psi^(p-1)(1/2 + a), a > 0.

    Equals (-1)^p (p-1)! zeta(p; a) for p >= 2 and -(psi(1/2) - psi(a))
    for p = 1.
    """
    if p < 1:
        raise DomainError("param_digamma_deriv requires p >= 1")
    if p == 1:
        with mp.workprec(prec + 8):
            return round_to(-hurwitz_zeta1(a, prec + 8), prec)
    sign = 1 if p % 2 == 0 else -1
    with mp.workprec(prec + 8):
        return round_to(sign * factorial(p - 1) * hurwitz_zeta(p, a, prec + 8), prec)


# ---------------------------------------------------------------------------
# Conventions for the divergent boundary symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaConvention:
    """Explicit replacement for zeta(1; a); ``enabled=False`` drops it."""

    enabled: bool = True

    def hurwitz1(self, a: Rational, prec: int) -> mpf:
        if not self.enabled:
            return mpf(0)
        return hurwitz_zeta1(a, prec)


DEFAULT_CONVENTION = ZetaConvention()


# ---------------------------------------------------------------------------
# Depth-1 t / T values: one kernel value at 1/2 times +-2^k, exactly
# ---------------------------------------------------------------------------

def single_t(s: int, prec: int) -> mpf:
    """t(s) = sum_{n>=1} (2n-1)^(-s) = 2^-s zeta(s; 1/2), s >= 2."""
    if s < 2:
        raise DomainError("single_t requires s >= 2 (t(1) diverges)")
    return mp.ldexp(hurwitz_zeta(s, _HALF, prec), -s)


def dirichlet_beta(s: int, prec: int) -> mpf:
    """beta(s) = sum_{n>=0} (-1)^n (2n+1)^(-s) = 2^-s alt_hurwitz_zeta(s, 1/2), s >= 1."""
    if s < 1:
        raise DomainError("dirichlet_beta requires s >= 1")
    return mp.ldexp(alt_hurwitz_zeta(s, _HALF, prec), -s)


def single_t_bar(s: int, prec: int) -> mpf:
    """t(s with alternating sign) = sum_{n>=1} (-1)^n (2n-1)^(-s) = -beta(s)."""
    if s < 1:
        raise DomainError("single_t_bar requires s >= 1")
    return mp.fneg(dirichlet_beta(s, prec), exact=True)


def ttilde(s: int, prec: int) -> mpf:
    """ttilde(s) = 2^s t(s) = zeta(s; 1/2); ttilde(1) is 0 by convention."""
    if s < 1:
        raise DomainError("ttilde requires s >= 1")
    if s == 1:
        return mpf(0)
    return hurwitz_zeta(s, _HALF, prec)


def ttilde_bar(s: int, prec: int) -> mpf:
    """Alternating ttilde(s) = 2^s t_bar(s) = -alt_hurwitz_zeta(s, 1/2)."""
    if s < 1:
        raise DomainError("ttilde_bar requires s >= 1")
    return mp.fneg(alt_hurwitz_zeta(s, _HALF, prec), exact=True)


def single_T(s: int, prec: int) -> mpf:
    """Depth-1 T value, T(s) = 2 t(s) = 2^(1-s) zeta(s; 1/2), s >= 2."""
    if s < 2:
        raise DomainError("single_T requires s >= 2")
    return mp.ldexp(hurwitz_zeta(s, _HALF, prec), 1 - s)


def single_T_bar(s: int, prec: int) -> mpf:
    """Depth-1 alternating T value, 2 t_bar(s) = -2^(1-s) alt_hurwitz_zeta(s, 1/2), s >= 1."""
    if s < 1:
        raise DomainError("single_T_bar requires s >= 1")
    return mp.fneg(mp.ldexp(alt_hurwitz_zeta(s, _HALF, prec), 1 - s), exact=True)


# ---------------------------------------------------------------------------
# Trigonometric kernels and jets
# ---------------------------------------------------------------------------

def _reduce_mod_one(a: RealLike, wp: int):
    """Split a = k + r with integer k and r in [-1/2, 1/2)."""
    if isinstance(a, (int, Fraction)):
        a = Fraction(a)
        k = int(math.floor(a + Fraction(1, 2)))
        return k, a - k
    with mp.workprec(wp):
        k = int(mp.floor(a + 0.5))
        return k, a - k


def kernel_value(kind: KernelKind, a: RealLike, prec: int) -> mpf:
    """pi*tan(pi a) or pi/cos(pi a); both have their poles at the half-integers."""
    wp = prec + 16
    k, r = _reduce_mod_one(a, wp)  # r in [-1/2, 1/2)
    dist = Fraction(1, 2) - abs(r) if isinstance(r, Fraction) else mpf(0.5) - abs(r)
    if dist == 0:
        raise PoleProximityError(f"{kind.value} has a pole at {a}")
    with mp.workprec(wp):
        if to_mpf(dist, wp) < mpf(2) ** (-prec // 2):
            raise PoleProximityError(f"{kind.value} argument within 2^(-P/2) of a pole")
        x = mp.pi * to_mpf(r, wp)
        if kind is KernelKind.PI_TAN:
            value = mp.pi * mp.tan(x)
        else:
            value = mp.pi / mp.cos(x)
            if k % 2 == 1:
                value = -value
        return round_to(value, prec)


def _is_kernel_pole(base: RealLike) -> bool:
    return isinstance(base, (int, Fraction)) and Fraction(base).denominator == 2


def _sin_cos_jets(base: RealLike, order: int, wp: int):
    """Taylor coefficients of sin(pi(base+x)) and cos(pi(base+x)) at a
    half-integer base k - 1/2, seeded exactly: sin = -(-1)^k, cos = 0.
    """
    k, _ = _reduce_mod_one(base, wp)
    with mp.workprec(wp):
        pi = +mp.pi
        s0, c0 = mpf(1 if k % 2 else -1), mpf(0)
        s = [s0]
        c = [c0]
        for j in range(order):
            s.append(+(pi * c[j] / (j + 1)))
            c.append(+(-pi * s[j] / (j + 1)))
    return s, c


def kernel_jet(kind: KernelKind, base: RealLike, order: int, prec: int) -> JetSeries:
    """Jet of the requested kernel at ``base``.

    Analytic bases use the tan'/sec' derivative recurrences.  At a pole of the
    kernel (a half-integer base) the jet is the exact-seeded sin/cos ratio
    with the simple zero of cos divided out, producing a pole_order-1 Laurent
    jet.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    wp = working_prec(prec, order + 4)
    if _is_kernel_pole(base):
        s, c = _sin_cos_jets(base, order + 1, wp)
        with mp.workprec(wp):
            pi = +mp.pi
            inv = jet_recip(jet_from_coeffs(base, c[1:], wp))  # cos has an exact simple zero
            if kind is KernelKind.PI_TAN:
                num = [pi * v for v in s[: order + 1]]
                coeffs = jet_mul(jet_from_coeffs(base, num, wp), inv).coeffs
            else:
                coeffs = [+(pi * v) for v in inv.coeffs]
        return jet_from_coeffs(base, [round_to(v, prec) for v in coeffs[: order + 1]], prec,
                               pole_order=1)

    with mp.workprec(wp):
        pi = +mp.pi
        pi2 = pi * pi

        def conv(u, v, j):
            return sum(u[i] * v[j - i] for i in range(j + 1))

        t = [kernel_value(KernelKind.PI_TAN, base, wp)]
        for j in range(order):
            t.append(+(((pi2 if j == 0 else 0) + conv(t, t, j)) / (j + 1)))
        coeffs = t
        if kind is KernelKind.PI_OVER_COS:
            g = [kernel_value(KernelKind.PI_OVER_COS, base, wp)]
            for j in range(order):
                g.append(+(conv(g, t, j) / (j + 1)))
            coeffs = g
    return jet_from_coeffs(base, [round_to(v, prec) for v in coeffs[: order + 1]], prec)


def psi_jet(p: int, base: Rational, order: int, prec: int) -> JetSeries:
    """Jet of the shifted digamma derivative Psi^(p-1)(1/2 - z) at ``base``.

    At non-negative integer bases the function has a pole of order p and the
    jet carries pole_order = p; elsewhere it is analytic.  Coefficients come
    from Hurwitz zeta values at -base (finite sums at the poles), except the
    lone logarithmically divergent p = 1 constant term, which is the exact
    digamma difference psi(-base) - psi(1/2).
    """
    if p < 1:
        raise DomainError("psi_jet requires p >= 1")
    if order < 0:
        raise DomainError("order must be >= 0")
    wp = working_prec(prec, order + 4)
    base = _rational(base, "psi_jet")
    is_pole = base.denominator == 1 and base >= 0
    sign = 1 if p % 2 == 0 else -1
    fac = factorial(p - 1)
    coeffs: list[mpf] = []
    with mp.workprec(wp):
        if is_pole:
            n = int(base)
            # Singular block: (p-1)!/(z-n)^p and nothing between it and the
            # constant term.
            coeffs.append(mpf(fac))
            coeffs.extend(mpf(0) for _ in range(p - 1))
            for j in range(p, order + 1):
                jj = j - p
                q = p + jj  # == j
                if q == 1:
                    # Regularized value at the p = 1 pole: H_n + 2 log 2.
                    harmonic = sum(Fraction(1, m) for m in range(1, n + 1))
                    coeffs.append(+(to_mpf(harmonic, wp) + 2 * real_const("log2", wp)))
                else:
                    finite = Fraction(0)
                    for k in range(n):
                        finite += Fraction(1) / (k - n) ** q
                    sigma = to_mpf(finite, wp) + hurwitz_zeta(q, 1, wp)
                    coeffs.append(+(sign * fac * comb(p - 1 + jj, jj) * sigma))
            coeffs = coeffs[: order + 1]
            pole_order = p
        else:
            for j in range(order + 1):
                q = p + j
                if q == 1:
                    coeffs.append(+(digamma(-base, wp) - digamma(_HALF, wp)))
                else:
                    sigma = hurwitz_zeta(q, -base, wp)
                    coeffs.append(+(sign * fac * comb(p - 1 + j, j) * sigma))
            pole_order = 0
    return jet_from_coeffs(base, [round_to(v, prec) for v in coeffs], prec, pole_order=pole_order)
