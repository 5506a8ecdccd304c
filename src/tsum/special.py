"""Single-variable special functions and their jets.

One fixed-point kernel computes every Hurwitz zeta, alternating Hurwitz
zeta and digamma value: sum_{n>=0} sigma^n (n + x)^(-s) at a rational
x > 0, in integers scaled by 2^F.  For each exponent it sums the series
directly when its terms fall below 2^-F within the head that the
asymptotic series would need; otherwise it adds that head to
Euler-Maclaurin (sigma = +1) or Boole summation (sigma = -1) at x + n.
Digamma is the sigma = +1, s = 1 case plus a logarithm.  Taylor
recurrences give the trigonometric kernels, and exact unit shifts extend
the x > 0 domain to every admissible rational argument the identity checks
need.  The zeta family takes rational arguments only.

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


# ---------------------------------------------------------------------------
# The fixed-point kernel: many exponents at one point
# ---------------------------------------------------------------------------

def _scaled_tail(sigma: int, s: int, Y: int, D: int, F: int) -> int:
    """2^F y^(s-1) sum_{n>=0} sigma^n (n + y)^(-s) at y = Y/D, in fixed point;
    at sigma = +1, s = 1 the divergent 1/(s-1) is left out.

    Euler-Maclaurin gives 1/(s-1) + 1/(2y) + sum_k c_k (s)_(2k-1) y^(-2k),
    c_k = B_2k/(2k)!; Boole summation the same without 1/(s-1) and with
    (4^k - 1) c_k, each held to F + 8 bits.  For these completely monotone
    summands the remainder is at most the first omitted term, so the loop
    stops at the first term below one unit; past the smallest term, at
    s + 2k > c pi y, it raises ArithmeticError.
    """
    table = _coeff_tables[sigma]
    if table[0] < F:
        table[:] = [1 << (F - 1).bit_length(), []]
    G, coeffs = table
    v = (D << F) // (2 * Y) + ((1 << F) // (s - 1) if sigma == 1 and s > 1 else 0)
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
    z = 3 (s + b)."""
    c = (2 if sigma == 1 else 1) * math.pi

    def reached(n: int) -> bool:
        z = c * float(x + n)
        return z > s and z - s * math.log(z / s) - s >= (bits + 8) * math.log(2)

    return bisect.bisect_left(range(math.ceil(3 * (s + bits + 8) / c) + 1), True, key=reached)


def _direct_length(sigma: int, s: int, x: Fraction, F: int, n: int) -> int:
    """Fewest terms M <= n after which x^(s-1) |sum_{j>=M} sigma^j (x+j)^(-s)|
    < 2^-F, else n + 1.  The rest is at most (x+M)^(-s), times
    1 + (x+M)/(s-1) for sigma = +1 (whose s = 1 series diverges)."""
    if sigma == 1 and s == 1:
        return n + 1

    def small(M: int) -> bool:
        y = float(x + M)
        rest = (s - 1) * math.log(x) - s * math.log(y)
        return rest + (math.log1p(y / (s - 1)) if sigma == 1 else 0) < -F * math.log(2)

    return bisect.bisect_left(range(n + 1), True, key=small)


def _fixed_sums(sigma: int, ss: list[int], x: Fraction, F: int) -> tuple[int, list[int]]:
    """2^F x^(s-1) sum_{j>=0} sigma^j (x + j)^(-s) for sorted distinct ss, each
    within a few units per term, and the head n of the asymptotic path.

    That head reaches twice the bits, so that the series stops far short of
    its smallest term and of the Bernoulli numbers that term needs.  An
    exponent whose terms fall below 2^-F within its own such head is summed
    directly, one floor division per term.  As the terms fall faster and the
    head grows with s, these are the largest exponents, so the search runs
    down from the top; the rest share the head n of the largest of them.
    With y = x + n and V_s(y) from ``_scaled_tail``,
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
    return n, out


def _zeta_batch(sigma: int, ss: list[int], x: Fraction, prec: int) -> list[mpf]:
    """Uncached ``tail_zeta_batch`` for sorted distinct ss."""
    num, den = x.numerator, x.denominator
    F = prec + 64 + (2 * num // den + 1).bit_length() + ss[-1].bit_length()
    out = []
    for s, v in zip(ss, _fixed_sums(sigma, ss, x, F)[1]):
        # zeta = v 2^-F x^(1-s): at least prec + 32 bits of the quotient, then round
        a, b = v * den ** (s - 1), num ** (s - 1)
        shift = max(0, prec + 32 - a.bit_length() + b.bit_length())
        with mp.workprec(prec):
            out.append(mpf(((a << shift) // b, -F - shift)))
    return out


def tail_zeta_batch(sigma: int, ss, x: Rational, prec: int) -> list[mpf]:
    """sum_{n>=0} sigma^n (n + x)^(-s) at one rational x > 0 for every integer
    s in ``ss``, s >= 2 at sigma = +1 (Hurwitz zeta) and s >= 1 at sigma = -1
    (alternating Hurwitz zeta), rounded at ``prec``; one fixed-point pass
    serves every exponent not yet cached.  Digamma is the kernel's
    sigma = +1, s = 1 case (``digamma``)."""
    x = _rational(x, "the zeta family")
    point = (sigma, x.numerator, x.denominator, prec)
    values = [_zeta_cache.get((s, point)) for s in ss]
    if any(v is None for v in values):
        if sigma not in (1, -1) or not x > 0 or any(s < (2 if sigma == 1 else 1) for s in ss):
            raise DomainError(f"sigma = {sigma}, x = {x}, s in {sorted(ss)}: the zeta family needs "
                              "sigma = +-1, x > 0, s >= 2 (zeta(1; x) is convention-only), s >= 1 "
                              "at sigma = -1")
        todo = sorted({s for s, v in zip(ss, values) if v is None})
        for s, value in zip(todo, _zeta_batch(sigma, todo, x, prec)):
            _zeta_cache[s, point] = value
        values = [_zeta_cache[s, point] for s in ss]
    return values


# ---------------------------------------------------------------------------
# Single values from the kernel
# ---------------------------------------------------------------------------

def hurwitz_zeta(s: int, a: Rational, prec: int) -> mpf:
    """Hurwitz zeta zeta(s; a) = sum_{n>=0} (n+a)^(-s), integer s >= 2, rational a > 0."""
    return tail_zeta_batch(1, [s], a, prec)[0]


def riemann_zeta(s: int, prec: int) -> mpf:
    """zeta(s) for integer s >= 2, the Hurwitz value at a = 1."""
    if s < 2:
        raise DomainError("riemann_zeta requires s >= 2; zeta(1) exists only as a convention")
    return hurwitz_zeta(s, 1, prec)


def alt_hurwitz_zeta(s: int, a: Rational, prec: int) -> mpf:
    """Alternating Hurwitz zeta sum_{n>=0} (-1)^n (n+a)^(-s), s >= 1, rational a > 0."""
    return tail_zeta_batch(-1, [s], a, prec)[0]


def alt_zeta(s: int, prec: int) -> mpf:
    """Alternating Riemann zeta sum_{n>=1} (-1)^(n-1) n^(-s), s >= 1."""
    if s < 1:
        raise DomainError("alt_zeta requires s >= 1")
    if s == 1:
        return real_const("log2", prec)
    return alt_hurwitz_zeta(s, 1, prec)


def digamma(a: Rational, prec: int) -> mpf:
    """psi(a) for rational a > 0: ln y minus the kernel's s = 1 sum
    sum_{j<n} 1/(a+j) + 1/(2y) + sum_k B_2k/(2k) y^(-2k) at y = a + n, with
    F raised until the difference keeps prec + 48 bits."""
    a = _rational(a, "digamma")
    if not a > 0:
        raise DomainError("digamma requires a > 0")
    key = ("psi", a.numerator, a.denominator, prec)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    num, den = a.numerator, a.denominator
    F = prec + 64 + (2 * num // den + 1).bit_length()
    while True:
        n, (v,) = _fixed_sums(1, [1], a, F)
        with mp.workprec(F):
            ln_y = mp.ln(mpf(num + n * den) / den)
            value = ln_y - mpf((v, -F))
        lost = max(mp.mag(ln_y), v.bit_length() - F) - mp.mag(value) if value else F
        if F - lost >= prec + 48:
            break
        F = prec + lost + 64
    value = round_to(value, prec)
    _zeta_cache[key] = value
    return value


def hurwitz_zeta1(a: Rational, prec: int) -> mpf:
    """The zeta(1; a) convention value psi(1/2) - psi(a), for a > 0."""
    wp = prec + 8
    with mp.workprec(wp):
        return round_to(digamma(Fraction(1, 2), wp) - digamma(a, wp), prec)


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
# Shift helpers extending the a > 0 domain to all admissible rational arguments
# ---------------------------------------------------------------------------

def _unit_shift(x: Fraction, s: int, alternating: bool) -> tuple[int, Fraction]:
    """Unit shifts K taking x to x + K > 0, and the exact finite part
    sum_{j<K} (+-1)^j (x + j)^(-s) that they move out of the series."""
    if x.denominator == 1 and x <= 0:
        raise DomainError(f"undefined at the non-positive integer {x}")
    K = 0 if x > 0 else int(math.floor(-x)) + 1
    finite = sum((Fraction(-1 if alternating and j % 2 else 1) / (x + j) ** s
                  for j in range(K)), Fraction(0))
    return K, finite


def hurwitz_any(s: int, x: Rational, prec: int) -> mpf:
    """zeta(s; x) for any rational x not a non-positive integer, via unit shifts."""
    x = _rational(x, "hurwitz_any")
    K, finite = _unit_shift(x, s, False)
    wp = prec + 16
    with mp.workprec(wp):
        return round_to(to_mpf(finite, wp) + hurwitz_zeta(s, x + K, wp), prec)


def alt_hurwitz_any(s: int, x: Rational, prec: int) -> mpf:
    """Alternating Hurwitz zeta at any rational non-(non-positive-integer) x."""
    x = _rational(x, "alt_hurwitz_any")
    K, finite = _unit_shift(x, s, True)
    wp = prec + 16
    with mp.workprec(wp):
        tail = alt_hurwitz_zeta(s, x + K, wp)
        if K % 2 == 1:
            tail = -tail
        return round_to(to_mpf(finite, wp) + tail, prec)


def digamma_any(x: Rational, prec: int) -> mpf:
    """psi(x) for any rational x not a non-positive integer."""
    x = _rational(x, "digamma_any")
    K, finite = _unit_shift(x, 1, False)
    wp = prec + 16
    with mp.workprec(wp):
        return round_to(digamma(x + K, wp) - to_mpf(finite, wp), prec)


def hurwitz_zeta1_any(x: Rational, prec: int) -> mpf:
    """The zeta(1; x) convention psi(1/2) - psi(x) at any admissible rational x."""
    wp = prec + 8
    with mp.workprec(wp):
        return round_to(digamma(Fraction(1, 2), wp) - digamma_any(x, wp), prec)


# ---------------------------------------------------------------------------
# Conventions for the divergent boundary symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaConvention:
    """Explicit replacement for zeta(1; a); ``enabled=False`` drops it."""

    enabled: bool = True

    def hurwitz1(self, a: RealLike, prec: int) -> mpf:
        if not self.enabled:
            return mpf(0)
        return hurwitz_zeta1_any(a, prec)


DEFAULT_CONVENTION = ZetaConvention()


# ---------------------------------------------------------------------------
# Depth-1 t / T values
# ---------------------------------------------------------------------------

def single_t(s: int, prec: int) -> mpf:
    """t(s) = (1 - 2^-s) zeta(s), s >= 2."""
    if s < 2:
        raise DomainError("single_t requires s >= 2 (t(1) diverges)")
    with mp.workprec(prec + 8):
        return round_to((1 - mpf(2) ** (-s)) * riemann_zeta(s, prec + 8), prec)


def dirichlet_beta(s: int, prec: int) -> mpf:
    """beta(s) = sum_{n>=0} (-1)^n (2n+1)^(-s) = 2^-s alt_hurwitz_zeta(s, 1/2), s >= 1."""
    if s < 1:
        raise DomainError("dirichlet_beta requires s >= 1")
    return mp.ldexp(alt_hurwitz_zeta(s, Fraction(1, 2), prec), -s)


def single_t_bar(s: int, prec: int) -> mpf:
    """t(s with alternating sign) = sum_{n>=1} (-1)^n (2n-1)^(-s) = -beta(s)."""
    if s < 1:
        raise DomainError("single_t_bar requires s >= 1")
    return round_to(-dirichlet_beta(s, prec + 4), prec)


def ttilde(s: int, prec: int) -> mpf:
    """ttilde(s) = 2^s t(s) = sum (n-1/2)^(-s); ttilde(1) is 0 by convention."""
    if s < 1:
        raise DomainError("ttilde requires s >= 1")
    if s == 1:
        return mpf(0)
    with mp.workprec(prec + 8):
        return round_to(mpf(2) ** s * single_t(s, prec + 8), prec)


def ttilde_bar(s: int, prec: int) -> mpf:
    """Alternating ttilde(s) = 2^s t_bar(s)."""
    if s < 1:
        raise DomainError("ttilde_bar requires s >= 1")
    with mp.workprec(prec + 8):
        return round_to(mpf(2) ** s * single_t_bar(s, prec + 8), prec)


def single_T(s: int, prec: int) -> mpf:
    """Depth-1 T value, T(s) = 2 t(s), s >= 2."""
    if s < 2:
        raise DomainError("single_T requires s >= 2")
    with mp.workprec(prec + 8):
        return round_to(2 * single_t(s, prec + 8), prec)


def single_T_bar(s: int, prec: int) -> mpf:
    """Depth-1 alternating T value, 2 t_bar(s), s >= 1."""
    if s < 1:
        raise DomainError("single_T_bar requires s >= 1")
    with mp.workprec(prec + 8):
        return round_to(2 * single_t_bar(s, prec + 8), prec)


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
    from shifted power sums (Hurwitz zeta via finite shifts), except the
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
                    coeffs.append(+(digamma_any(-base, wp) - digamma(Fraction(1, 2), wp)))
                else:
                    sigma = hurwitz_any(q, -base, wp)
                    coeffs.append(+(sign * fac * comb(p - 1 + j, j) * sigma))
            pole_order = 0
    return jet_from_coeffs(base, [round_to(v, prec) for v in coeffs], prec, pole_order=pole_order)
