"""Single-variable special functions and their jets.

Everything here reduces to three engines: Euler-Maclaurin summation for the
Hurwitz zeta family, a shifted asymptotic expansion for the digamma
function, and Taylor recurrences for the trigonometric kernels.  Shift
identities extend the a > 0 domain of the zeta/digamma engines to every
admissible real argument the identity checks need.

``tail_zeta_batch`` serves the many exponents the series engine needs at
one point: Euler-Maclaurin (Hurwitz) or Boole summation (alternating) in
fixed-point integers, after a shared direct head if the point is too small.

Conventions for the divergent boundary symbols: ``ttilde(1)`` is 0, and
zeta(1; a) -> psi(1/2) - psi(a) lives in ``ZetaConvention``, applied only
where explicitly requested; ``riemann_zeta(1)`` is an error.  The symbolic
zeta(1) -> -2 log 2 rule lives with the reductions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, factorial
from typing import Union

from mpmath import mp, mpf

from .jets import JetSeries, jet_from_coeffs, jet_mul, jet_recip
from .numeric import (
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


def _akey(a: RealLike):
    if isinstance(a, Fraction):
        return (a.numerator, a.denominator)
    if isinstance(a, int):
        return (a, 1)
    return a


def _as_exact(a: RealLike) -> Union[Fraction, mpf]:
    if isinstance(a, int):
        return Fraction(a)
    return a


# ---------------------------------------------------------------------------
# Euler-Maclaurin engines
# ---------------------------------------------------------------------------

def _hurwitz_em(s: int, a, wp: int) -> mpf:
    """zeta(s; a) for integer s >= 2 and a >= 1, working precision wp."""
    N = max(64, math.ceil(0.35 * wp))
    M = max(4, math.ceil(wp / 8))
    with mp.workprec(wp):
        am = to_mpf(a, wp)
        head = mpf(0)
        for n in range(N):
            head += (n + am) ** (-s)
        x = N + am
        res = head + x ** (1 - s) / (s - 1) + x ** (-s) / 2
        eps = abs(res) * mpf(2) ** (-wp - 4)
        pw = x ** (-s - 1)
        inv_x2 = 1 / (x * x)
        rise = 1  # rising factorial s(s+1)...(s+2k-2)
        prev = None
        for k in range(1, 4 * M + 1):
            if k == 1:
                rise = s
            else:
                rise *= (s + 2 * k - 3) * (s + 2 * k - 2)
            b = bernoulli(2 * k)
            term = mpf(b.numerator) / b.denominator / factorial(2 * k) * rise * pw
            res += term
            at = abs(term)
            if at < eps:
                break
            if prev is not None and at > prev:
                break  # asymptotic divergence onset; N was large enough anyway
            prev = at
            pw *= inv_x2
        return +res


def hurwitz_zeta(s: int, a: RealLike, prec: int) -> mpf:
    """Hurwitz zeta zeta(s; a) = sum_{n>=0} (n+a)^(-s) for integer s >= 2, a > 0."""
    if s < 2:
        raise DomainError("hurwitz_zeta requires s >= 2 (zeta(1; a) is convention-only)")
    a = _as_exact(a)
    if not a > 0:
        raise DomainError("hurwitz_zeta requires a > 0")
    key = ("hz", s, _akey(a), prec)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    wp = working_prec(prec, max(64, math.ceil(0.35 * prec)) + prec // 8)
    shift = mpf(0)
    with mp.workprec(wp):
        while a < 1:
            shift += to_mpf(a, wp) ** (-s)
            a = a + 1
        value = round_to(shift + _hurwitz_em(s, a, wp), prec)
    _zeta_cache[key] = value
    return value


def riemann_zeta(s: int, prec: int) -> mpf:
    """zeta(s) for integer s >= 2, by Euler-Maclaurin on the defining series."""
    if s < 2:
        raise DomainError("riemann_zeta requires s >= 2; zeta(1) exists only as a convention")
    return hurwitz_zeta(s, 1, prec)


def digamma(a: RealLike, prec: int) -> mpf:
    """psi(a) for a > 0 via argument shift plus the asymptotic expansion."""
    a = _as_exact(a)
    if not a > 0:
        raise DomainError("digamma requires a > 0")
    key = ("psi", _akey(a), prec)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    wp = working_prec(prec, max(64, math.ceil(0.35 * prec)))
    X0 = max(20, math.ceil(0.35 * wp))
    with mp.workprec(wp):
        am = to_mpf(a, wp)
        K = max(0, int(math.ceil(X0 - am)))
        x = am + K
        res = mp.ln(x) - 1 / (2 * x)
        eps = mpf(2) ** (-wp - 4)
        x2 = x * x
        pw = x2
        prev = None
        for k in range(1, wp // 2 + 2):
            b = bernoulli(2 * k)
            term = mpf(b.numerator) / (b.denominator * 2 * k) / pw
            res -= term
            at = abs(term)
            if at < eps:
                break
            if prev is not None and at > prev:
                break
            prev = at
            pw *= x2
        for j in range(K):
            res -= 1 / (am + j)
        value = round_to(res, prec)
    _zeta_cache[key] = value
    return value


def hurwitz_zeta1(a: RealLike, prec: int) -> mpf:
    """The zeta(1; a) convention value psi(1/2) - psi(a), for a > 0."""
    a = _as_exact(a)
    if not a > 0:
        raise DomainError("hurwitz_zeta1 requires a > 0")
    wp = prec + 8
    with mp.workprec(wp):
        return round_to(digamma(Fraction(1, 2), wp) - digamma(a, wp), prec)


def alt_hurwitz_zeta(s: int, a: RealLike, prec: int) -> mpf:
    """Alternating Hurwitz zeta sum_{n>=0} (-1)^n (n+a)^(-s), s >= 1, a > 0.

    Even/odd pairing gives 2^(-s) (zeta(s; a/2) - zeta(s; (a+1)/2)) for
    s >= 2; for s = 1 the paired series telescopes to digamma values.
    """
    if s < 1:
        raise DomainError("alt_hurwitz_zeta requires s >= 1")
    a = _as_exact(a)
    if not a > 0:
        raise DomainError("alt_hurwitz_zeta requires a > 0")
    key = ("ahz", s, _akey(a), prec)
    cached = _zeta_cache.get(key)
    if cached is not None:
        return cached
    wp = prec + 16
    half, half1 = a / 2, (a + 1) / 2
    with mp.workprec(wp):
        if s == 1:
            value = (digamma(half1, wp) - digamma(half, wp)) / 2
        else:
            value = (hurwitz_zeta(s, half, wp) - hurwitz_zeta(s, half1, wp)) / mpf(2) ** s
        value = round_to(value, prec)
    _zeta_cache[key] = value
    return value


# ---------------------------------------------------------------------------
# Batched tail values: one fixed-point pass for many exponents at one point
# ---------------------------------------------------------------------------

def _scaled_tail(sigma: int, s: int, Y: int, D: int, F: int, coeffs: list) -> int:
    """2^F y^(s-1) sum_{n>=0} sigma^n (n + y)^(-s) at y = Y/D, in fixed point.

    Euler-Maclaurin gives 1/(s-1) + 1/(2y) + sum_k c_k (s)_(2k-1) y^(-2k),
    c_k = B_2k/(2k)!; Boole summation the same without 1/(s-1) and with
    (4^k - 1) c_k, cached in ``coeffs`` to F + 8 bits.  For these completely
    monotone summands the remainder is at most the first omitted term, so the
    loop stops at the first term below one unit; past the smallest term, at
    s + 2k > c pi y, it raises ArithmeticError.
    """
    v = (D << F) // (2 * Y) + ((1 << F) // (s - 1) if sigma == 1 else 0)
    Y2, D2 = Y * Y, D * D
    kmax = ((2 if sigma == 1 else 1) * math.pi * Y / D - s) / 2 + 1
    rise = (s * D2 << F) // Y2  # 2^F (s)_(2k-1) y^(-2k), floored
    for k in itertools.count(1):
        if k > kmax:
            raise ArithmeticError(f"tail series of exponent {s} at {Fraction(Y, D)} "
                                  f"cannot reach 2^-{F}")
        if k > len(coeffs):
            c = abs(bernoulli(2 * k)) / factorial(2 * k) * (1 if sigma == 1 else 4 ** k - 1)
            e = F + 8 - c.numerator.bit_length() + c.denominator.bit_length()
            coeffs.append(((c.numerator << e) // c.denominator, e))
        m, e = coeffs[k - 1]
        term = (rise * m) >> e
        if not term:
            return v
        v += term if k % 2 else -term
        rise = rise * (s + 2 * k - 1) * (s + 2 * k) * D2 // Y2


def _head_length(sigma: int, s: int, x: Fraction, bits: int) -> int:
    """Unit shifts n after which the tail series of exponent s reaches
    2^-(bits + 8): its smallest term is about exp(-(z - s ln(z/s) - s)),
    z = c pi (x + n), with c = 2 for sigma = +1 and 1 for sigma = -1."""
    for n in itertools.count():
        z = (2 if sigma == 1 else 1) * math.pi * float(x + n)
        if z > s and z - s * math.log(z / s) - s >= (bits + 8) * math.log(2):
            return n


def _zeta_batch(sigma: int, ss: list[int], x: Fraction, prec: int) -> list[mpf]:
    """Uncached ``tail_zeta_batch`` for sorted distinct ss.

    With y = x + n, n set by the largest s, and V_s(y) = y^(s-1) zeta(s; y)
    from ``_scaled_tail``, V_s(x) = sum_{j<n} sigma^j (x/(x+j))^(s-1)/(x+j)
    + sigma^n (x/y)^(s-1) V_s(y), all in one fixed point of F bits.  The
    ratio powers are floored one factor at a time, so each depends only on
    its exponent.
    """
    num, den = x.numerator, x.denominator
    F = prec + 64 + (2 * num // den + 1).bit_length() + ss[-1].bit_length()
    n = _head_length(sigma, ss[-1], x, F)
    ratio, power, coeffs, out = [1 << F] * (n + 1), 0, [], []  # 2^F (x/(x+j))^power
    for s in ss:
        for _ in range(power, s - 1):
            ratio = [r * num // (num + j * den) for j, r in enumerate(ratio)]
        power = s - 1
        v = sigma ** n * ratio[n] * _scaled_tail(sigma, s, num + n * den, den, F, coeffs) >> F
        v += sum(sigma ** j * r * den // (num + j * den) for j, r in enumerate(ratio[:n]))
        # zeta = v 2^-F x^(1-s): at least prec + 32 bits of the quotient, then round
        a, b = v * den ** (s - 1), num ** (s - 1)
        shift = max(0, prec + 32 - a.bit_length() + b.bit_length())
        with mp.workprec(prec):
            out.append(mpf(((a << shift) // b, -F - shift)))
    return out


def tail_zeta_batch(sigma: int, ss, x: Union[int, Fraction], prec: int) -> list[mpf]:
    """sum_{n>=0} sigma^n (n + x)^(-s) for every integer s >= 2 in ``ss`` at one
    rational x > 0 (Hurwitz or alternating Hurwitz zeta), rounded at ``prec``;
    one fixed-point pass serves every exponent not yet cached."""
    x = Fraction(x)
    keys = {s: ("tz", sigma, s, _akey(x), prec) for s in ss}
    if sigma not in (1, -1) or not x > 0 or any(s < 2 for s in keys):
        raise DomainError("tail_zeta_batch requires sigma = +-1, x > 0 and s >= 2")
    todo = sorted(s for s, key in keys.items() if key not in _zeta_cache)
    if todo:
        for s, value in zip(todo, _zeta_batch(sigma, todo, x, prec)):
            _zeta_cache[keys[s]] = value
    return [_zeta_cache[keys[s]] for s in ss]


def alt_zeta(s: int, prec: int) -> mpf:
    """Alternating Riemann zeta sum_{n>=1} (-1)^(n-1) n^(-s), s >= 1."""
    if s < 1:
        raise DomainError("alt_zeta requires s >= 1")
    if s == 1:
        return real_const("log2", prec)
    return alt_hurwitz_zeta(s, 1, prec)


def param_digamma_deriv(p: int, a: RealLike, prec: int) -> mpf:
    """Value of the shifted digamma derivative Psi^(p-1)(1/2 + a), a > 0.

    Equals (-1)^p (p-1)! zeta(p; a) for p >= 2 and -(psi(1/2) - psi(a))
    for p = 1.
    """
    if p < 1:
        raise DomainError("param_digamma_deriv requires p >= 1")
    a = _as_exact(a)
    if not a > 0:
        raise DomainError("param_digamma_deriv requires a > 0")
    if p == 1:
        with mp.workprec(prec + 8):
            return round_to(-hurwitz_zeta1(a, prec + 8), prec)
    sign = 1 if p % 2 == 0 else -1
    with mp.workprec(prec + 8):
        return round_to(sign * factorial(p - 1) * hurwitz_zeta(p, a, prec + 8), prec)


# ---------------------------------------------------------------------------
# Shift helpers extending the a > 0 domain to all admissible real arguments
# ---------------------------------------------------------------------------

def _unit_shift(x: Union[Fraction, mpf], s: int, alternating: bool) -> tuple[int, Fraction]:
    """Unit shifts K taking x to x + K > 0, and the exact finite part
    sum_{j<K} (+-1)^j (x + j)^(-s) that they move out of the series."""
    if not isinstance(x, Fraction):
        if not x > 0:
            raise DomainError("non-rational arguments require x > 0")
        return 0, Fraction(0)
    if x.denominator == 1 and x <= 0:
        raise DomainError(f"undefined at the non-positive integer {x}")
    K = 0 if x > 0 else int(math.floor(-x)) + 1
    finite = sum((Fraction(-1 if alternating and j % 2 else 1) / (x + j) ** s
                  for j in range(K)), Fraction(0))
    return K, finite


def hurwitz_any(s: int, x: RealLike, prec: int) -> mpf:
    """zeta(s; x) for any rational x not a non-positive integer, via unit shifts."""
    x = _as_exact(x)
    K, finite = _unit_shift(x, s, False)
    wp = prec + 16
    with mp.workprec(wp):
        return round_to(to_mpf(finite, wp) + hurwitz_zeta(s, x + K, wp), prec)


def alt_hurwitz_any(s: int, x: RealLike, prec: int) -> mpf:
    """Alternating Hurwitz zeta at any rational non-(non-positive-integer) x."""
    x = _as_exact(x)
    K, finite = _unit_shift(x, s, True)
    wp = prec + 16
    with mp.workprec(wp):
        tail = alt_hurwitz_zeta(s, x + K, wp)
        if K % 2 == 1:
            tail = -tail
        return round_to(to_mpf(finite, wp) + tail, prec)


def digamma_any(x: RealLike, prec: int) -> mpf:
    """psi(x) for any rational x not a non-positive integer."""
    x = _as_exact(x)
    K, finite = _unit_shift(x, 1, False)
    wp = prec + 16
    with mp.workprec(wp):
        return round_to(digamma(x + K, wp) - to_mpf(finite, wp), prec)


def hurwitz_zeta1_any(x: RealLike, prec: int) -> mpf:
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
    """beta(s) = sum_{n>=0} (-1)^n (2n+1)^(-s), s >= 1, via Hurwitz differences."""
    if s < 1:
        raise DomainError("dirichlet_beta requires s >= 1")
    wp = prec + 16
    with mp.workprec(wp):
        if s == 1:
            diff = digamma(Fraction(3, 4), wp) - digamma(Fraction(1, 4), wp)
        else:
            diff = hurwitz_zeta(s, Fraction(1, 4), wp) - hurwitz_zeta(s, Fraction(3, 4), wp)
        return round_to(diff / mpf(4) ** s, prec)


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


def psi_jet(p: int, base: RealLike, order: int, prec: int) -> JetSeries:
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
    base = _as_exact(base)
    is_pole = isinstance(base, Fraction) and base.denominator == 1 and base >= 0
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
