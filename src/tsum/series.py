"""High-precision evaluation of the defining series.

The series handled here all have the shape

    S = sum_{n>=1} sigma^n * W(n) * R(n),

with W(n) a product of odd harmonic numbers h_n^(p) or h_{n-1}^(p) (possibly
empty) and R(n) a rational function with half-integer-shifted poles,
R(n) = prod_i (n + a_i - 1/2)^(-q_i).

Evaluation strategy for the linear case (at most one harmonic factor):

* R is partial-fractioned exactly over Q.
* The first N terms are summed directly with an incrementally updated
  harmonic value.
* The tail is rearranged exactly: with h the harmonic prefix sums,
  h(n) = h(N) + sum_{k=N+1..n} (k-1/2)^(-p), so the tail splits into
  h(N) * sum_{n>N} sigma^n R(n)  (a closed form in Hurwitz zeta / digamma /
  alternating Hurwitz zeta values) plus sum_{k>N} (k-1/2)^(-p) G(k) where
  G(k) = sum_{n>=k+off} sigma^n R(n) is again such a closed form.  G is then
  expanded asymptotically in powers of 1/(k-1/2) with exact rational
  coefficients (Euler-Maclaurin series recomposed binomially), so the k-sum
  collapses to (alternating) Hurwitz zeta values at N + 1/2.

Products of two or more harmonic factors fall back to budgeted direct
summation; no closed form in this package covers them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from mpmath import mp, mpf

from .numeric import bernoulli, check_precision, guard_bits, round_to, to_mpf
from .special import alt_hurwitz_zeta, digamma, hurwitz_zeta


class SpecError(ValueError):
    """Malformed summation spec."""


class DivergentSumError(SpecError):
    """The requested series does not converge."""


class SingularSumError(SpecError):
    """A denominator factor vanishes at some summation index."""


class BudgetExceededError(RuntimeError):
    """Direct summation could not meet the tail target within the term cap."""


NAIVE_START_TERMS = 1 << 14
NAIVE_TERM_CAP = 1 << 22


def harmonic(n: int, p: int = 1) -> Fraction:
    """Exact generalized harmonic number H_n^(p)."""
    if n < 0:
        raise SpecError("harmonic index must be >= 0")
    if p < 1:
        raise SpecError("harmonic order must be >= 1")
    return sum((Fraction(1, k ** p) for k in range(1, n + 1)), Fraction(0))


def odd_harmonic(n: int, p: int = 1) -> Fraction:
    """Exact odd harmonic number h_n^(p) = sum_{k<=n} (k - 1/2)^(-p)."""
    if n < 0:
        raise SpecError("odd harmonic index must be >= 0")
    if p < 1:
        raise SpecError("odd harmonic order must be >= 1")
    return sum((Fraction(1) / Fraction(2 * k - 1, 2) ** p for k in range(1, n + 1)),
               Fraction(0))


@dataclass(frozen=True)
class SumSpec:
    """Full description of one parametric Euler T-sum instance."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    a: tuple[Fraction, ...]
    sigma: int = 1
    harmonic_offset: str = "cur"  # "cur" -> h_n, "prev" -> h_{n-1}

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise SpecError("sigma must be +1 or -1")
        offset = {"n": "cur", "n-1": "prev"}.get(self.harmonic_offset, self.harmonic_offset)
        object.__setattr__(self, "harmonic_offset", offset)
        if offset not in ("cur", "prev"):
            raise SpecError("harmonic_offset must be 'cur' (h_n) or 'prev' (h_{n-1})")
        if len(self.q) != len(self.a):
            raise SpecError("q and a must have equal length")
        if any(pi < 1 for pi in self.p):
            raise SpecError("harmonic exponents must be >= 1")
        if any(qi < 0 for qi in self.q):
            raise SpecError("denominator exponents must be >= 0")
        object.__setattr__(self, "p", tuple(sorted(self.p)))
        object.__setattr__(self, "a", tuple(Fraction(ai) for ai in self.a))
        # drop q_i = 0 factors (they contribute 1)
        kept = [(qi, ai) for qi, ai in zip(self.q, self.a) if qi > 0]
        object.__setattr__(self, "q", tuple(qi for qi, _ in kept))
        object.__setattr__(self, "a", tuple(ai for _, ai in kept))
        for ai in self.a:
            t = ai - Fraction(1, 2)
            if t.denominator == 1 and t <= -1:
                raise SingularSumError(f"shift {ai} makes a denominator vanish")
        total = sum(self.q)
        if self.sigma == 1 and total < 2:
            raise DivergentSumError("sigma=+1 requires total denominator weight >= 2")
        if self.sigma == -1 and total < 1:
            raise DivergentSumError("sigma=-1 requires total denominator weight >= 1")

    @property
    def offset(self) -> int:
        return 0 if self.harmonic_offset == "cur" else 1

    def factors(self) -> list[tuple[Fraction, int]]:
        """Grouped (t, e) pairs with R(n) = prod (n + t)^(-e)."""
        grouped: dict[Fraction, int] = {}
        for qi, ai in zip(self.q, self.a):
            t = ai - Fraction(1, 2)
            grouped[t] = grouped.get(t, 0) + qi
        return sorted(grouped.items())


@dataclass(frozen=True)
class SeriesResult:
    value: mpf
    tail_bound: mpf
    terms_used: int
    precision_bits: int


# ---------------------------------------------------------------------------
# Exact partial fractions over Q
# ---------------------------------------------------------------------------

def _series_mul(a: list[Fraction], b: list[Fraction], K: int) -> list[Fraction]:
    out = [Fraction(0)] * (K + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > K:
            continue
        for j, bj in enumerate(b):
            if i + j > K:
                break
            out[i + j] += ai * bj
    return out


def partial_fractions(factors: Sequence[tuple[Fraction, int]]) -> list[tuple[Fraction, int, Fraction]]:
    """Exact decomposition prod (n+t)^(-e) = sum c/(n+t)^l over Q.

    Returns (t, l, c) triples.  Expansion of the complementary product
    around each pole supplies the coefficients.
    """
    factors = [(Fraction(t), int(e)) for t, e in factors if e > 0]
    out: list[tuple[Fraction, int, Fraction]] = []
    for t, e in factors:
        K = e - 1
        series = [Fraction(1)] + [Fraction(0)] * K
        for t2, e2 in factors:
            if t2 == t:
                continue
            delta = t2 - t
            # (eps + delta)^(-e2) expanded in eps
            fac = [Fraction((-1) ** r * comb(e2 + r - 1, r), 1) / delta ** (e2 + r)
                   for r in range(K + 1)]
            series = _series_mul(series, fac, K)
        for l in range(1, e + 1):
            c = series[e - l]
            if c != 0:
                out.append((t, l, c))
    return out


# ---------------------------------------------------------------------------
# Asymptotic expansions in powers of 1/u with exact rational coefficients
# ---------------------------------------------------------------------------
#
# A PowerTail maps w -> coefficient of u^(-w).  All expansions are truncated
# at power W and are valid (first-omitted-term accurate) for u >= xmin.

PowerTail = dict[int, Fraction]

_expansion_cache: dict = {}


def _add_scaled(dst: PowerTail, src: PowerTail, scale: Fraction) -> None:
    if scale == 0:
        return
    for w, c in src.items():
        dst[w] = dst.get(w, Fraction(0)) + scale * c


def _binom_powers(m: int, delta: Fraction, W: int) -> PowerTail:
    """(u + delta)^(-m) = sum_r binom(-m, r) delta^r u^(-m-r), truncated at W."""
    out: PowerTail = {}
    if m > W:
        return out
    if delta == 0:
        out[m] = Fraction(1)
        return out
    pw = Fraction(1)
    for r in range(W - m + 1):
        out[m + r] = Fraction((-1) ** r * comb(m + r - 1, r)) * pw
        pw *= delta
    return out


def _em_depth(e: int, xmin: float, target_bits: int) -> int:
    """Number of Bernoulli correction terms for accuracy 2^-target_bits at x >= xmin."""
    lx = math.log2(xmin)
    for j in range(1, 400):
        # |B_2j|/(2j)! ~ 2/(2 pi)^(2j); rising factorial (e)_{2j-1}
        lg = 1 - 2 * j * math.log2(2 * math.pi)
        lg += (math.lgamma(e + 2 * j - 1) - math.lgamma(e)) / math.log(2)
        lg -= (e + 2 * j - 1) * lx
        if lg < -(target_bits + 16):
            return j
    raise ArithmeticError("Euler-Maclaurin expansion cannot reach the target accuracy; "
                          "increase the explicit term count")


def _pick_truncation(wp: int, N: int, dmax: float, emax: int) -> int:
    """Truncation power W so that dropped u^-w contributions stay below
    2^-(wp+24) for u >= N + 1/2.

    Two effects bound kept-coefficient decay: the binomial recomposition
    ratio (1+dmax)/u and the Euler-Maclaurin coefficient growth, worst in
    the halved-argument (alternating) expansions where the term at power m
    is of size ~ (m-1)! / (pi (N+1/2))^m.
    """
    target = wp + 24
    rho_bits = math.log2((N + 0.5) / (1 + dmax))
    W = math.ceil(target / rho_bits)
    lbase = math.log2(math.pi * (N + 0.5))
    for m in range(8, 4000):
        if math.lgamma(m) / math.log(2) + 1 - m * lbase < -target:
            W = max(W, m)
            break
    return W + emax + 4


def _hurwitz_powers(e: int, delta: Fraction, W: int, J: int) -> PowerTail:
    """Asymptotic zeta(e; u + delta) as a truncated power tail (e >= 2)."""
    out: PowerTail = {}
    _add_scaled(out, _binom_powers(e - 1, delta, W), Fraction(1, e - 1))
    _add_scaled(out, _binom_powers(e, delta, W), Fraction(1, 2))
    for j in range(1, J + 1):
        m = e + 2 * j - 1
        if m > W:
            break
        rise = Fraction(1)
        for i in range(2 * j - 1):
            rise *= e + i
        coef = bernoulli(2 * j) / factorial(2 * j) * rise
        _add_scaled(out, _binom_powers(m, delta, W), coef)
    return out


def _psi_reg_powers(delta: Fraction, W: int, J: int) -> PowerTail:
    """psi(u + delta) - ln u as a truncated power tail."""
    out: PowerTail = {}
    if delta != 0:
        pw = delta
        for r in range(1, W + 1):
            out[r] = out.get(r, Fraction(0)) + Fraction((-1) ** (r - 1), r) * pw
            pw *= delta
    _add_scaled(out, _binom_powers(1, delta, W), Fraction(-1, 2))
    for j in range(1, J + 1):
        if 2 * j > W:
            break
        _add_scaled(out, _binom_powers(2 * j, delta, W), -bernoulli(2 * j) / (2 * j))
    return out


def _log_ratio_powers(delta: Fraction, W: int) -> PowerTail:
    """ln(1 + delta/u) as a truncated power tail."""
    out: PowerTail = {}
    if delta == 0:
        return out
    pw = delta
    for r in range(1, W + 1):
        out[r] = Fraction((-1) ** (r - 1), r) * pw
        pw *= delta
    return out


def _alt_hurwitz_powers(e: int, delta: Fraction, W: int, J: int) -> PowerTail:
    """Asymptotic alternating Hurwitz zeta(e; u + delta), e >= 1.

    Built from the even/odd pairing zeta_alt(e; x) =
    2^(-e)(zeta(e; x/2) - zeta(e; (x+1)/2)); for e = 1 the digamma form.
    """
    out: PowerTail = {}
    if e == 1:
        # (psi((x+1)/2) - psi(x/2)) / 2 with x = u + delta
        _add_scaled(out, _log_ratio_powers(delta + 1, W), Fraction(1, 2))
        _add_scaled(out, _log_ratio_powers(delta, W), Fraction(-1, 2))
        for c, sign in ((1, Fraction(1, 2)), (0, Fraction(-1, 2))):
            # T(y) = psi(y) - ln y at y = (u + delta + c)/2; y^-m = 2^m (u+delta+c)^-m
            _add_scaled(out, _binom_powers(1, delta + c, W), -sign)
            for j in range(1, J + 1):
                if 2 * j > W:
                    break
                coef = -bernoulli(2 * j) / (2 * j) * Fraction(2) ** (2 * j)
                _add_scaled(out, _binom_powers(2 * j, delta + c, W), sign * coef)
        return out
    half = Fraction(1, 2) ** e
    for c, sign in ((0, half), (1, -half)):
        dc = delta + c
        # zeta(e; y) EM terms with y = (u + dc)/2
        _add_scaled(out, _binom_powers(e - 1, dc, W),
                    sign * Fraction(2) ** (e - 1) / (e - 1))
        _add_scaled(out, _binom_powers(e, dc, W), sign * Fraction(2) ** e / 2)
        for j in range(1, J + 1):
            m = e + 2 * j - 1
            if m > W:
                break
            rise = Fraction(1)
            for i in range(2 * j - 1):
                rise *= e + i
            coef = bernoulli(2 * j) / factorial(2 * j) * rise * Fraction(2) ** m
            _add_scaled(out, _binom_powers(m, dc, W), sign * coef)
    return out


# ---------------------------------------------------------------------------
# Accelerated linear evaluation
# ---------------------------------------------------------------------------

def _tail_zeta(w: int, N: int, sigma: int, wp: int) -> mpf:
    x = Fraction(2 * N + 1, 2)
    if sigma == 1:
        return hurwitz_zeta(w, x, wp)
    return alt_hurwitz_zeta(w, x, wp)


def accel_linear_sum(p: Optional[int], offset: int, sigma: int,
                     pf: Sequence[tuple[Fraction, int, Fraction]],
                     prec: int) -> SeriesResult:
    """Accelerated sum_{n>=1} sigma^n h-factor(n) R(n) with R given in
    partial fractions [(t, e, c)]; p None means no harmonic factor."""
    for t, e, _ in pf:
        if t.denominator == 1 and t <= -1:
            raise SingularSumError(f"pole at positive integer n = {-t}")
        if e < 1:
            raise SpecError("partial fraction exponents must be >= 1")
    order1 = sum(c for t, e, c in pf if e == 1)
    if sigma == 1 and order1 != 0:
        raise DivergentSumError("sum of order-1 coefficients must vanish for sigma=+1")

    wp = prec + 48
    emax = max(e for _, e, _ in pf)
    dmax = float(max([abs(t + offset + Fraction(1, 2)) for t, _, _ in pf] + [Fraction(1)]))
    N = max(128, math.ceil(0.55 * wp), math.ceil(8 * (1 + dmax)))
    W = _pick_truncation(wp, N, dmax, emax)
    J = _em_depth(emax, (N + 0.5) / 2.0, wp)

    with mp.workprec(wp):
        # direct head
        head = mpf(0)
        abs_head = mpf(0)
        hprev = mpf(0)
        tvals = [(to_mpf(t, wp), e, to_mpf(c, wp)) for t, e, c in pf]
        for n in range(1, N + 1):
            rn = mpf(0)
            for tm, e, cm in tvals:
                rn += cm * (n + tm) ** (-e)
            if p is None:
                w_factor = mpf(1)
            else:
                un_p = (n - mpf(0.5)) ** (-p)
                w_factor = hprev if offset == 1 else hprev + un_p
                hprev += un_p
            term = w_factor * rn
            if sigma == -1 and n % 2 == 1:
                term = -term
            head += term
            abs_head += abs(term)

        # closed-form rational tail sum_{n>N} sigma^n R(n)
        def rational_tail(m0: int) -> mpf:
            total = mpf(0)
            if sigma == 1:
                for t, e, c in pf:
                    arg = Fraction(m0) + t
                    if e == 1:
                        total -= to_mpf(c, wp) * digamma(arg, wp)
                    else:
                        total += to_mpf(c, wp) * hurwitz_zeta(e, arg, wp)
            else:
                for t, e, c in pf:
                    arg = Fraction(m0) + t
                    total += to_mpf(c, wp) * alt_hurwitz_zeta(e, arg, wp)
                if m0 % 2 == 1:
                    total = -total
            return total

        if p is None:
            value = head + rational_tail(N + 1)
            tb = (abs_head + abs(value) + 1) * mpf(2) ** (-wp + 10) \
                + abs(value) * mpf(2) ** (-prec + 1)
            return SeriesResult(round_to(value, prec), +tb, N, prec)

        piece1 = hprev * rational_tail(N + 1)

        # asymptotic expansion of G(k) = sum_{n>=k+offset} sigma^n R(n)
        expansion: PowerTail = {}
        for t, e, c in pf:
            delta = t + offset + Fraction(1, 2)
            key = (sigma, e, delta, W, J)
            comp = _expansion_cache.get(key)
            if comp is None:
                if sigma == 1:
                    if e == 1:
                        # -psi(k+off+t); the ln(u) parts cancel across the
                        # order-1 group (their coefficients sum to zero)
                        comp = {}
                        _add_scaled(comp, _psi_reg_powers(delta, W, J), Fraction(-1))
                    else:
                        comp = _hurwitz_powers(e, delta, W, J)
                else:
                    comp = _alt_hurwitz_powers(e, delta, W, J)
                _expansion_cache[key] = comp
            _add_scaled(expansion, comp, c)

        piece2 = mpf(0)
        trunc_est = mpf(0)
        zlim = mpf(N) ** -1
        for w in sorted(expansion):
            coef = expansion[w]
            if coef == 0:
                continue
            ww = w + p
            if sigma == 1 and ww < 2:
                raise DivergentSumError("internal: divergent tail power")
            zval = _tail_zeta(ww, N, sigma, wp)
            contrib = to_mpf(coef, wp) * zval
            if sigma == -1:
                if (offset + N + 1) % 2 == 1:
                    contrib = -contrib
            piece2 += contrib
            trunc_est = abs(contrib)
        trunc_est *= zlim  # continuation estimate beyond the last kept power

        value = head + piece1 + piece2
        tb = trunc_est + (abs_head + abs(piece1) + abs(piece2) + 1) * mpf(2) ** (-wp + 10) \
            + abs(value) * mpf(2) ** (-prec + 1)
        return SeriesResult(round_to(value, prec), +tb, N, prec)


# ---------------------------------------------------------------------------
# Direct (naive) evaluation with elementary tail bounds
# ---------------------------------------------------------------------------

def naive_sum(spec: SumSpec, prec: int, max_terms: int = NAIVE_START_TERMS) -> SeriesResult:
    """Direct summation of ``spec`` to ``max_terms`` terms.

    The reported tail bound is elementary: a scaled last term for sigma=+1,
    the first omitted pair for sigma=-1.
    """
    wp = prec + guard_bits(max_terms)
    factors = spec.factors()
    d = sum(e for _, e in factors)
    with mp.workprec(wp):
        tf = [(to_mpf(t, wp), e) for t, e in factors]
        hs = [mpf(0)] * len(spec.p)
        total = mpf(0)
        abs_total = mpf(0)
        last = mpf(0)

        def term_at(n: int, harmonics: list[mpf]) -> mpf:
            rn = mpf(1)
            for tm, e in tf:
                rn *= (n + tm) ** (-e)
            w_factor = mpf(1)
            for h in harmonics:
                w_factor *= h
            return w_factor * rn

        for n in range(1, max_terms + 1):
            un = n - mpf(0.5)
            if spec.offset == 0:
                for i, pi in enumerate(spec.p):
                    hs[i] += un ** (-pi)
            term = term_at(n, hs)
            if spec.offset == 1:
                for i, pi in enumerate(spec.p):
                    hs[i] += un ** (-pi)
            if spec.sigma == -1 and n % 2 == 1:
                term = -term
            total += term
            abs_total += abs(term)
            last = term

        if spec.sigma == 1:
            bound = 2 * abs(last) * max_terms / max(1, d - 1)
        else:
            n = max_terms + 1
            if spec.offset == 0:
                for i, pi in enumerate(spec.p):
                    hs[i] += (n - mpf(0.5)) ** (-pi)
            nxt = term_at(n, hs)
            bound = mpf(1.25) * abs(nxt)
        bound += abs_total * mpf(2) ** (-wp + 8) + abs(total) * mpf(2) ** (-prec + 1)
        return SeriesResult(round_to(total, prec), +bound, max_terms, prec)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def euler_t_sum(spec: SumSpec, prec: int, method: str = "auto",
                max_terms: Optional[int] = None) -> SeriesResult:
    """Numeric value of a parametric Euler T-sum.

    method "auto" uses the accelerated path for at most one harmonic factor
    and budgeted direct summation otherwise; "accelerated" and "naive"
    force the respective path.
    """
    if method not in ("auto", "accelerated", "naive"):
        raise SpecError(f"unknown method {method!r}")
    check_precision(prec)
    n = NAIVE_START_TERMS if max_terms is None else max_terms
    if n < 1:
        raise SpecError(f"max_terms must be >= 1, got {n}")
    if method == "naive":
        return naive_sum(spec, prec, n)
    if len(spec.p) <= 1:
        p = spec.p[0] if spec.p else None
        pf = partial_fractions(spec.factors())
        return accel_linear_sum(p, spec.offset, spec.sigma, pf, prec)
    if method == "accelerated":
        raise SpecError("accelerated evaluation covers at most one harmonic factor")
    # budgeted naive fallback for r >= 2
    target = mpf(2) ** (-prec + 16)
    while True:
        res = naive_sum(spec, prec, n)
        if res.tail_bound <= target:
            return res
        if n >= NAIVE_TERM_CAP:
            raise BudgetExceededError(
                f"tail bound {mp.nstr(res.tail_bound, 5)} above target after {n} terms")
        n *= 2


def double_t(s1: int, s2: int, bar1: bool, prec: int) -> SeriesResult:
    """Depth-2 t value t(s1, s2) (alternating in the leading slot if bar1)
    from its defining double series, via the equivalent single series."""
    if s2 < 1:
        raise DivergentSumError("double_t requires s2 >= 1")
    if (not bar1 and s1 < 2) or (bar1 and s1 < 1):
        raise DivergentSumError("divergent double_t parameters")
    spec = SumSpec(p=(s2,), q=(s1,), a=(Fraction(0),), sigma=-1 if bar1 else 1,
                   harmonic_offset="prev")
    res = euler_t_sum(spec, prec + 8)
    with mp.workprec(prec + 8):
        scale = mpf(2) ** (-(s1 + s2))
        return SeriesResult(round_to(res.value * scale, prec),
                            +(res.tail_bound * scale), res.terms_used, prec)


def double_T(s1: int, s2: int, bar1: bool, prec: int) -> SeriesResult:
    """Depth-2 T value T(s1, s2) (alternating leading slot if bar1) via the
    single-series forms 2^(2-s1-s2) sum (+-1)^(n-1)-weighted h_n^(s2)/n^(s1)."""
    if s2 < 1:
        raise DivergentSumError("double_T requires s2 >= 1")
    if (not bar1 and s1 < 2) or (bar1 and s1 < 1):
        raise DivergentSumError("divergent double_T parameters")
    spec = SumSpec(p=(s2,), q=(s1,), a=(Fraction(1, 2),), sigma=-1 if bar1 else 1,
                   harmonic_offset="cur")
    res = euler_t_sum(spec, prec + 8)
    with mp.workprec(prec + 8):
        scale = mpf(2) ** (2 - s1 - s2)
        if bar1:
            scale = -scale  # engine weights by (-1)^n, the T form by (-1)^(n-1)
        return SeriesResult(round_to(res.value * scale, prec),
                            +abs(res.tail_bound * scale), res.terms_used, prec)
