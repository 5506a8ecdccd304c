"""High-precision evaluation of the defining series.

The series handled here all have the shape

    S = sum_{n>=1} sigma^n * W(n) * R(n),

with W(n) a product of odd harmonic numbers h_n^(p) or h_{n-1}^(p) (possibly
empty) and R(n) a rational function with half-integer-shifted poles,
R(n) = prod_i (n + a_i - 1/2)^(-q_i).

Evaluation strategy for the linear case (at most one harmonic factor):

* R is partial-fractioned exactly over Q; the working precision grows by
  the bits near-coincident poles cancel beyond 40.
* The first N terms are summed in Python ints (``_direct``), at a scale
  2^-F set by the first non-zero term, so the error stays under
  abs_total 2^-wp for terms of any size.
* The tail is rearranged exactly: with h the harmonic prefix sums,
  h(n) = h(N) + sum_{k=N+1..n} (k-1/2)^(-p), so the tail splits into
  h(N) * sum_{n>N} sigma^n R(n)  (a closed form in Hurwitz zeta / digamma /
  alternating Hurwitz zeta values) plus sum_{k>N} (k-1/2)^(-p) G(k) where
  G(k) = sum_{n>=k+off} sigma^n R(n) is again such a closed form.  G is then
  expanded in powers of 1/u, u = k - 1/2, with exact rational coefficients by
  one builder: the Euler-Maclaurin series of zeta(e; (u + delta)/h),
  recomposed binomially.  sigma = +1 takes h = 1; sigma = -1 takes the h = 2
  even/odd pairing 2^(-e)(zeta(e; (u+delta)/2) - zeta(e; (u+delta+1)/2)).
  Each coefficient is one integer dot product.  The k-sum then collapses to
  (alternating) Hurwitz zeta values at N + 1/2, one ``tail_zeta_batch``.

Products of two or more harmonic factors fall back to budgeted direct
summation, in the same fixed point; no closed form here covers them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from mpmath import mp, mpf

from .numeric import bernoulli, check_precision, guard_bits, round_to, to_mpf
from .special import alt_hurwitz_zeta, digamma, hurwitz_zeta, tail_zeta_batch


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


def _tail_powers(sigma: int, e: int, delta: Fraction, W: int, J: int) -> PowerTail:
    """Exact power tail in 1/u of sum_{n>=0} sigma^n (u + delta + n)^(-e), e >= 1
    (at sigma = +1, e = 1: ln u - psi(u + delta)).

    sigma = +1 is zeta(e; y), y = u + delta; sigma = -1 is 2^(-e)(zeta(e; y/2)
    - zeta(e; (y+1)/2)).  Euler-Maclaurin gives zeta(e; y/h) = sum beta h^m
    y^(-m) over (m, beta) = (e-1, 1/(e-1)), (e, 1/2), (e+2j-1, B_2j/(2j)!
    (m-1)!/(e-1)!), plus -ln(1 + delta/u) at e = 1.  With delta = n/d, the
    u^(-w) coefficient of y^(-m) is (-1)^r C(w-1, r) n^r/d^r, r = w - m: one
    integer dot product over L d^w per power; the second half adds -(n + d)^r.
    """
    n, d = delta.numerator, delta.denominator
    h, scale = (1, Fraction(1)) if sigma == 1 else (2, Fraction(1, 2 ** e))
    betas = [(e - 1, Fraction(1, e - 1))] if e > 1 else []
    betas.append((e, Fraction(1, 2)))
    betas += [(m, bernoulli(m - e + 1) / factorial(m - e + 1)
               * Fraction(factorial(m - 1), factorial(e - 1)))
              for m in range(e + 1, min(e + 2 * J - 1, W) + 1, 2)]
    betas = [(m, scale * h ** m * beta) for m, beta in betas]
    L = math.lcm(*(beta.denominator for _, beta in betas))
    ints = [(m, (beta * L).numerator * d ** m) for m, beta in betas]
    shifted = [n ** r if sigma == 1 else n ** r - (n + d) ** r for r in range(W + 1)]
    out: PowerTail = {}
    for w in range(1, W + 1):
        dot = sum((-1) ** (w - m) * comb(w - 1, w - m) * shifted[w - m] * c
                  for m, c in ints if m <= w)
        coef = Fraction(dot, L * d ** w)
        if e == 1:
            coef += scale * Fraction((-1) ** w * shifted[w], w * d ** w)
        if coef:
            out[w] = coef
    return out


# ---------------------------------------------------------------------------
# Accelerated linear evaluation
# ---------------------------------------------------------------------------

def _tail_zeta(sigma: int, s: int, x: Fraction, wp: int) -> mpf:
    """sum_{n>=0} sigma^n (n + x)^(-s); -psi(x) stands in for sigma = +1, s = 1."""
    if sigma == -1:
        return alt_hurwitz_zeta(s, x, wp)
    if s == 1:
        return -digamma(x, wp)
    return hurwitz_zeta(s, x, wp)


def _cancellation_guard(pf: Sequence[tuple[Fraction, int, Fraction]]) -> int:
    """Guard bits beyond 48: near-coincident poles give large partial fractions
    of both signs, whose sum at the first n loses log2(sum |terms| / |R(n)|)
    bits; the 48 guard bits absorb 40 of them."""
    loss = 0
    for n in (1, 8):
        terms = [c / (n + t) ** e for t, e, c in pf]
        if sum(terms):
            ratio = sum(map(abs, terms)) / abs(sum(terms))
            loss = max(loss, ratio.numerator.bit_length() - ratio.denominator.bit_length())
    return max(0, loss - 40)


def accel_linear_sum(p: Optional[int], offset: int, sigma: int,
                     pf: Sequence[tuple[Fraction, int, Fraction]],
                     prec: int) -> SeriesResult:
    """Accelerated sum_{n>=1} sigma^n h-factor(n) R(n) with R given in
    partial fractions [(t, e, c)]; p None means no harmonic factor.  The
    ``_direct`` head errs by under abs_head 2^-wp and each later mpf step
    rounds at wp bits: well under (abs_head + |piece1| + |piece2| + 1) 2^(-wp+10).
    """
    for t, e, _ in pf:
        if t.denominator == 1 and t <= -1:
            raise SingularSumError(f"pole at positive integer n = {-t}")
        if e < 1:
            raise SpecError("partial fraction exponents must be >= 1")
    order1 = sum(c for t, e, c in pf if e == 1)
    if sigma == 1 and order1 != 0:
        raise DivergentSumError("sum of order-1 coefficients must vanish for sigma=+1")

    wp = prec + 48 + _cancellation_guard(pf)
    emax = max(e for _, e, _ in pf)
    dmax = float(max([abs(t + offset + Fraction(1, 2)) for t, _, _ in pf] + [Fraction(1)]))
    N = max(128, math.ceil(0.55 * wp), math.ceil(8 * (1 + dmax)))
    W = _pick_truncation(wp, N, dmax, emax)
    J = _em_depth(emax, (N + 0.5) / 2.0, wp)

    total, abs_total, _, F, hs, H = _direct(sigma, offset, () if p is None else (p,),
                                            [(c, [(t, e)]) for t, e, c in pf], N, wp)
    with mp.workprec(wp):
        head, abs_head = mpf((total, -F)), mpf((abs_total, -F))

        # closed-form rational tail sum_{n>N} sigma^n R(n)
        def rational_tail(m0: int) -> mpf:
            total = mpf(0)
            for t, e, c in pf:
                total += to_mpf(c, wp) * _tail_zeta(sigma, e, Fraction(m0) + t, wp)
            return -total if sigma == -1 and m0 % 2 == 1 else total

        if p is None:
            value = head + rational_tail(N + 1)
            tb = (abs_head + abs(value) + 1) * mpf(2) ** (-wp + 10) \
                + abs(value) * mpf(2) ** (-prec + 1)
            return SeriesResult(round_to(value, prec), +tb, N, prec)

        piece1 = mpf((hs[0], -H)) * rational_tail(N + 1)

        # asymptotic expansion of G(k) = sum_{n>=k+offset} sigma^n R(n); at
        # sigma = +1, e = 1 the ln u parts cancel across the order-1 group
        # (its coefficients sum to zero)
        expansion: PowerTail = {}
        for t, e, c in pf:
            delta = t + offset + Fraction(1, 2)
            key = (sigma, e, delta, W, J)
            comp = _expansion_cache.get(key)
            if comp is None:
                comp = _expansion_cache[key] = _tail_powers(sigma, e, delta, W, J)
            for w, cw in comp.items():
                expansion[w] = expansion.get(w, 0) + c * cw

        powers = [w for w in sorted(expansion) if expansion[w]]
        zvals = tail_zeta_batch(sigma, [w + p for w in powers], Fraction(2 * N + 1, 2), wp)
        contribs = [to_mpf(expansion[w], wp) * z for w, z in zip(powers, zvals)]
        piece2 = sum(contribs, mpf(0))
        if sigma == -1 and (offset + N + 1) % 2 == 1:
            piece2 = -piece2
        # continuation estimate beyond the last kept power
        trunc_est = abs(contribs[-1]) * mpf(N) ** -1 if contribs else mpf(0)

        value = head + piece1 + piece2
        tb = trunc_est + (abs_head + abs(piece1) + abs(piece2) + 1) * mpf(2) ** (-wp + 10) \
            + abs(value) * mpf(2) ** (-prec + 1)
        return SeriesResult(round_to(value, prec), +tb, N, prec)


# ---------------------------------------------------------------------------
# Direct summation in fixed point, with elementary tail bounds
# ---------------------------------------------------------------------------

def _direct(sigma: int, offset: int, ps: Sequence[int],
            pieces: Sequence[tuple[Fraction, Sequence[tuple[Fraction, int]]]], N: int, wp: int):
    """sum_{n<=N} sigma^n W(n) R(n) in Python ints, W(n) = prod_i h_{n-offset}^(p_i)
    and R(n) = sum_j k_j prod (n + t)^(-e) over pieces (k_j, [(t, e)]).  Returns
    the sum, the sum of |terms| and the N-th term in units of 2^-F, F, and
    h_N^(p_i) in units of 2^-H, H.

    With t = a/b, (n + t)^(-e) = b^e/(bn + a)^e: a piece is one floor division of
    floor(k prod b^e 2^F) per term, erring by under 2 units (that floor over
    |bn + a|^e >= 1, and the division); W(n) <= prod 2^(p_i-1) (ln(4N) + 1) <= V =
    2^(sum p - r) (bitlen N + 3)^r multiplies that, and W(n) R(n) is floored once:
    under U = N (2mV + 1) units for m pieces.  Each h gains floor(2^(p+H)/(2n-1)^p),
    H = wp + 32 + bitlen N, drifting by under n units against h >= 2: the r
    products add a relative r 2^-(wp+33).  F = wp + 1 + bitlen U - lg, lg <= log2
    |T_k| for the first non-zero term T_k (exact), keeps the error under abs_total 2^-wp.
    """
    r = len(ps)
    scaled = [(k * math.prod(Fraction(t.denominator) ** e for t, e in fs),
               [(t.denominator, t.numerator, e) for t, e in fs]) for k, fs in pieces]

    def exact(n: int) -> Fraction:
        return math.prod(odd_harmonic(n - offset, p) for p in ps) * sum(
            k / math.prod(Fraction(b * n + a) ** e for b, a, e in dens) for k, dens in scaled)

    first = next((x for x in map(exact, range(1, N + 1)) if x), Fraction(1))
    lg = abs(first.numerator).bit_length() - first.denominator.bit_length() - 1
    V = 2 ** (sum(ps) - r) * (N.bit_length() + 3) ** r
    F = max(0, wp + 1 + (N * (2 * len(pieces) * V + 1)).bit_length() - lg)
    H = wp + 32 + N.bit_length()
    kf = [((k.numerator << F) // k.denominator, dens) for k, dens in scaled]
    steps = [(p, 1 << (p + H)) for p in sorted(set(ps))]
    h = dict.fromkeys(ps, 0)
    total = abs_total = term = 0
    for n in range(1, N + 1):
        grown = {p: h[p] + step // (2 * n - 1) ** p for p, step in steps}
        if offset == 0:
            h = grown
        rn = 0
        for c, dens in kf:
            den = 1
            for b, a, e in dens:
                den *= (b * n + a) ** e
            rn += c // den
        for p in ps:
            rn *= h[p]
        term, h = rn >> r * H, grown
        if sigma == -1 and n & 1:
            term = -term
        total += term
        abs_total += abs(term)
    return total, abs_total, term, F, [h[p] for p in ps], H


def naive_sum(spec: SumSpec, prec: int, max_terms: int = NAIVE_START_TERMS) -> SeriesResult:
    """Direct summation of ``spec`` to ``max_terms`` = N terms by ``_direct``,
    one floor division per term; its error, under abs_total 2^-wp, sits well
    inside the rounding term abs_total 2^(-wp+8).

    The tail bound for sigma=-1 is 1.25 times the first omitted term.  For
    sigma=+1 and n > N > -t for every factor: R(n) <= rho (N/n)^d with rho =
    prod (N + min(t, 0))^(-e); h_n^(1) <= L + ln(n/N), L = ln(4N) + 1; and
    h_n^(p) <= h_N^(p) + (N - 1/2)^(1-p)/(p-1) for p >= 2.  With s factors of
    order 1 and L raised to s/d the bound decreases in n, so the tail is under
    rho N int_1^oo y^(-d) (L + ln y)^s dy = rho N sum_j C(s, j) L^(s-j)
    j!/(d-1)^(j+1) times the p >= 2 bounds; with N <= -t it is +inf.
    """
    wp = prec + guard_bits(max_terms)
    factors = spec.factors()
    d = sum(e for _, e in factors)
    N, alt = max_terms, spec.sigma == -1
    # sigma = -1 runs one term further for its bound
    total, abs_total, last, F, hs, H = _direct(spec.sigma, spec.offset, spec.p,
                                               [(Fraction(1), factors)], N + 1 if alt else N, wp)
    with mp.workprec(wp):
        if alt:
            total, abs_total = total - last, abs_total - abs(last)
            bound = mpf(1.25) * abs(mpf((last, -F)))
        elif any(N + t <= 0 for t, _ in factors):
            bound = mp.inf
        else:
            s = spec.p.count(1)
            L = max(mp.log(4 * N) + 1, mpf(s) / d)
            rho = N * math.prod(Fraction(N + min(t, 0)) ** -e for t, e in factors) * math.prod(
                Fraction(h, 1 << H) + Fraction(2 * N - 1, 2) ** (1 - p) / (p - 1)
                for p, h in zip(spec.p, hs) if p >= 2)
            bound = to_mpf(rho, wp) * sum(comb(s, j) * L ** (s - j) * factorial(j)
                                          / mpf(d - 1) ** (j + 1) for j in range(s + 1))
        total, abs_total = mpf((total, -F)), mpf((abs_total, -F))
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
    decay = sum(spec.q) - (spec.sigma == 1)
    while True:
        res = naive_sum(spec, prec, n)
        if res.tail_bound <= target:
            return res
        # the bound falls like n^-decay, log factors aside: this can only flatter
        reach = res.tail_bound * (mpf(NAIVE_TERM_CAP) / n) ** -decay
        if n >= NAIVE_TERM_CAP or mp.isfinite(reach) and reach > target * 2 ** 8:
            raise BudgetExceededError(
                f"tail bound {mp.nstr(res.tail_bound, 5)} above target after {n} terms, "
                f"about {mp.nstr(reach, 5)} at the cap of {NAIVE_TERM_CAP}")
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
