"""High-precision evaluation of the defining series.

The series handled here all have the shape

    S = sum_{n>=1} sigma^n * W(n) * R(n),

with W(n) a product of odd harmonic numbers h_n^(p) or h_{n-1}^(p) (possibly
empty) and R(n) a rational function with half-integer-shifted poles,
R(n) = prod_i (n + a_i - 1/2)^(-q_i).

Evaluation strategy, for any number r of harmonic factors:

* R enters as pieces k prod (n + t)^(-e): one product piece for a spec, or
  one piece per partial fraction for the residue checks.  The entry points
  turn them into integers once (``_int_pieces``), k = n/d as (n, d) and each
  factor, t = a/b, as (b, a, e); from there on the engine, its checks and
  its cache keys included, does no Fraction arithmetic.
* The first N terms are summed in Python ints (``_direct``), 256 at a time
  by lazy pipelines of builtins, at a scale 2^-F set by the first non-zero
  term, found exactly in integers, so the error stays under abs_total 2^-wp
  for terms of any size.  A term with a harmonic factor is the harmonic
  weight divided by each piece's integer denominator, with no product of
  two wide numbers.  One walk gives the sum for sigma = +1 and -1, and the
  accelerated path keeps it per key, so the tangent and secant forms of one
  sum share it and a warm call walks no head.
* The tail is rearranged exactly: with h the harmonic prefix sums,
  h(n) = h(N) + sum_{k=N+1..n} (k-1/2)^(-p), so one factor splits the tail
  into h(N) G(N + 1 - off) plus sum_{k>N} (k-1/2)^(-p) G(k), where
  G(k) = sum_{n>=k+off} sigma^n R(n); r factors split it, by the stuffle
  product (``_words``), into such sums nested up to r levels deep, 6 of
  them for r = 2 and 26 for r = 3 (``_accel_sum``).  R is expanded once in
  exact powers of 1/v, v = n - 1/2, and one exact summation step
  (``_sum_step``: Euler-Maclaurin at sigma = +1, Boole summation at sigma =
  -1) gives G(k) = sigma^k sum_w g_w u^(-w) with exact g_w, u = k - 1/2:
  one integer convolution of the 1/v series with Bernoulli weights kept per
  sigma, shared by R and its reflection, every t + 1/2 negated, which
  differs from it only in signs.  A nested level is one more step on the
  exact series below it times u^(-s).  The first part is a series at one
  point; each k-sum collapses to (alternating) Hurwitz zeta values at N +
  1/2, one ``tail_zeta_batch`` per precision tier: as the terms g_w zeta_w
  fall with w, each exponent is asked at the precision its term needs
  (``_tail_plan``), and a check per call asks again at full precision any
  that would fall short.  Neither needs partial fractions, so
  near-coincident poles cancel nothing.
* The tail is assembled in Python ints too, at 2^-T with T = F + 16 guard
  bits: the g_w, h(N) and the batch mantissas are shifted to that scale,
  one floor each, and head plus tail is rounded once, to the target
  precision.

``accel_linear_sum`` is the one entry of the accelerated path, for sums of
partial fractions and products of harmonic factors alike; ``euler_t_sum``
is that call on a spec's one piece.  ``naive_sum`` sums a given number of
terms directly, in the same fixed point: the oracle of the tests, and
``--method naive``.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial
from operator import add, floordiv, mul, rshift
from typing import NamedTuple, Optional, Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_log, round_ceiling, round_nearest

from .numeric import Ball, bernoulli, check_integer, check_precision, check_rational, guard_bits
from .special import tail_zeta_batch
# not called here: perfbench's span tracer checks that it rebinds this name
from .special import hurwitz_zeta  # noqa: F401


class SpecError(ValueError):
    """Malformed summation spec."""


class DivergentSumError(SpecError):
    """The requested series does not converge."""


class SingularSumError(SpecError):
    """A denominator factor vanishes at some summation index."""


NAIVE_START_TERMS = 1 << 14
_BLOCK = 256  # terms per step of _direct; even, so that each block starts at an odd n


def harmonic(n: int, p: int = 1) -> Fraction:
    """Exact generalized harmonic number H_n^(p)."""
    n, p = check_integer(n, "harmonic", SpecError), check_integer(p, "harmonic", SpecError)
    if n < 0:
        raise SpecError("harmonic index must be >= 0")
    if p < 1:
        raise SpecError("harmonic order must be >= 1")
    return Fraction(*_power_sum(range(1, n + 1), p))


def odd_harmonic(n: int, p: int = 1) -> Fraction:
    """Exact odd harmonic number h_n^(p) = sum_{k<=n} (k - 1/2)^(-p)."""
    n, p = (check_integer(n, "odd_harmonic", SpecError),
            check_integer(p, "odd_harmonic", SpecError))
    if n < 0:
        raise SpecError("odd harmonic index must be >= 0")
    if p < 1:
        raise SpecError("odd harmonic order must be >= 1")
    num, den = _power_sum(range(1, 2 * n, 2), p)
    return Fraction(num << p, den)


def _power_sum(ks: range, p: int) -> tuple[int, int]:
    """sum_{k in ks} k^(-p) = num/den in integers: one numerator over a
    running common denominator, den the lcm of the k^p, so that it grows
    like lcm(ks)^p and not like the product of the k^p."""
    num, den = 0, 1
    for k in ks:
        q = k ** p
        lcm = math.lcm(den, q)
        num, den = num * (lcm // den) + lcm // q, lcm
    return num, den


@dataclass(frozen=True)
class SumSpec:
    """Full description of one parametric Euler T-sum instance."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    a: tuple[Fraction, ...]
    sigma: int = 1
    harmonic_offset: str = "cur"  # "cur" -> h_n, "prev" -> h_{n-1}

    def __post_init__(self):
        if check_integer(self.sigma, "SumSpec", SpecError) not in (1, -1):
            raise SpecError("sigma must be +1 or -1")
        if self.harmonic_offset not in ("cur", "prev"):
            raise SpecError("harmonic_offset must be 'cur' (h_n) or 'prev' (h_{n-1})")
        if len(self.q) != len(self.a):
            raise SpecError("q and a must have equal length")
        object.__setattr__(self, "p", tuple(check_integer(pi, "SumSpec", SpecError)
                                            for pi in self.p))
        object.__setattr__(self, "q", tuple(check_integer(qi, "SumSpec", SpecError)
                                            for qi in self.q))
        if any(pi < 1 for pi in self.p):
            raise SpecError("harmonic exponents must be >= 1")
        if any(qi < 0 for qi in self.q):
            raise SpecError("denominator exponents must be >= 0")
        object.__setattr__(self, "p", tuple(sorted(self.p)))
        object.__setattr__(self, "a", tuple(check_rational(ai, "SumSpec") for ai in self.a))
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

    def __post_init__(self):
        check_integer(self.terms_used, "SeriesResult")
        check_integer(self.precision_bits, "SeriesResult")


# ---------------------------------------------------------------------------
# Accelerated linear evaluation: the exact 1/v series of R and its tail sums
# ---------------------------------------------------------------------------

Pieces = Sequence[tuple[Fraction, Sequence[tuple[Fraction, int]]]]
# pieces in integers: k = n/d as (n, d) and each factor (t, e), t = a/b, as (b, a, e)
IntPieces = tuple[tuple[tuple[int, int], tuple[tuple[int, int, int], ...]], ...]


def _int_pieces(pieces: Pieces) -> IntPieces:
    """``pieces`` (k, [(t, e)]) with rational k and t in integers, once at
    the entry: ((n, d), ((b, a, e), ...)) with k = n/d and t = a/b in lowest
    terms, d, b > 0, which is all the engine reads of them."""
    return tuple(((k.numerator, k.denominator), tuple((t.denominator, t.numerator, e)
                                                      for t, e in fs)) for k, fs in pieces)


# the accelerated path's caches; naive_sum, the oracle, reads none of them
_expansion_cache: dict = {}  # (sigma, offset, pieces, W, wp, *levels) -> _tail_expansion's floors
_head_cache: dict = {}  # (offset, ps, pieces, N, wp) -> the sign-free head of _direct
_weights: dict = {}  # (sigma, n) -> (L, beta_k L for k = 1..n)
# (sigma, D, L, rho up to sign and alternation) -> bern_1..bern_W, of the
# last build only: a reflection twin asks right after its mate
_bern_cache: dict = {}
_tail_plans: dict = {}  # (sigma, N, wp, W, dbits) -> precision tiers of the batch at N + 1/2
_TAIL_GUARD = 16  # bits of the tail's fixed point 2^-T past the head's 2^-F
_BATCH_ORDERS = 5  # the pair theorems sum p = 1..5 at one N + 1/2 and one W
_PLAN_GUARD = 32  # bits a tier keeps past the size model of _tail_plan
_PLAN_FLOOR = 64  # least precision of a tier


@functools.cache
def _pick_truncation(sigma: int, wp: int, N: int, dmax: float, emax: int) -> int:
    """Truncation power W so that dropped u^-w contributions stay below
    2^-(wp+24) for u >= N + 1/2.

    Two effects bound kept-coefficient decay: the 1/v series of R, whose
    coefficients grow like (1 + dmax)^m, and the Euler-Maclaurin (sigma =
    +1) or Boole (sigma = -1) coefficient growth, where the term at power m
    is of size ~ (m-1)! / (c pi (N+1/2))^m, c = 2 for sigma = +1 (B_2k/(2k)!
    ~ 2 (2 pi)^-2k) and 1 for sigma = -1 ((4^k - 1) times that), the c of
    ``special._head_length``.  Its log2, f(m), falls while m < c pi (N +
    1/2), so the first m >= 8 with f(m) < -(wp+24), if any, lies on that
    branch and is found by bisection.
    """
    target = wp + 24
    rho_bits = math.log2((N + 0.5) / (1 + dmax))
    W = math.ceil(target / rho_bits)
    z = (2 if sigma == 1 else 1) * math.pi * (N + 0.5)
    lbase = math.log2(z)
    ms = range(8, min(math.floor(z) + 1, 3999) + 1)
    i = bisect.bisect_left(ms, True, key=lambda m: math.lgamma(m) / math.log(2) + 1 - m * lbase
                           < -target)
    if i < len(ms):
        W = max(W, ms[i])
    return W + emax + 4


def _tail_plan(sigma: int, N: int, wp: int, W: int, dbits: int) -> tuple[tuple[int, int], ...]:
    """Precision tiers of the batch at N + 1/2: pairs (w, bits), ascending in
    w, with every power up to w (past the previous pair's) asked at bits.
    Cached per key, so all the sums at one point share one plan.

    The size model is ``_pick_truncation``'s: the term g_w zeta(w + p; u),
    u = N + 1/2, lies about min((w - 1)(lg u - dbits), lg (c pi u)^(w-1) /
    (w-1)!) bits below the first, 1 + dmax < 2^dbits, so power w needs wp
    less that plus ``_PLAN_GUARD`` bits.  Each power takes the least of the
    tiers wp, 3wp/4, 9wp/16, ... (at least ``_PLAN_FLOOR``) that covers
    that, and a tier's powers run on to the next tier's.  Below 512 bits
    there is one tier, wp.
    """
    key = (sigma, N, wp, W, dbits)
    plan = _tail_plans.get(key)
    if plan is None:
        tiers, plan = [wp], []
        while wp >= 512 and 3 * tiers[-1] // 4 >= _PLAN_FLOOR:
            tiers.append(3 * tiers[-1] // 4)
        lu = math.log2(N + 0.5)
        lz = math.log2((2 if sigma == 1 else 1) * math.pi * (N + 0.5))
        for w in range(1, W + 1):
            below = min((w - 1) * (lu - dbits), (w - 1) * lz - math.lgamma(w) / math.log(2))
            bits = next(b for b in reversed(tiers) if b >= wp - below + _PLAN_GUARD or b == wp)
            if plan and plan[-1][1] <= bits:  # a lower power never asks less
                plan[-1] = (w, plan[-1][1])
            else:
                plan.append((w, bits))
        plan = _tail_plans[key] = tuple(plan)
    return plan


class _Series(NamedTuple):
    """An exact 1/u series in integers: sum_m nums[m] / (den D^m divs[m])
    u^(-m), m = 0..len(nums) - 1, with nums[m] = 0 below the least power m0
    and divs None where every divisor is 1.  The powers of D keep the
    numerators of R's series narrow (``_rho``); divs keeps per power the 1/w
    of a summation step (``_sum_step``)."""

    D: int
    den: int
    m0: int
    nums: list
    divs: Optional[tuple] = None


def _rho(pieces: IntPieces, W: int) -> _Series:
    """R -> its series in v = n - 1/2: R(n) = sum_m rho_m / (K D^m) v^(-m),
    m <= W + 1, as the series (D, K, m0, rho), rho_m = 0 below m0.

    With c = t + 1/2 = (2a + b)/2b = A/D, each factor (1 + c/v)^(-1) maps the
    numerators over D^r of a 1/v series by x_r -> x_r - A x_(r-1)."""
    D = math.lcm(*(2 * b // math.gcd(2 * a + b, 2 * b) for _, fs in pieces for b, a, _ in fs))
    K = math.lcm(*(d for (_, d), _ in pieces))
    rho = [0] * (W + 2)
    for (n, d), fs in pieces:
        E = sum(e for _, _, e in fs)
        if E > W + 1:
            continue
        x = [1] + [0] * (W + 1 - E)
        for b, a, e in fs:
            A = (2 * a + b) * D // (2 * b)  # exact: 2b / gcd divides D
            for _ in range(e):
                for r in range(1, len(x)):
                    x[r] -= A * x[r - 1]
        scale = n * (K // d) * D ** E
        for r, xr in enumerate(x):
            rho[E + r] += scale * xr
    return _Series(D, K, min(sum(e for _, _, e in fs) for _, fs in pieces), rho)


def _sum_step(sigma: int, offset: int, series: _Series) -> _Series:
    """One exact summation step: from f(j) = sum_m c_m v^(-m), v = j - 1/2,
    given as ``series`` with powers m <= M, the series of sum_{j>=k+offset}
    sigma^j f(j) ~ sigma^k sum_w g_w u^(-w), u = k - 1/2, for w = 1..M - 1.

    Euler-Maclaurin (sigma = +1) and Boole summation (sigma = -1) give
    sum_{j>=0} sigma^j (u + j)^(-m) ~ u^(1-m)/(m-1) (sigma = +1 only) +
    u^(-m)/2 + sum_k beta_k C(w-1, 2k-1) u^(-w), w = m + 2k - 1, beta_k =
    B_2k/(2k) times 1 (sigma = +1) or 4^k - 1 (sigma = -1); offset 1 drops
    the j = k term c_w u^(-w).  With c_m = x_m / (K D^m), the last part summed
    over m is bern_w / (L K D^w) (``_bern``), so g_w = num_w / (w 2 L K
    D^(w+1)) with num_w = 2 w D bern_w + (1 - 2 offset) w L D x_w + [sigma =
    1] 2 L x_(w+1): the output has den 2 L K D and divs w.  So the 1/(m - 1)
    of sigma = +1 stays with its power, and no numerator carries lcm(1..M).
    An input with divs is put over one denominator first: x_m / divs_m is
    reduced by its gcd, and what is left over the lcm of the divisors.  That
    lcm is 1 at sigma = -1, where w divides every num_w, and at sigma = +1
    it is 1 or small, as L, the common denominator of the beta_k, is a
    multiple of (nearly) every w <= M.  At sigma = +1, x_1 must be 0: the
    power v^-1 has no sum.
    """
    D, K, m0, x, divs = series
    if divs is not None:
        M = math.lcm(*(q // math.gcd(xm, q) for xm, q in zip(x, divs)))
        x, K = [xm * M // q for xm, q in zip(x, divs)], K * M
    L, bern = _bern(sigma, D, m0, x)
    nums = [0]
    for w, b in enumerate(bern, 1):
        num = 2 * w * D * b + (1 - 2 * offset) * w * L * D * x[w]
        if sigma == 1:
            num += 2 * L * x[w + 1]
        nums.append(num)
    return _Series(D, 2 * L * K * D, max(m0 - (sigma == 1), 1), nums, (1, *range(1, len(nums))))


def _floors(series: _Series, wp: int) -> tuple[tuple[int, ...], array]:
    """Each g_w, w >= 1, of a series from ``_sum_step`` floored to wp or wp +
    1 bits straight from its numerator and denominator, so within 2^-(wp-1)
    of |g_w|, as a pair (m, e), m 2^e, with m odd or 0: the mantissas in a
    tuple, the exponents in an array of machine ints."""
    D, den, _, nums, divs = series
    mans, exps = [], []
    for w in range(1, len(nums)):
        num, den = nums[w], den * D
        div = divs[w] * den
        e = abs(num).bit_length() - div.bit_length() - wp if num else 0
        m = (num << max(-e, 0)) // (div << max(e, 0))
        tz = (m & -m).bit_length() - 1 if m else 0
        mans.append(m >> tz)
        exps.append(e + tz)
    return tuple(mans), array("q", exps)


def _bern(sigma: int, D: int, m0: int, rho: list[int]) -> tuple[int, list[int]]:
    """rho -> L and bern_w = sum_k gamma_k C(w-1, 2k-1) rho_(w-2k+1), w = 1..W,
    gamma_k = beta_k L D^(2k-1), each w one pipeline of builtins.  As rho_m =
    0 below m0, only k <= n = (W + 1 - m0) // 2 meet a non-zero rho_m, so L
    is the common denominator of beta_1..beta_n (``_beta_weights``) and bern
    depends on m0 only through L.  One convolution serves each class of rho
    up to sign and alternation (``_tail_expansion``): ``_bern_cache`` keeps
    the bern of the largest of rho, -rho and their alternations, and a
    member with rho_m = eps (-1)^(a m) rep_m takes eps (-1)^(a (w+1)) times
    the representative's bern_w.  Only the last build is kept: the twins
    are asked one right after the other, and a warm call reads
    ``_expansion_cache`` before it gets here.
    """
    alt = [-x if m & 1 else x for m, x in enumerate(rho)]
    rep, eps, a = max((rho, 1, 0), ([-x for x in rho], -1, 0), (alt, 1, 1),
                      ([-x for x in alt], -1, 1))
    n = (len(rho) - 1 - m0) // 2
    L, betas = _beta_weights(sigma, n)
    key = (sigma, D, L, tuple(rep))
    bern = _bern_cache.get(key)
    if bern is None:
        gammas = list(map(mul, betas, accumulate(repeat(D * D, n - 1), mul, initial=D)))
        bern, row = [], [1]  # row: C(w - 1, j) for j < w
        for w in range(1, len(rho) - 1):  # bern_w = 0 for w <= m0
            bern.append(sum(map(mul, map(mul, gammas[:(w + 1 - m0) // 2], row[1::2]),
                                rep[w - 1::-2])) if w > m0 else 0)
            row = [1, *map(add, row, row[1:]), 1]
        bern = tuple(bern)
        _bern_cache.clear()
        _bern_cache[key] = bern
    return L, [eps * (-1) ** (a * (w + 1)) * b for w, b in enumerate(bern, 1)]


def _beta_weights(sigma: int, n: int) -> tuple[int, list[int]]:
    """L and the beta_k L, k = 1..n, kept in ``_weights``: beta_k = B_2k/(2k)
    times 1 (sigma = +1) or 4^k - 1 (sigma = -1), L their common denominator."""
    weights = _weights.get((sigma, n))
    if weights is None:
        betas = [bernoulli(2 * k) / (2 * k) * (1 if sigma == 1 else 4 ** k - 1)
                 for k in range(1, n + 1)]
        L = math.lcm(*(b.denominator for b in betas))
        weights = _weights[sigma, n] = (L, [(b * L).numerator for b in betas])
    return weights


def _tail_expansion(sigma: int, offset: int, pieces: IntPieces, W: int, wp: int,
                    levels: tuple = (), built: Optional[dict] = None
                    ) -> tuple[tuple[int, ...], array]:
    """g_1, ..., g_W with G(k) = sum_{n>=k+offset} sigma^n R(n) ~ sigma^k sum_w
    g_w u^(-w), u = k - 1/2, for R = sum_j k_j prod (n + t)^(-e); or, given
    levels, the h_1, ..., h_W of the nested level on top of them, each level
    s mapping a series H(k) ~ sigma^k sum_w h_w u^(-w) to sum_{j>k} u_j^(-s)
    H(j) ~ sigma^k sum_w h'_w u^(-w), the first level on G.  Each is floored
    once (``_floors``) straight from its exact numerator and denominator, so
    that a dyadic one takes a one-word int, and the exponents, all far from
    0, sit in an array of machine ints, 8 bytes each where an int object and
    its slot take 36.  Cached under (sigma, offset, pieces, W, wp) and the
    levels, the pieces in the integers of ``_int_pieces``: ``_accel_sum``
    shifts the pairs to the scale of each sum.

    G is ``_rho`` and one ``_sum_step``.  A level is one more step, offset 1,
    on the exact series of its parent levels[:-1] times u^(-s), up to the
    same power W.  The exact series are kept in ``built`` under their levels
    (a new dict if None); the levels of one ``_accel_sum`` are closed under
    prefixes, so with one dict per call each is one step on a parent built
    before it: for ps = (1, 2, 2), 7 level steps on one G.

    Reflection: negating every t + 1/2 maps A to -A, so x_r to (-1)^r x_r and
    rho_m to eps (-1)^m rho_m (eps = (-1)^E if every piece has order E); each
    rho_(w-2k+1) then gains eps (-1)^(w+1), so bern_w does too.  The pair
    theorems weigh (a, b) against (-a, -b): both keys share one convolution
    (``_bern``).
    """
    key = (sigma, offset, pieces, W, wp) + levels
    g = _expansion_cache.get(key)
    if g is None:
        built = {} if built is None else built
        if () not in built:
            built[()] = _sum_step(sigma, offset, _rho(pieces, W))
        for i, s in enumerate(levels, 1):  # times u^(-s), powers up to W + 1: none past W + 1 - s
            if levels[:i] not in built:
                D, den, m0, nums, divs = built[levels[:i - 1]]
                top = max(W + 2 - s, 0)
                nums = [0] * (W + 2 - top) + [x * D ** s for x in nums[:top]]
                built[levels[:i]] = _sum_step(sigma, 1, _Series(
                    D, den, m0 + s, nums, (1,) * (W + 2 - top) + divs[:top]))
        g = _expansion_cache[key] = _floors(built[levels], wp)
    return g


def _at_scale(m: int, e: int) -> int:
    """floor(m 2^e), exact for e >= 0."""
    return m << e if e >= 0 else m >> -e


@functools.cache
def _midpoint(N: int) -> Fraction:
    """The point N + 1/2 of the tail's batches, built once per N."""
    return Fraction(2 * N + 1, 2)


def _tail_batch(sigma: int, N: int, wp: int, W: int, dbits: int, shift: int, p: int,
                mans: Sequence[int], exps: Sequence[int], T: int) -> tuple[int, list]:
    """sum_w g_w zeta_(w+p) at 2^-T, one floor per power, for the floored
    coefficients (mans, exps) of G or of a nested level (``_tail_expansion``),
    zeta_s = sum_{j>=0} sigma^j (N + 1/2 + j)^(-s); and the last kept power's
    |g_w zeta_(w+p)| as [(c, e)], c 2^e, for the bound ([] if every g_w is 0).

    The batch asks s from the first kept power plus p up to W + ``shift``:
    with shift = max(p, ``_BATCH_ORDERS``) that is every exponent the sums of
    orders p = 1.._BATCH_ORDERS of one R ask at this point, and with shift =
    max(sum ps, _BATCH_ORDERS) every exponent of the batches of a product of
    the factors ps, whose words start at most at sum ps (``_words``), so one
    call per tier serves them all and the others read the cache.  Exponent s is asked at the bits of its tier in
    ``_tail_plan`` at w = s - shift <= s - p, one ``tail_zeta_batch`` per
    tier.

    The check: the bit lengths of the mantissas give U_w with 2^(U_w - 3) <
    |g_w zeta_w| < 2^(U_w + 1) (the floor of g_w and the rounding of zeta_w
    cost under a bit each way), so B = sum |g_w zeta_w| > 2^(max U - 3), and
    a value asked at b bits puts an error under 2^(U_w + 1 - b) into g_w
    zeta_w.  Each of the n values asked below wp must keep that under
    2^(max U - 3 - (wp + 1) - lg n), so that together they err by under
    2^-(wp+1) B; any that would not is asked again at wp.
    """
    powers = [w for w, m in enumerate(mans, 1) if m]
    if not powers:
        return 0, []
    x = _midpoint(N)
    s0 = lo = powers[0] + p
    zvals, bits = [], []
    for w, b in _tail_plan(sigma, N, wp, W, dbits):
        if w + shift >= lo:
            part = range(lo, w + shift + 1)
            zvals += tail_zeta_batch(sigma, part, x, b)
            bits += [b] * len(part)
            lo = w + shift + 1
    if bits[-1] != wp:  # more than one tier
        sizes = []  # (index of s = w + p, U_w)
        for w in powers:
            _, _, exp, bc = zvals[w + p - s0]._mpf_
            sizes.append((w + p - s0, mans[w - 1].bit_length() + exps[w - 1] + exp + bc))
        low = [(i, u) for i, u in sizes if bits[i] < wp]
        top = max(u for _, u in sizes) - 3 - (wp + 1) - (len(low) - 1).bit_length()
        redo = [s0 + i for i, u in low if u + 1 - bits[i] > top]
        if redo:
            for s, v in zip(redo, tail_zeta_batch(sigma, redo, x, wp)):
                zvals[s - s0] = v
    piece = 0
    for w in powers:
        sign, man, exp, _ = zvals[w - powers[0]]._mpf_
        piece += _at_scale(mans[w - 1] * (-man if sign else man), exps[w - 1] + exp + T)
    w = powers[-1]
    _, man, exp, _ = zvals[w - powers[0]]._mpf_
    return piece, [(abs(mans[w - 1]) * man, exps[w - 1] + exp)]


def accel_linear_sum(ps: tuple[int, ...], offset: int, sigma: int, pieces: Pieces,
                     prec: int) -> SeriesResult:
    """Accelerated sum_{n>=1} sigma^n prod_i h_{n-offset}^(p_i) R(n), R(n) =
    sum_j k_j prod (n + t)^(-e) over pieces (k_j, [(t, e)]): a product of
    any number of harmonic factors, one per order of the tuple ps (() for
    none, each an int >= 1, taken sorted), offset 0 or 1 and sigma +1 or -1,
    all three checked before any other work, and then the pieces: at least
    one, each with a factor, as a constant term's sum diverges.  The one
    door to ``_accel_sum``, which sums it; ``euler_t_sum`` is this call on
    one piece.
    """
    name = "accel_linear_sum"
    if not isinstance(ps, tuple):
        raise SpecError(f"accel_linear_sum takes a tuple of harmonic orders, not {ps!r}")
    ps = tuple(sorted(check_integer(p, name, SpecError) for p in ps))
    if ps and ps[0] < 1:
        raise SpecError("harmonic order must be >= 1")
    if check_integer(offset, name, SpecError) not in (0, 1):
        raise SpecError("offset must be 0 (h_n) or 1 (h_{n-1})")
    if check_integer(sigma, name, SpecError) not in (1, -1):
        raise SpecError("sigma must be +1 or -1")
    check_precision(prec)
    pieces = _int_pieces(pieces)  # hashable too: the cache keys
    if not pieces:
        raise SpecError("accel_linear_sum needs at least one piece")
    for _, fs in pieces:
        if not fs:
            raise DivergentSumError("a piece without a factor is a constant, whose sum diverges")
        for b, a, e in fs:
            check_integer(e, name, SpecError)
            if b == 1 and a <= -1:
                raise SingularSumError(f"pole at positive integer n = {-a}")
            if e < 1:
                raise SpecError("denominator exponents must be >= 1")
    if sigma == 1:
        ones = [k for k, fs in pieces if sum(e for _, _, e in fs) == 1]
        den = math.lcm(*(d for _, d in ones))
        if sum(n * (den // d) for n, d in ones):
            raise DivergentSumError("sum of order-1 coefficients must vanish for sigma=+1")
    return _accel_sum(ps, offset, sigma, pieces, prec)


@functools.cache
def _words(ps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """prod_i (h_N^(p_i) + Delta_i), Delta_i = sum_{N<k<=n-offset} u_k^(-p_i),
    multiplied out by the stuffle product into terms (word, idx): the nested
    sum sum_{N<k_1<...<k_j<=n-offset} prod_l u_(k_l)^(-s_l) of the word (s_1,
    ..., s_j) times the h_N^(p_i) of the indices i in idx.

    Each factor, the last first, takes a term's h_N into idx, or puts the k
    of its Delta before, between or after the word's k_l (p_i inserted) or on
    one of them (p_i added to s_l).  So r factors give 1, 2, 6, 26, 150, ...
    terms, for r = 2 in the order T(), T(p1), T(p2), T(p1, p2), T(p2, p1),
    T(p1 + p2): the first batch, T(p1) on G, starts at the least exponent
    and so asks every value the others read (``_tail_batch``).
    """
    terms = [((), ())]
    for i in reversed(range(len(ps))):
        p = ps[i]
        terms = [t for word, idx in terms for t in (
            (word, idx + (i,)),
            *((word[:j] + (p,) + word[j:], idx) for j in range(len(word) + 1)),
            *((word[:j] + (word[j] + p,) + word[j + 1:], idx) for j in range(len(word))))]
    return tuple(terms)


def _accel_sum(ps: tuple[int, ...], offset: int, sigma: int, pieces: IntPieces,
               prec: int) -> SeriesResult:
    """Accelerated sum_{n>=1} sigma^n prod_i h_{n-offset}^(p_i) R(n) for any
    number r = len(ps) of harmonic factors, ps sorted, the arguments checked
    and the pieces in the integers of ``_int_pieces``.

    The first N terms come from ``_direct``, whose one walk gives the head
    for both signs: ``_head_cache`` keeps it under (offset, ps, pieces, N,
    wp), so the sigma = -1 sum of the secant theorems reads the head of its
    sigma = +1 tangent twin, and a warm call walks no head.

    The tail: for n > N, h_{n-offset}^(p) = h_N^(p) + sum_{N<k<=n-offset}
    u_k^(-p), u_k = k - 1/2.  Multiplied out by the stuffle product
    (``_words``), the tail is a sum of terms P T(word), P the product of the
    term's h_N, where, with G and its nested levels of ``_tail_expansion``,

    * T() = sum_{n>N} sigma^n R(n) = G(N + 1 - offset): the rational tail,
      G's series at one point, by Horner's rule in 1/u, one floor division
      per power;
    * T(s_1, ..., s_j) = sum_{k>N} u_k^(-s_1) H(k) = sigma^(N+1) sum_w h_w
      zeta(w + s_1; N + 1/2), H the levels s_j, ..., s_2 on G (G itself for
      j = 1): the batches at N + 1/2 (``_tail_batch``), from the products of
      the coefficients and the batch mantissas, one per distinct word.

    So the tail is T() without a harmonic factor, h_N T() + T(p) with one,
    and h1 h2 T() + h2 T(p1) + h1 T(p2) + T(p1, p2) + T(p2, p1) + T(p1 + p2)
    with two.  All of it is assembled in integers at 2^-T, T = F +
    ``_TAIL_GUARD``, past the head's 2^-F, each term's P (at 2^-H per h_N)
    times its part with one floor, and the total is rounded once, to
    ``prec``.

    The bound ``tail_bound`` is (abs_head + sum |part| + 1) 2^(-wp+10) (the
    total for T() alone), plus |total| 2^(-prec+1) for the final rounding,
    plus, for each batched term, the continuation estimate |g_w zeta_w| / N
    of its last kept power, times its P.  It is summed exactly, from the
    integers above (abs_head at 2^-F, the total and the parts at 2^-T, the
    last g_w mantissa times the last batch mantissa, times P), and rounded
    up once, at wp.

    The error budget, against the (abs_head + sum |part| + 1) 2^(-wp+10)
    term of the bound, for n = len(_words(ps)) terms:

    * The head errs by under abs_head 2^-wp.
    * Each floor errs by under one unit of 2^-T.  A Horner step floors g_w
      and the division by u, and divides the error it inherits by u > 127,
      so the rational tail errs by under (1 + 1/u)/(1 - 1/u) < 2 units, and
      a batched piece by under W.  Times P, with one more floor if P has a
      factor, a term errs by under 2P + 1 or WP + 1 units, so under (W + 2)
      V, V = prod_i h_N^(p_i) >= P, as each h_N >= 2: 2 units in all
      without a harmonic factor, 2 h_N + W + 1 with one, and under n (W + 2)
      V for r factors.  ``_direct`` makes 2^-F <= |T_1| 2^-(wp+1) / U for the
      first non-zero head term T_1 (1 if there is none), with U >= N (2V +
      1), its V >= prod_i h_N^(p_i), so while n (W + 2) < 2^16 N those units
      stay under (abs_head + 1) 2^-wp.  For r <= 6, n <= 9366, that is W +
      2 < 7N: at 192 bits, N = 132 and W = 53..71 for dmax <= 4, emax <= 3;
      for r = 7, n = 94586, only W + 2 < 0.69 N.
    * The inputs carry relative errors: under 2^-(wp-1) for each g_w and
      h_w, and under 2^-b_s for each batch value zeta_w, asked at the b_s
      bits of its tier.  With the majorants A = sum |g_w| u^(-w) of the
      rational tail and B = sum |g_w zeta_w| of a batched piece,
      ``_tail_batch`` checks per call that sum |g_w zeta_w| 2^-b_s over the
      values asked below wp stays under 2^-(wp+1) B, so the batch values add
      under 1.5 2^-wp B, and the inputs under 2^-(wp-1) A P for T() and
      2^-(wp-2) B P for each batched term.  With the two items above that is
      inside the term while A P plus the B P of the batched terms stays
      within 2^7 (abs_head + sum |part| + 1).  Past the leading power the
      majorants' terms fall like ((1 + dmax)/u)^w, u >= 8 (1 + dmax), so
      only R's leading 1/v powers cancelling each other could break that;
      ``test_tail_assembly_error_budget`` checks it on its grid, and
      ``tests/test_bounds.py`` every bound against a value 160 bits finer.

    Pieces that cancel (the partial fractions of near-coincident poles) need
    no guard bits: the head floors each piece in absolute units and the g_w
    come from the exact series of R.
    """
    wp = prec + 48
    emax = max(e for _, fs in pieces for _, _, e in fs)
    # |t + offset + 1/2| = |2a + (2 offset + 1) b| / 2b for t = a/b; a true division
    # rounds correctly, so the largest is the float of the largest Fraction
    dmax = max([abs(2 * a + (2 * offset + 1) * b) / (2 * b)
                for _, fs in pieces for b, a, _ in fs] + [1.0])
    N = max(128, math.ceil(0.55 * wp), math.ceil(8 * (1 + dmax)))
    W = _pick_truncation(sigma, wp, N, dmax, emax)

    key = (offset, ps, pieces, N, wp)
    head = _head_cache.get(key)
    if head is None:
        totals, abs_total, _, F, hs, H = _direct(offset, ps, pieces, N, wp)
        head = _head_cache[key] = (totals, abs_total, F, hs, H)
    totals, abs_total, F, hs, H = head
    total = totals[sigma < 0]
    built: dict = {}  # levels -> exact series, each built once in this call
    mans, exps = _tail_expansion(sigma, offset, pieces, W, wp, (), built)
    T = F + _TAIL_GUARD
    # sum_{n>N} sigma^n R(n) = G(N + 1 - offset), at u = N + 1/2 - offset
    u2 = 2 * N + 1 - 2 * offset
    rational_tail = 0
    for m, e in zip(reversed(mans), reversed(exps)):
        rational_tail = 2 * (rational_tail + _at_scale(m, e + T)) // u2
    rational_tail *= sigma ** (N + 1 - offset)
    parts, conts, batches = [], [], {}  # conts: (c, e), c 2^e, of each continuation times N
    for word, idx in _words(ps):
        P, k = math.prod(map(hs.__getitem__, idx)), len(idx) * H
        if not word:
            parts.append(rational_tail * P >> k)
            continue
        batch = batches.get(word)
        if batch is None:  # sigma^(N+1) sum_w h_w zeta(w + s_1) at 2^-T
            coeffs = (mans, exps) if len(word) == 1 else _tail_expansion(
                sigma, offset, pieces, W, wp, word[:0:-1], built)
            piece, last = _tail_batch(sigma, N, wp, W, math.ceil(1 + dmax).bit_length(),
                                      max(sum(ps), _BATCH_ORDERS), word[0], *coeffs, T)
            batch = batches[word] = sigma ** (N + 1) * piece, last
        piece, last = batch
        parts.append(piece * P >> k)
        for c, e in last:
            conts.append((c * P, e - k))
    value = (total << _TAIL_GUARD) + sum(parts)
    pieces_abs = sum(map(abs, parts)) if ps else abs(value)
    # the bound of the docstring as the integer bound / den at 2^e
    e, den = -(T + wp - 10), 1
    bound = (abs_total << _TAIL_GUARD) + pieces_abs + (1 << T) + (abs(value) << wp - prec - 9)
    if conts:
        low = min(e, *(et for _, et in conts))
        bound = (N * bound << e - low) + sum(c << et - low for c, et in conts)
        e, den = low, N
    tb = mp.make_mpf(mpf_div(from_man_exp(bound, e), from_int(den), wp, round_ceiling))
    value = mp.make_mpf(from_man_exp(value, -T, prec, round_nearest))
    return SeriesResult(value, tb, N, prec)


# ---------------------------------------------------------------------------
# Direct summation in fixed point, with elementary tail bounds
# ---------------------------------------------------------------------------

def _direct(offset: int, ps: Sequence[int], pieces: IntPieces, N: int, wp: int):
    """sum_{n<=N} sigma^n W(n) R(n) for sigma = +1 and -1 at once, in Python
    ints, W(n) = prod_i h_{n-offset}^(p_i) and R(n) = sum_j k_j prod (n +
    t)^(-e) over pieces (k_j, [(t, e)]), given in the integers of
    ``_int_pieces``.  Returns the pair of sums (sigma = +1, sigma = -1), the
    sum of |terms|, the pair of signed N-th terms sigma^N T_N, all in units
    of 2^-F, F, and h_N^(p_i) in units of 2^-H, H: index a pair by ``sigma <
    0``.  The terms are walked once, without their sign: the sums over odd
    and over even n give both totals, and each total and last term takes
    its floor to 2^-F after its sign, so every integer is the one a walk
    for that sigma alone would give.  Each block of ``_BLOCK`` n is one lazy
    pipeline of builtins; only its h prefix sums, its weights and its terms
    become lists.  No step builds a Fraction.

    With t = a/b, (n + t)^(-e) = b^e/(bn + a)^e: piece j is K_j/den_j(n), K_j =
    k_j prod b^e and den_j(n) = prod (bn + a)^e an integer.  Without a harmonic
    factor (r = 0) a term is sum_j floor(floor(K_j 2^F)/den_j(n)) at 2^-F, under
    2 units per piece.  Otherwise the weight W~(n), h~_{n-offset} at 2^-H (for
    r >= 2 the product of the r h~, floored once to 2^-H), is divided by each
    piece's denominator: the term is sum_j floor(A_j W~(n)/(L den_j(n))) at
    2^-H, L the common denominator of the K_j and A_j = K_j L, so no term
    multiplies two wide numbers.  With H = max(F, wp) + 32 + bitlen N, each h~
    gains floor(2^(p+H)/(2n-1)^p) and drifts by under n units against h >= 2,
    so W~ errs by a relative r 2^-(wp+33), the product's floor included; on top
    a term errs by one unit of 2^-H per piece, and the N terms by under m
    2^-32 units of 2^-F for m pieces, either sign.  The sums and the last
    terms are shifted to 2^-F once, one floor each.

    F = wp + 1 + bitlen U - lg, lg <= log2 |T_k| for the first non-zero term
    T_k, keeps U units of 2^-F under |T_k| 2^-(wp+1) <= abs_total 2^-(wp+1).
    ``_first_term`` finds T_k exactly, as an integer numerator and
    denominator reduced once by their gcd, and lg = bitlen num - bitlen den
    - 1 reads that pair.  U = N (2mV + 1), V = 2^(sum p - r) (bitlen N +
    3)^r >= W(n), over-covers both counts above: 2mN units at r = 0, and 1 +
    m 2^-32 units beside the relative r 2^-(wp+33) at r >= 1.  So the error
    stays under abs_total 2^-wp.
    """
    r = len(ps)
    scaled = []  # K_j = c/d in lowest terms, and the factors (b, a, e)
    for (n, d), fs in pieces:
        c = n * math.prod(b ** e for b, _, e in fs)
        g = math.gcd(c, d)
        scaled.append((c // g, d // g, fs))
    num, den = _first_term(offset, ps, scaled, N)
    lg = num.bit_length() - den.bit_length() - 1
    V = 2 ** (sum(ps) - r) * (N.bit_length() + 3) ** r
    F = max(0, wp + 1 + (N * (2 * len(pieces) * V + 1)).bit_length() - lg)
    H = max(F, wp) + 32 + N.bit_length()
    L = math.lcm(*(d for _, d, _ in scaled)) if r else 1
    # r >= 1: the A_j; r = 0: floor(K_j 2^F)
    kf = [(c * (L // d) if r else (c << F) // d, dens) for c, d, dens in scaled]
    h = {p: [0] for p in ps}  # per distinct p: h_(n0-1), ..., h_(n1-1) at 2^-H
    odds, evens, abs_total, terms = 0, 0, 0, [0]
    for n0 in range(1, N + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, N + 1)
        for p in h:
            odd = range(2 * n0 - 1, 2 * n1 - 1, 2)
            odd = odd if p == 1 else map(pow, odd, repeat(p))
            h[p] = list(accumulate(map(floordiv, repeat(1 << (p + H)), odd), initial=h[p][-1]))
        if r:
            wt = h[ps[0]][1 - offset:]
            if r > 1:
                for p in ps[1:]:
                    wt = map(mul, wt, h[p][1 - offset:])
                wt = list(map(rshift, wt, repeat((r - 1) * H)))
        rn = None
        for c, dens in kf:
            den = None
            for b, a, e in dens:
                col = range(b * n0 + a, b * n1 + a, b)
                col = col if e == 1 else map(pow, col, repeat(e))
                den = col if den is None else map(mul, den, col)
            if r:
                col = map(floordiv, wt if c == 1 else map(mul, wt, repeat(c)),
                          den if L == 1 else map(mul, den, repeat(L)))
            else:
                col = map(floordiv, repeat(c), den)
            rn = col if rn is None else map(add, rn, col)
        terms = list(rn)  # n0 is odd: terms[::2] are the odd n
        odds += sum(terms[::2])
        evens += sum(terms[1::2])
        abs_total += sum(map(abs, terms))
    totals, lasts = (odds + evens, evens - odds), (terms[-1], -terms[-1] if N & 1 else terms[-1])
    if r:
        s = H - F
        totals, lasts = (totals[0] >> s, totals[1] >> s), (lasts[0] >> s, lasts[1] >> s)
        abs_total >>= s
    return totals, abs_total, lasts, F, [h[p][-1] for p in ps], H


def _first_term(offset: int, ps: Sequence[int], scaled: list, N: int) -> tuple[int, int]:
    """|T_k| = num/den in lowest terms for the first non-zero term T_k, k <= N,
    of ``_direct``'s sum over the pieces K_j = c/d of ``scaled`` (1/1 if
    there is none), found in integers.  Each h_m^(p) is positive for m >= 1,
    so T_k is the first R(k) != 0, R over the lcm of the d den_j(k), past
    k = offset if there is a harmonic factor; its weight comes from
    ``_power_sum`` and the pair is reduced once, by its gcd."""
    for n in range(1 + offset if ps else 1, N + 1):
        dens = [d * math.prod((b * n + a) ** e for b, a, e in fs) for _, d, fs in scaled]
        den = math.lcm(*dens)
        num = sum(c * (den // dn) for (c, _, _), dn in zip(scaled, dens))
        if num:
            for p in ps:  # h_(n-offset)^(p) = 2^p x/y
                x, y = _power_sum(range(1, 2 * (n - offset), 2), p)
                num, den = num * x << p, den * y
            g = math.gcd(num, den)
            return abs(num) // g, den // g
    return 1, 1


def naive_sum(spec: SumSpec, prec: int, max_terms: int = NAIVE_START_TERMS) -> SeriesResult:
    """Direct summation of ``spec`` to ``max_terms`` = N terms by ``_direct``'s
    block pipelines, one floor division per piece and term; its error, under
    abs_total 2^-wp, sits well inside the rounding term abs_total 2^(-wp+8).

    The tail bound for sigma=-1 is 1.25 times the first omitted term.  For
    sigma=+1 and n > N > -t for every factor: R(n) <= rho (N/n)^d with rho =
    prod (N + min(t, 0))^(-e); h_n^(1) <= L + ln(n/N), L = ln(4N) + 1; and
    h_n^(p) <= h_N^(p) + (N - 1/2)^(1-p)/(p-1) for p >= 2.  With s factors of
    order 1 and L raised to s/d the bound decreases in n, so the tail is under
    rho N int_1^oo y^(-d) (L + ln y)^s dy = rho N sum_j C(s, j) L^(s-j)
    j!/(d-1)^(j+1) times the p >= 2 bounds, summed as balls from the ball of
    ln(4N); with N <= -t it is +inf.  The value is the ball of the head
    within its rounding term, widened by the tail bound and rounded once to
    prec, and ``tail_bound`` is its radius.
    """
    check_precision(prec)
    max_terms = check_integer(max_terms, "naive_sum", SpecError)
    if max_terms < 1:
        raise SpecError(f"max_terms must be >= 1, got {max_terms}")
    wp = prec + guard_bits(max_terms)
    factors = spec.factors()
    d = sum(e for _, e in factors)
    N, alt = max_terms, spec.sigma == -1
    # sigma = -1 runs one term further for its bound; no head is cached here
    totals, abs_total, lasts, F, hs, H = _direct(spec.offset, spec.p, _int_pieces([(1, factors)]),
                                                 N + 1 if alt else N, wp)
    total, last = totals[alt], lasts[alt]
    if alt:
        total, abs_total = total - last, abs_total - abs(last)
        tail = Ball(0, 5 * abs(last), -F - 2)  # 1.25 |last|
    elif any(N + t <= 0 for t, _ in factors):  # no finite bound
        return SeriesResult(Ball(total, 0, -F).round(prec).mpf(), mp.inf, max_terms, prec)
    else:
        s = spec.p.count(1)
        L = Ball.from_rounded(mp.make_mpf(mpf_log(from_int(4 * N), wp, round_nearest)), wp) + 1
        if Fraction(s, d) > L.upper():
            L = Ball(s << wp, 0, -wp) * Fraction(1, d)
        rho = N * math.prod(Fraction(N + min(t, 0)) ** -e for t, e in factors) * math.prod(
            Fraction(h, 1 << H) + Fraction(2 * N - 1, 2) ** (1 - p) / (p - 1)
            for p, h in zip(spec.p, hs) if p >= 2)
        est = sum((math.prod([L] * (s - j), start=Ball(1 << wp, 0, -wp))
                   * Fraction(comb(s, j) * factorial(j), (d - 1) ** (j + 1))
                   for j in range(s + 1)), start=Ball(0)) * rho
        tail = Ball(0, abs(est.mid) + est.rad, est.exp)
    # the head within abs_total 2^(-wp+8), the tail, and the rounding to prec
    value = (Ball(total << wp - 8, abs_total, -F - wp + 8) + tail).round(prec)
    return SeriesResult(value.mpf(), Ball(value.rad, 0, value.exp).mpf(), max_terms, prec)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def euler_t_sum(spec: SumSpec, prec: int) -> SeriesResult:
    """Numeric value of a parametric Euler T-sum: ``accel_linear_sum`` on
    the one piece R of ``spec``, for any number of harmonic factors, with
    its own head length.  ``naive_sum`` is the direct summation."""
    return accel_linear_sum(spec.p, spec.offset, spec.sigma, [(1, spec.factors())], prec)


def _double(name: str, big: bool, s1: int, s2: int, bar1: bool, prec: int) -> SeriesResult:
    """Depth-2 t value (``big`` False) or T value (``big`` True) from its
    single series in the odd harmonic numbers h: the shift 0 sum of
    h_(n-1)^(s2)/(n - 1/2)^(s1) times 2^(-s1-s2), or the shift 1/2 sum of
    h_n^(s2)/n^(s1) times 2^(2-s1-s2), weighted by (-1)^n if bar1.  The
    barred T form weights by (-1)^(n-1), so its scale is negated."""
    check_precision(prec)
    s1, s2 = check_integer(s1, name, SpecError), check_integer(s2, name, SpecError)
    if s2 < 1:
        raise DivergentSumError(f"{name} requires s2 >= 1")
    if (not bar1 and s1 < 2) or (bar1 and s1 < 1):
        raise DivergentSumError(f"divergent {name} parameters")
    spec = SumSpec(p=(s2,), q=(s1,), a=(Fraction(big, 2),), sigma=-1 if bar1 else 1,
                   harmonic_offset="cur" if big else "prev")
    # the scale is a power of two, so the ball's one rounding, to prec, is
    # all that the bound of the sum at prec + 8 does not cover
    scale = Fraction(-1 if big and bar1 else 1, 2 ** (s1 + s2 - 2 * big))
    res = euler_t_sum(spec, prec + 8)
    value = (Ball.from_series(res) * scale).round(prec)
    return SeriesResult(value.mpf(), Ball(value.rad, 0, value.exp).mpf(), res.terms_used, prec)


def double_t(s1: int, s2: int, bar1: bool, prec: int) -> SeriesResult:
    """Depth-2 t value t(s1, s2), alternating in the leading slot if bar1."""
    return _double("double_t", False, s1, s2, bar1, prec)


def double_T(s1: int, s2: int, bar1: bool, prec: int) -> SeriesResult:
    """Depth-2 T value T(s1, s2), alternating in the leading slot if bar1."""
    return _double("double_T", True, s1, s2, bar1, prec)
