import contextlib
import functools
import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf

import tsum.series as series
import tsum.special as special
from test_golden import EVAL_SPECS
from tsum.cli import main
from tsum.identities import (PartialFractionRational, verify_thm3_1, verify_thm3_4, verify_thm3_6,
                             verify_thm3_7)
from tsum.numeric import real_const
from tsum.series import (
    _direct,
    _int_pieces,
    accel_linear_sum,
    DivergentSumError,
    SingularSumError,
    SpecError,
    SumSpec,
    double_t,
    double_T,
    euler_t_sum,
    harmonic,
    naive_sum,
    odd_harmonic,
)
from tsum.special import DomainError, hurwitz_zeta, riemann_zeta, tail_zeta_batch, ttilde

P = 192
F = Fraction

# independent reference values (alternating-series acceleration on
# digamma-expressed summands, frozen)
ALT_H_OVER_HALF = "-2.920724233506239095359551478983575195217590598748"
T_2BAR_2 = "0.081431464102715910391331151727192039556233371506733"
TBIG_2BAR_2 = "0.80505664991249723467521057152323136459601030783836"
PAIR_QUARTER_THIRD = "5.690553471"  # direct summation with tail estimate


def test_harmonic_values():
    assert harmonic(3, 2) == F(49, 36)
    assert harmonic(0, 5) == 0
    assert odd_harmonic(0, 3) == 0
    assert odd_harmonic(2, 1) == F(8, 3)


def test_harmonic_numbers_equal_their_term_by_term_sums():
    # one integer numerator over a running lcm, one Fraction at the end
    for p in range(1, 10):
        h = odd = F(0)
        for n in range(41):
            if n:
                h += F(1, n ** p)
                odd += F(2, 2 * n - 1) ** p
            assert (harmonic(n, p), odd_harmonic(n, p)) == (h, odd), (n, p)


def test_spec_validation():
    with pytest.raises(DivergentSumError):
        SumSpec(p=(1,), q=(1,), a=(F(0),), sigma=1)
    with pytest.raises(SingularSumError):
        SumSpec(p=(1,), q=(2,), a=(F(-1, 2),), sigma=1)
    with pytest.raises(ValueError):
        SumSpec(p=(1,), q=(2,), a=(F(0),), sigma=0)
    with pytest.raises(DomainError, match="rational"):
        SumSpec(p=(1,), q=(2,), a=(0.1,))  # not silently 3602879701896397/2^55
    for p, q in (((1.5,), (2,)), ((1,), (2.5,)), ((2.0,), (2,))):
        with pytest.raises(SpecError, match="integer"):
            SumSpec(p=p, q=q, a=(F(1, 3),))
    with pytest.raises(SpecError, match="integer"):
        accel_linear_sum(1, 0, 1, [(F(1), [(F(-1, 6), 2.0)])], 64)
    # q = 0 factors are dropped at normalization
    spec = SumSpec(p=(1,), q=(2, 0), a=(F(0), F(1, 4)), sigma=1)
    assert spec.q == (2,) and spec.a == (F(0),)
    # offset aliases
    assert SumSpec(p=(), q=(2,), a=(F(0),), harmonic_offset="n-1").harmonic_offset == "prev"


def partial_fractions(factors):
    """Exact decomposition prod (n+t)^(-e) = sum c/(n+t)^l over Q, as (t, l, c)
    triples: the reference for the partial-fraction input of the engines.
    Expanding the complementary product around each pole gives c."""
    out = []
    for t, e in factors:
        expansion = [F(1)] + [F(0)] * (e - 1)
        for t2, e2 in factors:
            if t2 != t:
                # (eps + t2 - t)^(-e2) expanded in eps, times the series so far
                fac = [F((-1) ** r * comb(e2 + r - 1, r)) / (t2 - t) ** (e2 + r)
                       for r in range(e)]
                expansion = [sum(expansion[i] * fac[j - i] for i in range(j + 1)) for j in range(e)]
        out += [(t, l, expansion[e - l]) for l in range(1, e + 1) if expansion[e - l]]
    return out


def test_partial_fractions_exact():
    pf = partial_fractions([(F(0), 1), (F(1, 2), 1)])
    # 1/(n(n+1/2)) = 2/n - 2/(n+1/2)
    assert sorted(pf) == [(F(0), 1, F(2)), (F(1, 2), 1, F(-2))]
    pf = partial_fractions([(F(0), 2), (F(1), 1)])
    # 1/(n^2 (n+1)) = -1/n + 1/n^2 + 1/(n+1)
    assert sorted(pf) == [(F(0), 1, F(-1)), (F(0), 2, F(1)), (F(1), 1, F(1))]


def test_sum_h_over_n_squared_closed_form():
    # sum h_n / n^2 = (7/2) zeta(3)
    res = euler_t_sum(SumSpec(p=(1,), q=(2,), a=(F(1, 2),)), P)
    with mp.workprec(P + 16):
        assert abs(res.value - mpf(7) / 2 * riemann_zeta(3, P + 16)) < mpf(10) ** -50


def test_depth_two_ttilde_2_2():
    # sum h_{n-1}^(2)/(n-1/2)^2 = pi^4/24, by the stuffle relation
    res = euler_t_sum(SumSpec(p=(2,), q=(2,), a=(F(0),), harmonic_offset="prev"), P)
    with mp.workprec(P + 16):
        pi = real_const("pi", P + 16)
        assert abs(res.value - pi ** 4 / 24) < mpf(10) ** -50
        half = (ttilde(2, P + 16) ** 2 - ttilde(4, P + 16)) / 2
        assert abs(res.value - half) < mpf(10) ** -50


def test_alternating_reference_value():
    res = euler_t_sum(SumSpec(p=(1,), q=(1,), a=(F(0),), sigma=-1), P)
    with mp.workprec(P + 16):
        assert abs(res.value - mpf(ALT_H_OVER_HALF)) < mpf(10) ** -45


def test_two_pole_reference_value():
    res = euler_t_sum(SumSpec(p=(1,), q=(1, 1), a=(F(1, 4), F(1, 3))), P)
    with mp.workprec(P + 16):
        assert abs(res.value - mpf(PAIR_QUARTER_THIRD)) < mpf(5) * 10 ** -8


def test_equal_shift_parameters_are_merged():
    # the engine permits a_i = a_j (a single squared factor)
    spec = SumSpec(p=(1,), q=(1, 1), a=(F(1, 4), F(1, 4)))
    assert spec.factors() == [(F(-1, 4), 2)]
    acc = euler_t_sum(spec, 96)
    nai = naive_sum(spec, 64, 20000)
    with mp.workprec(128):
        assert abs(acc.value - nai.value) <= nai.tail_bound


def test_product_of_degree_beyond_the_truncation():
    # R(n) ~ v^-100 lies past the truncation power W (79 at 64 bits), so the
    # rational tail is zero to every kept power
    spec = SumSpec(p=(1,), q=(50, 50), a=(F(0), F(1, 4)), sigma=-1)
    acc = euler_t_sum(spec, 64)
    nai = naive_sum(spec, 64, 1000)
    with mp.workprec(128):
        assert abs(acc.value - nai.value) <= acc.tail_bound + nai.tail_bound


def test_tail_bound_reported():
    res = euler_t_sum(SumSpec(p=(2,), q=(2,), a=(F(0),)), P)
    assert res.tail_bound > 0
    assert res.terms_used > 0


def _random_specs(count: int) -> list[SumSpec]:
    rng = random.Random(7)
    shifts = [F(0), F(1, 4), F(-1, 4), F(1, 3), F(1, 5), F(-1, 5), F(2, 5), F(1, 2)]
    specs = []
    while len(specs) < count:
        sigma = rng.choice((1, -1))
        r = rng.choice((0, 1, 1))
        p = tuple(rng.choice((1, 2, 3)) for _ in range(r))
        k = rng.choice((1, 2))
        q = tuple(rng.choice((1, 2)) for _ in range(k))
        if sum(q) < (2 if sigma == 1 else 1):
            continue
        a = tuple(rng.sample(shifts, k))
        offset = rng.choice(("cur", "prev"))
        try:
            specs.append(SumSpec(p=p, q=q, a=a, sigma=sigma, harmonic_offset=offset))
        except ValueError:
            continue
    return specs


def test_oracle_self_consistency_randomized():
    # accelerated evaluation agrees with naive summation to 1e5 terms within
    # the naive method's own reported tail bound
    for spec in _random_specs(20):
        acc = euler_t_sum(spec, 96)
        nai = naive_sum(spec, 64, 100000)
        with mp.workprec(128):
            assert abs(acc.value - nai.value) <= nai.tail_bound, spec


def test_h_to_hurwitz_identity():
    tol = mpf(2) ** (12 - P)
    for p in (2, 3):
        for n in (1, 5, 50):
            with mp.workprec(P + 16):
                lhs = mpf(odd_harmonic(n, p).numerator) / odd_harmonic(n, p).denominator
                rhs = ttilde(p, P + 16) - hurwitz_zeta(p, F(2 * n + 1, 2), P + 16)
                assert abs(lhs - rhs) < tol


def test_naive_tail_bound_monotone():
    spec1 = SumSpec(p=(1,), q=(2,), a=(F(1, 2),))
    spec2 = SumSpec(p=(2,), q=(1,), a=(F(0),), sigma=-1)
    for spec in (spec1, spec2):
        bounds = [naive_sum(spec, 64, n).tail_bound for n in (1024, 2048, 4096)]
        assert bounds[0] > bounds[1] > bounds[2]


def test_stuffle_relation():
    with mp.workprec(P + 16):
        for s1, s2 in ((3, 2), (2, 2), (4, 3)):
            lhs = (double_t(s1, s2, False, P).value + double_t(s2, s1, False, P).value
                   + (1 - mpf(2) ** -(s1 + s2)) * riemann_zeta(s1 + s2, P + 16))
            t1 = (1 - mpf(2) ** -s1) * riemann_zeta(s1, P + 16)
            t2 = (1 - mpf(2) ** -s2) * riemann_zeta(s2, P + 16)
            assert abs(lhs - t1 * t2) < mpf(10) ** -45


def test_double_t_classical_value():
    res = double_t(2, 1, False, P)
    with mp.workprec(P + 16):
        pi = real_const("pi", P + 16)
        want = pi * pi / 8 * real_const("log2", P + 16) - mpf(7) / 16 * riemann_zeta(3, P + 16)
        assert abs(res.value - want) < mpf(10) ** -50
    assert mp.nstr(res.value, 4) == "0.3292"


def test_double_t_alternating_reference():
    res = double_t(2, 2, True, P)
    with mp.workprec(P + 16):
        assert abs(res.value - mpf(T_2BAR_2)) < mpf(10) ** -45


def test_double_T_values():
    res = double_T(2, 1, False, P)
    with mp.workprec(P + 16):
        assert abs(res.value - mpf(7) / 4 * riemann_zeta(3, P + 16)) < mpf(10) ** -50
    alt = double_T(2, 2, True, P)
    with mp.workprec(P + 16):
        assert abs(alt.value - mpf(TBIG_2BAR_2)) < mpf(10) ** -45


def test_double_value_domains():
    with pytest.raises(DivergentSumError):
        double_t(1, 1, False, P)
    with pytest.raises(DivergentSumError):
        double_T(2, 0, False, P)
    # alternating leading slot admits s1 = 1
    assert double_t(1, 1, True, P).value != 0


def test_brute_force_double_sum_agreement():
    res = double_t(3, 2, False, 96)
    with mp.workprec(96):
        total = mpf(0)
        inner = mpf(0)
        for n in range(1, 4001):
            if n >= 2:
                total += mpf(2 * n - 1) ** -3 * inner
            inner += mpf(2 * n - 1) ** -2
        # tail below ttilde(2) * (2N)^-2-ish
        assert abs(res.value - total) < mpf(1e-7)


def test_three_factor_products_are_accelerated():
    # three harmonic factors with fast denominator decay: a 128-term head and
    # the nested tails land within the bound of 50000 direct terms; with slow
    # decay at 192 bits, once past any budget of direct terms, the bound
    # still holds against the value 160 bits finer
    spec = SumSpec(p=(2, 2, 2), q=(4,), a=(F(1, 2),))
    res = euler_t_sum(spec, 40)
    assert res.terms_used == 128
    with mp.workprec(96):
        nai = naive_sum(spec, 64, 50000)
        assert abs(res.value - nai.value) <= res.tail_bound + nai.tail_bound
    slow = SumSpec(p=(1, 1, 1), q=(2,), a=(F(1, 2),))
    res, ref = euler_t_sum(slow, 192), euler_t_sum(slow, 352)
    assert res.tail_bound < mpf(2) ** -150
    with mp.workprec(400):
        assert abs(res.value - ref.value) <= res.tail_bound


@pytest.mark.parametrize("p, offset", [(2, 0), (None, 0), (1, 1)])
@pytest.mark.parametrize("sigma", [1, -1])
def test_near_coincident_poles_need_no_guard(p, offset, sigma):
    # poles 10^-6 apart: the partial fractions are near 10^31 and cancel about
    # 100 bits, yet the exact 1/v series sees only R, so either input form
    # lands within its tail bound at the plain working precision
    spec = SumSpec(p=() if p is None else (p,), q=(3, 3), a=(F(0), F(1, 10 ** 6)),
                   sigma=sigma, harmonic_offset=("cur", "prev")[offset])
    factors = spec.factors()
    pf = [(c, [(t, e)]) for t, e, c in partial_fractions(factors)]
    assert max(abs(c) for c, _ in pf) > 10 ** 30
    for prec in (64, 192):
        ref = euler_t_sum(spec, prec + 160)
        for pieces in ([(F(1), factors)], pf):
            res = accel_linear_sum(p, offset, sigma, pieces, prec)
            with mp.workprec(prec + 200):
                assert abs(res.value - ref.value) <= res.tail_bound, (prec, len(pieces))


def test_each_accelerated_call_makes_at_most_one_batch(monkeypatch):
    # the tail needs one batch at N + 1/2 (none without a harmonic factor)
    # and no per-value zeta or digamma call from the series engine
    calls = []  # [ps, batches, per-value calls] per accelerated sum
    inside = []

    def spy_accel(ps, *args):
        calls.append([ps, 0, 0])
        inside.append(calls[-1])
        try:
            return accel(ps, *args)
        finally:
            inside.pop()

    def counting(fn, slot):
        def spy(*args):
            if inside:
                inside[-1][slot] += 1
            return fn(*args)
        return spy

    accel = series._accel_sum
    monkeypatch.setattr(series, "_accel_sum", spy_accel)
    monkeypatch.setattr(series, "tail_zeta_batch", counting(series.tail_zeta_batch, 1))
    for name in ("hurwitz_zeta", "alt_hurwitz_zeta", "digamma"):
        spy = counting(getattr(special, name), 2)
        monkeypatch.setattr(special, name, spy)
        monkeypatch.setattr(series, name, spy, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        for spec in EVAL_SPECS:
            assert main(["eval", *spec, "--precision-bits", "192"]) == 0
    verify_thm3_6(1, PartialFractionRational.parse("(-1/4,1,12);(-1/3,1,-12)"), 96, "1e-20")
    verify_thm3_7(2, PartialFractionRational.parse("(1/5,2,1);(-1/4,3,1)"), 96, "1e-20")
    assert {len(ps) for ps, _, _ in calls} == {0, 1}
    for ps, batches, per_value in calls:
        assert batches <= (1 if ps else 0) and per_value == 0, (ps, batches, per_value)


def test_one_tail_batch_per_tier_serves_every_pair_order(monkeypatch):
    # a cold 1024-bit pair pass sums p = 1..5 at one N + 1/2 = 1207/2 and
    # one W per sigma, from one plan per sigma that both samples share: one
    # fixed-point pass per precision tier there serves them all
    fixed_sums, plans = special._fixed_sums, []
    for samples in ("1/4,1/3", "1/7,-1/7"):
        calls = []

        def spy(sigma, ss, x, F):
            if x > 1:  # the tier's precision, from _zeta_batch's rule for F
                calls.append((sigma, F - 64 - (2 * x.numerator // x.denominator + 1).bit_length()
                              - max(ss).bit_length()))
            return fixed_sums(sigma, ss, x, F)

        monkeypatch.setattr(special, "_zeta_cache", {})
        monkeypatch.setattr(series, "_tail_plans", {})
        monkeypatch.setattr(special, "_fixed_sums", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--families", "thm3_1,thm3_4", "--precision-bits", "1024",
                         "--tolerance", "1e-290", "--samples=" + samples]) == 0
        plan = {key: tiers for key, tiers in series._tail_plans.items() if key[1] == 603}
        assert {key[0] for key in plan} == {1, -1} and len(plan) == 2
        assert sorted(calls) == sorted((key[0], bits) for key, tiers in plan.items()
                                       for _, bits in tiers), samples
        plans.append(plan)
    assert plans[0] == plans[1]
    assert all(len(tiers) > 1 for tiers in plans[0].values())


def _exact(x):
    man, exp = x.man_exp
    return F(man) * F(2) ** exp


def _spy_rounding(monkeypatch):
    """Records the fixed-point total and scale that accel_linear_sum rounds."""
    seen = []
    from_man_exp = series.from_man_exp

    def spy(man, exp, *args):
        seen.append((man, exp))
        return from_man_exp(man, exp, *args)

    monkeypatch.setattr(series, "from_man_exp", spy)
    return seen


def _spy_batches(monkeypatch):
    """Records every tail_zeta_batch call of the series engine as (ss, prec,
    values)."""
    asked = []
    batch = series.tail_zeta_batch

    def spy(sigma, ss, x, prec):
        values = batch(sigma, ss, x, prec)
        asked.append((list(ss), prec, values))
        return values

    monkeypatch.setattr(series, "tail_zeta_batch", spy)
    return asked


TAIL_PIECES = ((F(1), ((F(1, 3), 1), (F(-1, 4), 2))), (F(-2, 7), ((F(5, 2), 3),)))


def _tail_grid(prec):
    """(sigma, offset, p) of the tail assembly tests at ``prec``."""
    if prec == 4096:  # about 1 s per case
        return [(1, 0, 1), (-1, 1, 3), (1, 1, None)]
    return list(itertools.product((1, -1), (0, 1), (None, 1, 2, 3, 4)))


def _spy_tail_batches(monkeypatch, asked):
    """Records every ``_tail_batch`` call as (p, mans, exps, the entries of
    ``asked`` it made)."""
    calls = []
    tail_batch = series._tail_batch

    def spy(sigma, N, wp, W, dbits, shift, p, mans, exps, T):
        start = len(asked)
        out = tail_batch(sigma, N, wp, W, dbits, shift, p, mans, exps, T)
        calls.append((p, mans, exps, asked[start:]))
        return out

    monkeypatch.setattr(series, "_tail_batch", spy)
    return calls


@pytest.mark.parametrize("prec", [64, 192, 1024, 4096])
def test_tail_assembly_error_budget(prec, monkeypatch):
    # the fixed-point tail against the same assembly in exact Fractions, from the
    # same cached g_w and the batch values as each batch asked them: its floors
    # may cost 2P + 1 units of 2^-T for T() times its product P of h_N (2
    # without h_N) and WP + 1 for a batched term (W without h_N), each
    # majorant times P stays within 2^6 and all of them within 2^7, and the
    # values asked below wp err by under 2^-(wp+1) sum |g_w zeta_w| per batch;
    # one product of three factors too, below 4096 bits, where its nested
    # convolutions would take most of the suite's time
    monkeypatch.setattr(series, "_expansion_cache", {})
    monkeypatch.setattr(series, "_bern_cache", {})
    seen = _spy_rounding(monkeypatch)
    asked = _spy_batches(monkeypatch)
    batched = _spy_tail_batches(monkeypatch, asked)
    wp = prec + 48
    tiered = False
    pieces = _int_pieces(TAIL_PIECES)
    cases = [(sigma, offset, () if p is None else (p,)) for sigma, offset, p in _tail_grid(prec)]
    for sigma, offset, ps in cases + [(-1, 1, (1, 2, 2))] * (prec <= 1024):
        asked.clear()
        batched.clear()
        res = series._accel_sum(ps, offset, sigma, pieces, prec)
        (man, exp), N = seen.pop(), res.terms_used
        [(W, (mans, exps))] = [(k[3], v) for k, v in series._expansion_cache.items()
                               if k[:2] == (sigma, offset) and k[4] == wp and len(k) == 5]
        total, abs_total, _, scale, hs, hscale = _signed(_direct(offset, ps, pieces, N, wp), sigma)
        T = -exp
        assert T == scale + series._TAIL_GUARD
        g = [F(m) * F(2) ** e for m, e in zip(mans, exps)]
        u = F(2 * N + 1 - 2 * offset, 2)
        rational_tail = sigma ** (N + 1 - offset) * sum(gw / u ** w for w, gw in enumerate(g, 1))
        majorant = sum(abs(gw) / u ** w for w, gw in enumerate(g, 1))
        head, abs_head = F(total, 1 << scale), F(abs_total, 1 << scale)
        case = (sigma, offset, ps)
        assert bool(asked) == bool(ps), case
        parts = []  # (exact part, majorant times P, units of 2^-T, batched)
        batches = iter(batched)
        words = {}  # word -> its batch, in the order _tail_batch was called
        for word, idx in series._words(ps):
            P = math.prod(F(hs[i], 1 << hscale) for i in idx)
            if not word:
                parts.append((P * rational_tail, majorant * P, 2 * P + bool(idx), False))
                continue
            if word not in words:
                words[word] = next(batches)
            p, wm, we, calls = words[word]
            assert p == word[0], case
            zeta = {}  # s -> (value, bits), a value asked again replacing the first
            for ss, bits, values in calls:
                zeta.update((s, (z, bits)) for s, z in zip(ss, values))
            gw = [F(m) * F(2) ** e for m, e in zip(wm, we)]
            terms = [(gw[w - 1] * _exact(zeta[w + p][0]), zeta[w + p][1])
                     for w in range(1, len(gw) + 1) if gw[w - 1]]
            B = sum(abs(t) for t, _ in terms)
            assert sum(abs(t) / F(2) ** bits for t, bits in terms if bits < wp) <= B / 2 ** (wp + 1)
            assert {bits for _, bits in terms} == {wp} or prec >= 1024, case  # one tier below 512
            tiered |= min(bits for _, bits in terms) < wp
            parts.append((P * sigma ** (N + 1) * sum(t for t, _ in terms), B * P,
                          W * P + bool(idx), True))
        assert next(batches, None) is None, case
        exact = head + sum(x for x, _, _, _ in parts)
        units = sum(n for _, _, n, _ in parts)
        assert abs(F(man, 1 << T) - exact) <= F(units, 1 << T), case
        for x, maj, _, batch in parts:
            assert maj <= 2 ** 6 * (abs_head + batch * abs(x) + 1), case
        assert (sum(maj for _, maj, _, _ in parts)
                <= 2 ** 7 * (abs_head + sum(abs(x) for x, _, _, _ in parts) + 1)), case
    assert tiered == (prec >= 1024)


def _floor_log2(x: F) -> int:
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return k if x >= F(2) ** k else k - 1


@pytest.mark.parametrize("prec", [64, 192, 1024, 4096])
def test_tail_bound_is_its_formula_rounded_up_once(prec, monkeypatch):
    # the bound in Fractions from the integers the assembly holds: (abs_head +
    # |piece1| + |piece2| + 1) 2^(-wp+10) (the total for both pieces without
    # h_N) + |total| 2^(-prec+1), and with h_N |g_w zeta_w| / N of the last
    # kept power; tail_bound is that rounded up once at wp, so at least it and
    # less than one ulp at wp above it
    monkeypatch.setattr(series, "_expansion_cache", {})
    seen = _spy_rounding(monkeypatch)
    asked = _spy_batches(monkeypatch)
    wp = prec + 48
    for sigma, offset, p in _tail_grid(prec):
        asked.clear()
        res = accel_linear_sum(p, offset, sigma, TAIL_PIECES, prec)
        (man, exp), N = seen[-1], res.terms_used
        [(mans, exps)] = [v for k, v in series._expansion_cache.items()
                          if k[:2] == (sigma, offset) and k[4] == wp]
        total, abs_total, _, scale, hs, hscale = _signed(
            _direct(offset, () if p is None else (p,), _int_pieces(TAIL_PIECES), N, wp), sigma)
        T = -exp
        tail = 0  # the rational tail by Horner's rule, one floor per step
        for m, e in zip(reversed(mans), reversed(exps)):
            tail = 2 * (tail + series._at_scale(m, e + T)) // (2 * N + 1 - 2 * offset)
        tail *= sigma ** (N + 1 - offset)
        value, trunc = total << series._TAIL_GUARD, F(0)
        if p is None:
            value += tail
            parts = abs(value)
        else:
            zeta = {}  # s -> value, a value asked again replacing the first
            for ss, _, values in asked:
                zeta.update(zip(ss, values))
            powers = [w for w, m in enumerate(mans, 1) if m]
            piece1 = hs[0] * tail >> hscale
            piece2 = sigma ** (N + 1) * sum(
                series._at_scale(mans[w - 1] * zeta[w + p].man_exp[0],
                                 exps[w - 1] + zeta[w + p].man_exp[1] + T) for w in powers)
            value += piece1 + piece2
            parts = abs(piece1) + abs(piece2)
            w = powers[-1]
            trunc = abs(F(mans[w - 1]) * F(2) ** exps[w - 1] * _exact(zeta[w + p])) / N
        case = (sigma, offset, p)
        assert value == man, case  # the integers the assembly rounded
        exact = ((F(abs_total, 1 << scale) + F(parts + (1 << T), 1 << T)) / F(2) ** (wp - 10)
                 + F(abs(value), 1 << T) / F(2) ** (prec - 1) + trunc)
        bound = _exact(res.tail_bound)
        assert exact <= bound < exact + F(2) ** (_floor_log2(exact) - wp + 1), case
        assert res.tail_bound.man.bit_length() <= wp, case


@pytest.mark.parametrize("sigma", [1, -1])
def test_an_aggressive_plan_is_asked_again_at_wp(sigma, monkeypatch):
    # a plan 256 bits short of the size model: the check of _tail_batch asks
    # the powers it would leave short again at wp, and the value stays the same
    prec, wp = 1024, 1024 + 48
    monkeypatch.setattr(series, "_tail_plans", {})
    monkeypatch.setattr(special, "_zeta_cache", {})
    asked = _spy_batches(monkeypatch)
    want = accel_linear_sum(2, 0, sigma, TAIL_PIECES, prec)
    assert [bits for _, bits, _ in asked].count(wp) == 1
    monkeypatch.setattr(series, "_PLAN_GUARD", series._PLAN_GUARD - 256)
    monkeypatch.setattr(series, "_tail_plans", {})
    monkeypatch.setattr(special, "_zeta_cache", {})
    asked.clear()
    got = accel_linear_sum(2, 0, sigma, TAIL_PIECES, prec)
    [(first, _, _), (again, _, _)] = [call for call in asked if call[1] == wp]
    assert again and min(again) > max(first)
    assert (got.value, got.terms_used) == (want.value, want.terms_used)


@pytest.mark.parametrize("p", [None, 1])
@pytest.mark.parametrize("sigma", [1, -1])
def test_head_scale_zero(p, sigma, monkeypatch):
    # a = -1/2 + 10^-30 puts a pole 10^-30 below n = 1: the first term is near
    # 10^60, past 2^wp at 64 bits, so the head sums in units (F = 0) and the
    # tail, near 1/N, has only _TAIL_GUARD bits of its own
    spec = SumSpec(p=() if p is None else (p,), q=(2,), a=(F(-1, 2) + F(1, 10 ** 30),),
                   sigma=sigma)
    seen = _spy_rounding(monkeypatch)
    for prec in (64, 192):
        ref = euler_t_sum(spec, prec + 160)
        monkeypatch.setattr(series, "_expansion_cache", {})
        monkeypatch.setattr(series, "_bern_cache", {})
        monkeypatch.setattr(special, "_zeta_cache", {})
        cold = euler_t_sum(spec, prec)
        if prec == 64:
            assert seen[-1][1] == -series._TAIL_GUARD
        warm = euler_t_sum(spec, prec)
        assert (cold.value, cold.tail_bound) == (warm.value, warm.tail_bound), prec
        with mp.workprec(prec + 200):
            assert abs(cold.value - ref.value) <= cold.tail_bound, prec


def _truncation_scan(sigma, wp, N, dmax, emax):
    """The linear scan over m = 8, 9, ... that _pick_truncation replaced: the
    reference for its bisection, with the Euler-Maclaurin (sigma = +1) or
    Boole (sigma = -1) growth (m-1)!/(c pi (N + 1/2))^m, c = 2 or 1."""
    target = wp + 24
    W = math.ceil(target / math.log2((N + 0.5) / (1 + dmax)))
    lbase = math.log2((2 if sigma == 1 else 1) * math.pi * (N + 0.5))
    for m in range(8, 4000):
        if math.lgamma(m) / math.log(2) + 1 - m * lbase < -target:
            W = max(W, m)
            break
    return W + emax + 4


def test_truncation_bisection_matches_the_scan():
    grid = itertools.product((1, -1), (8, 40, 112, 240, 1072, 2072, 9000),
                             (1, 2, 3, 10, 128, 133, 590, 1273, 5000, 10 ** 5),
                             (0.0, 1.0, 2.5, 17.25), (1, 2, 5))
    for sigma, wp, N, dmax, emax in grid:
        if (N + 0.5) / (1 + dmax) > 1:
            assert series._pick_truncation(sigma, wp, N, dmax, emax) == _truncation_scan(
                sigma, wp, N, dmax, emax), (sigma, wp, N, dmax, emax)


def test_sigma_plus_one_keeps_fewer_powers():
    # the Euler-Maclaurin coefficients grow like (m-1)!/(2 pi u)^m, Boole's
    # like (m-1)!/(pi u)^m: at pair-1024 (wp 1096, N 603) and at 192 bits
    assert [series._pick_truncation(s, 1096, 603, 1.0, 1) for s in (1, -1)] == [201, 265]
    assert [series._pick_truncation(s, 240, 132, 1.0, 1) for s in (1, -1)] == [53, 69]


@functools.cache
def _beta(sigma, k):
    """B_2k/(2k) times 1 (sigma = +1) or 4^k - 1 (sigma = -1), B_2k from mpmath."""
    p, q = mp.bernfrac(2 * k)
    return F(int(p), int(q) * 2 * k) * (1 if sigma == 1 else 4 ** k - 1)


def _expansion_oracle(sigma, offset, pieces, W):
    """Exact g_1..g_W, power by power: r_m of R(n) = sum_m r_m v^(-m), v = n -
    1/2, from the binomial series of each (v + c)^(-e) = v^(-e) (1 + c/v)^(-e),
    c = t + 1/2 = A/D, multiplied out as integers over D^j; then each r_m
    v^(-m) summed by Euler-Maclaurin (sigma = +1) or Boole (sigma = -1) on its
    own, in Fractions, with mpmath's Bernoulli numbers."""
    D = math.lcm(*((t + F(1, 2)).denominator for _, fs in pieces for t, _ in fs))
    r = [F(0)] * (W + 2)
    for k, fs in pieces:
        x = [1] + [0] * (W + 1)  # the piece over k, as sum_j x_j D^-j v^-j
        for t, e in fs:
            A = int((t + F(1, 2)) * D)
            binom = [(-A) ** j * comb(e + j - 1, j) for j in range(W + 2)]
            x = [0] * e + [D ** e * sum(x[i] * binom[j - i] for i in range(j + 1))
                           for j in range(W + 2 - e)]
        r = [rm + k * F(xm, D ** m) for m, (rm, xm) in enumerate(zip(r, x))]
    g = [F(0)] * (W + 2)
    for m, rm in enumerate(r):
        if not rm:
            continue
        if sigma == 1 and m >= 2:
            g[m - 1] += rm / (m - 1)  # u^(1-m)/(m-1)
        g[m] += rm * (F(1, 2) - offset)  # u^(-m)/2, less the n = k term at offset 1
        for k in range(1, (W + 1 - m) // 2 + 1):
            g[m + 2 * k - 1] += rm * _beta(sigma, k) * comb(m + 2 * k - 2, 2 * k - 1)
    return g[1:W + 1]


def _assert_documented_floor(g, m, e, wp, case):
    """m 2^e is g floored at a scale that puts |g| in [2^(wp-1), 2^(wp+1)),
    with m odd, or (0, 0) for g = 0."""
    if g == 0:
        assert (m, e) == (0, 0), case
        return
    assert m % 2 == 1, case
    lg = abs(g.numerator).bit_length() - g.denominator.bit_length()
    scales = [s for s in range(lg - wp - 2, lg - wp + 3)
              if 2 ** (wp - 1) <= abs(g) / F(2) ** s < 2 ** (wp + 1)]
    assert any(math.floor(g / F(2) ** s) * F(2) ** s == m * F(2) ** e for s in scales), case


def _accel_truncation(sigma, offset, pieces, prec):
    """wp and W as accel_linear_sum picks them."""
    wp = prec + 48
    dmax = float(max([abs(t + offset + F(1, 2)) for _, fs in pieces for t, _ in fs] + [F(1)]))
    N = max(128, math.ceil(0.55 * wp), math.ceil(8 * (1 + dmax)))
    return wp, series._pick_truncation(sigma, wp, N, dmax,
                                       max(e for _, fs in pieces for _, e in fs))


A, B = F(1, 4), F(1, 3)
PAIR_PIECE = ((F(1), ((A - F(1, 2), 1), (B - F(1, 2), 1))),)
EXPANSION_PIECES = {
    "pair": PAIR_PIECE,
    "reflected-pair": ((F(1), ((-A - F(1, 2), 1), (-B - F(1, 2), 1))),),
    "double-pole": ((F(1), ((F(-3, 4), 2),)),),
    # orders 1 and 2 (so no reflection twin); the order-1 coefficients cancel
    "mixed-orders": ((F(12), ((F(-3, 4), 1),)), (F(-12), ((F(-5, 6), 1),)),
                     (F(-2, 7), ((F(5, 2), 2),))),
    "poles-1e-6-apart": ((F(10 ** 6), ((F(-1, 6), 1),)),
                         (F(-10 ** 6), ((F(-1, 6) + F(1, 10 ** 6), 1),))),
}


@pytest.mark.parametrize("prec", [64, 192, 1024])
@pytest.mark.parametrize("name", list(EXPANSION_PIECES))
def test_expansion_is_the_documented_floor_of_an_exact_oracle(name, prec, monkeypatch):
    pieces = EXPANSION_PIECES[name]
    for sigma, offset in itertools.product((1, -1), (0, 1)):
        if prec == 1024 and (sigma, offset) not in ((1, 0), (-1, 1)):
            continue  # the oracle takes 0.3-1 s per key at 1024 bits
        monkeypatch.setattr(series, "_expansion_cache", {})
        monkeypatch.setattr(series, "_bern_cache", {})
        wp, W = _accel_truncation(sigma, offset, pieces, prec)
        mans, exps = series._tail_expansion(sigma, offset, _int_pieces(pieces), W, wp)
        assert len(mans) == W
        for w, (g, m, e) in enumerate(zip(_expansion_oracle(sigma, offset, pieces, W),
                                          mans, exps), 1):
            _assert_documented_floor(g, m, e, wp, (sigma, offset, w))


TWINS = {
    # order 2: rho_m -> (-1)^m rho_m
    "pair": (PAIR_PIECE, EXPANSION_PIECES["reflected-pair"]),
    # order 3: rho_m -> -(-1)^m rho_m
    "triple-pole": (((F(2, 3), ((F(1, 5), 3),)),), ((F(2, 3), ((F(-6, 5), 3),)),)),
}


class _Builds(dict):
    """A ``_bern_cache`` that counts the convolutions stored in it."""

    built = 0

    def __setitem__(self, key, value):
        self.built += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("name", list(TWINS))
def test_reflection_twins_share_one_convolution(name, sigma, monkeypatch):
    # a piece with offset 0 and its reflection with offset 1, as the pair
    # theorems ask for them: in either order one convolution serves both,
    # and each entry equals the one built alone
    wp, W = _accel_truncation(sigma, 0, PAIR_PIECE, 192)
    keys = [(sigma, offset, _int_pieces(TWINS[name][offset]), W, wp) for offset in (0, 1)]
    alone = []
    for key in keys:
        monkeypatch.setattr(series, "_expansion_cache", {})
        monkeypatch.setattr(series, "_bern_cache", {})
        alone.append(series._tail_expansion(*key))
    for order in (keys, keys[::-1]):
        monkeypatch.setattr(series, "_expansion_cache", {})
        monkeypatch.setattr(series, "_bern_cache", _Builds())
        cold = [series._tail_expansion(*key) for key in order]
        assert series._bern_cache.built == 1
        series._expansion_cache.clear()
        warm = [series._tail_expansion(*key) for key in order]
        assert series._bern_cache.built == 1
        assert cold == warm == (alone if order is keys else alone[::-1])


def test_mixed_orders_have_no_twin(monkeypatch):
    monkeypatch.setattr(series, "_bern_cache", _Builds())
    pieces = EXPANSION_PIECES["mixed-orders"]
    reflected = tuple((k, tuple((-t - 1, e) for t, e in fs)) for k, fs in pieces)
    wp, W = _accel_truncation(-1, 0, pieces, 64)
    for p in (pieces, reflected):
        series._tail_expansion(-1, 0, _int_pieces(p), W, wp)
    assert series._bern_cache.built == 2


def test_only_the_last_convolution_is_kept(monkeypatch):
    # the twin asks right after its mate, so one entry serves it: a third
    # class replaces the first, whose twin then builds it again
    monkeypatch.setattr(series, "_expansion_cache", {})
    monkeypatch.setattr(series, "_bern_cache", _Builds())
    wp, W = _accel_truncation(1, 0, PAIR_PIECE, 192)
    first, second = (_int_pieces(TWINS[name][0]) for name in list(TWINS)[:2])
    for pieces, built in ((first, 1), (second, 2), (first, 2)):
        series._tail_expansion(1, 0, pieces, W, wp)
        assert (series._bern_cache.built, len(series._bern_cache)) == (built, 1)
    series._tail_expansion(1, 1, _int_pieces(TWINS[list(TWINS)[0]][1]), W, wp)
    assert series._bern_cache.built == 3


@pytest.mark.parametrize("name", ["pair", "mixed-orders", "tail"])
def test_a_warm_accelerated_call_builds_no_fraction(name, monkeypatch):
    # pieces are integers from the entry on, the first head term is found in
    # integers and the point N + 1/2 is built once per N: a warm call, with
    # or without a harmonic factor, builds no Fraction
    pieces = TAIL_PIECES if name == "tail" else EXPANSION_PIECES[name]
    calls = list(itertools.product((None, 1, 3), (0, 1), (1, -1)))
    cold = [accel_linear_sum(p, offset, sigma, pieces, P) for p, offset, sigma in calls]
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs)))
    warm = [accel_linear_sum(p, offset, sigma, pieces, P) for p, offset, sigma in calls]
    assert built == []
    assert warm == cold


def _count_walks(monkeypatch):
    """Empties ``_head_cache`` and counts the calls of ``_direct``."""
    walks = []
    direct = series._direct

    def spy(*args):
        walks.append(args)
        return direct(*args)

    monkeypatch.setattr(series, "_head_cache", {})
    monkeypatch.setattr(series, "_direct", spy)
    return walks


@pytest.mark.parametrize("p", [1, 2])
def test_tangent_and_secant_share_their_heads(p, monkeypatch):
    # Theorems 3.1 and 3.4 sum the same heads at sigma = +1 and -1: the pair
    # walks 2 heads, not 4, and a second run of both walks none
    walks = _count_walks(monkeypatch)
    a, b = F(1, 4), F(1, 3)
    cold = [verify(p, a, b, P, "1e-40") for verify in (verify_thm3_1, verify_thm3_4)]
    assert len(walks) == 2
    warm = [verify(p, a, b, P, "1e-40") for verify in (verify_thm3_1, verify_thm3_4)]
    assert len(walks) == 2
    assert all(report.passed for report in cold + warm)
    assert [(r.lhs, r.rhs) for r in cold] == [(r.lhs, r.rhs) for r in warm]


def test_default_verify_walks_one_head_per_key(monkeypatch):
    # a cold default verify asks 224 sums of 145 heads, so walks 145 heads;
    # a warm one walks none
    walks = _count_walks(monkeypatch)
    calls = []
    accel = series._accel_sum

    def spy_accel(*args):
        calls.append(args)
        return accel(*args)

    monkeypatch.setattr(series, "_accel_sum", spy_accel)
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify"]) == 0
    assert len(calls) == 2 * 224
    keys = {(offset, ps, pieces, prec) for ps, offset, _, pieces, prec in calls}
    assert len(walks) == len(keys) == 145


class _Untouchable(dict):
    """A ``_head_cache`` that fails a test on any read or write."""

    def __getitem__(self, key):
        raise AssertionError("head cache read")

    get = __contains__ = setdefault = __getitem__

    def __setitem__(self, key, value):
        raise AssertionError("head cache filled")


def test_accel_linear_sum_checks_its_arguments_first(monkeypatch):
    # an offset of 2 once summed h_(n-2) from a wrong slice of the prefix
    # sums (-10.90 for a true -0.148, with a tail bound near 1e-18), and
    # p = 0 or -1 failed inside the head: each is now a SpecError, raised
    # before any sum and before the head cache is read
    def summed(*args):
        raise AssertionError("summed before the argument checks")

    monkeypatch.setattr(series, "_direct", summed)
    monkeypatch.setattr(series, "_head_cache", _Untouchable())
    pieces = [(F(1), [(F(-1, 4), 1), (F(-1, 6), 1)])]
    for p, offset, sigma in ((1, 2, -1), (1, -1, 1), (0, 0, -1), (-1, 0, -1), (F(3, 2), 0, 1),
                             (1.0, 0, 1), (1, 0, 0), (1, 0, 2), (None, F(1), 1)):
        with pytest.raises(SpecError):
            accel_linear_sum(p, offset, sigma, pieces, 64)
    # a piece with no factor, alone or not, is a constant term, whose sum
    # diverges; no piece at all is no sum (a bare TypeError or ValueError
    # from inside the head once)
    for bad, error in (([(F(1), [(F(1, 3), 1)]), (F(1), [])], DivergentSumError),
                       ([(F(1), [])], DivergentSumError), ([], SpecError)):
        with pytest.raises(error):
            accel_linear_sum(None, 0, -1, bad, 64)
    with pytest.raises(AssertionError, match="read"):
        accel_linear_sum(1, 0, -1, pieces, 64)


def test_naive_sum_checks_its_max_terms():
    # -5 failed in guard_bits with a bare "math domain error", 2.5 with a
    # TypeError
    spec = SumSpec(p=(1,), q=(2,), a=(F(1, 3),))
    for bad in (-5, 0, 2.5, "2", F(4)):
        with pytest.raises(SpecError, match="max_terms|integer"):
            naive_sum(spec, 64, bad)
    assert naive_sum(spec, 64, 1).terms_used == 1


def test_each_nested_level_is_built_once_per_call(monkeypatch):
    # the levels of one call are closed under prefixes, and each is one
    # summation step on its parent's exact series: for (1, 2, 2), G's step
    # and one step for each of its 7 levels; each floored level equals the
    # one built alone from G
    steps = []
    sum_step = series._sum_step

    def counted(*args, **kwargs):
        steps.append(args)
        return sum_step(*args, **kwargs)

    monkeypatch.setattr(series, "_sum_step", counted)
    monkeypatch.setattr(series, "_expansion_cache", {})
    ps, pieces = (1, 2, 2), _int_pieces([(F(1), [(F(-1, 6), 3)])])
    levels = {word[:0:-1] for word, _ in series._words(ps) if len(word) > 1}
    assert len({lv[:i] for lv in levels for i in range(1, len(lv) + 1)}) == 7
    series._accel_sum(ps, 1, -1, pieces, 64)
    assert len(steps) == 1 + 7
    built = dict(series._expansion_cache)
    assert len(built) == 1 + len(levels)
    for key, floors in built.items():
        series._expansion_cache.clear()
        assert series._tail_expansion(*key[:5], key[5:]) == floors, key


@pytest.mark.parametrize("prec", [64, 192, 1024])
def test_either_sign_first_cold_or_warm_gives_the_same_sums(prec, monkeypatch):
    # the sigma = -1 sum that reads the head of its sigma = +1 twin equals the
    # one that walked it, and so on the other way round and warm
    walks = _count_walks(monkeypatch)
    for offset, p in sorted({(offset, p) for _, offset, p in _tail_grid(prec)}, key=str):
        seen = []
        for order in ((1, -1), (-1, 1), (1, -1)):
            if len(seen) < 2:  # cold
                for name in ("_head_cache", "_expansion_cache", "_bern_cache"):
                    monkeypatch.setattr(series, name, {})
            walks.clear()
            res = {sigma: accel_linear_sum(p, offset, sigma, TAIL_PIECES, prec) for sigma in order}
            assert len(walks) == (1 if len(seen) < 2 else 0), (offset, p, order)
            seen.append({sigma: (r.value._mpf_, r.tail_bound._mpf_, r.terms_used)
                         for sigma, r in res.items()})
        assert seen[0] == seen[1] == seen[2], (offset, p)


def test_only_the_accelerated_path_uses_the_head_cache(monkeypatch):
    # the oracle and --method naive walk every head afresh; the accelerated
    # path reads the kept head for any number of factors, three included
    monkeypatch.setattr(series, "_head_cache", _Untouchable())
    for p, sigma in itertools.product(((), (2,), (1, 2), (1, 1, 2)), (1, -1)):
        spec = SumSpec(p=p, q=(6,), a=(F(1, 3),), sigma=sigma)
        naive_sum(spec, 64, 300)
        euler_t_sum(spec, 64, method="naive", max_terms=300)
        with pytest.raises(AssertionError, match="read"):
            euler_t_sum(spec, 64)
    assert len(series._head_cache) == 0


# The fixed-point direct loop against exact partial sums: sigma = +-1, r = 0..3,
# both offsets, far shifts, poles 10^-6 apart (whose partial fractions cancel
# about 40 bits), terms near 2^-800 and 2^+800, and the head of pair-1024.
GRID_SHIFTS = (F(101, 3), F(-47, 3), F(1, 10 ** 6), F(0), F(1, 2), F(1, 4), F(-1, 3))


def _exact_partial(sigma, offset, ps, factors, N):
    total = absum = F(0)
    hs = [F(0)] * len(ps)
    for n in range(1, N + 1):
        inc = [F(2, 2 * n - 1) ** p for p in ps]
        if offset == 0:
            hs = [h + i for h, i in zip(hs, inc)]
        term = F(sigma) ** n
        for h in hs:
            term *= h
        for t, e in factors:
            term /= (n + t) ** e
        if offset == 1:
            hs = [h + i for h, i in zip(hs, inc)]
        total += term
        absum += abs(term)
    return total, absum, hs


def _direct_grid(seed: int = 6):
    rng = random.Random(seed)
    wps = (80, 200)
    cases = [(1, 1, (1,), [(F(-1, 2), 800)], 30, wps),  # double_t(800, 1): terms near 2^-1268
             (-1, 0, (2, 3), [(F(-999, 1000), 80)], 40, wps),  # first term near 2^+797
             (-1, 0, (1,), [(F(10 ** -6) - F(1, 2), 1), (F(-1, 2), 2)], 150, wps)]
    while len(cases) < 40:
        k = rng.randint(1, 3)
        shifts = rng.sample(GRID_SHIFTS, k)
        if len(cases) % 4 == 0:  # 10^-6 next to 0
            shifts[:2] = [GRID_SHIFTS[2], GRID_SHIFTS[3]]
        factors = sorted({a - F(1, 2): rng.randint(1, 3) for a in shifts}.items())
        ps = tuple(rng.randint(1, 3) for _ in range(len(cases) % 4))
        cases.append((rng.choice((1, -1)), rng.choice((0, 1)), ps, factors, rng.randint(1, 200),
                      wps))
    # thm3_1/thm3_4 at 1024 bits: a, b = 1/4, 1/3 or both negated, 603 head terms
    for sign, p, offset in itertools.product((1, -1), (1, 5), (0, 1)):
        factors = sorted((sign * a - F(1, 2), 1) for a in (F(1, 4), F(1, 3)))
        cases.append((1 if (p == 1) == (offset == 0) else -1, offset, (p,), factors, 603, (1072,)))
    return cases


def _exact_term(offset, ps, pieces, n):
    """The n-th term of ``_direct``'s sum up to its sign sigma^n, exactly, in
    Fractions, from the integer pieces of ``_int_pieces``: the odd harmonic
    numbers summed term by term, R(n) piece by piece."""
    h = [sum((F(2, 2 * i - 1) ** p for i in range(1, n - offset + 1)), F(0)) for p in ps]
    return math.prod(h) * sum(F(c, d) / math.prod(F(n + F(a, b)) ** e for b, a, e in dens)
                              for (c, d), dens in pieces)


def _signed(head, sigma):
    """The sum, the sum of |terms|, the last term, F, the h_N and H for one
    sigma, picked from ``_direct``'s sign-free head."""
    totals, abs_total, lasts, scale, hs, H = head
    return totals[sigma < 0], abs_total, lasts[sigma < 0], scale, hs, H


def _direct_reference(offset, ps, pieces, N, wp):
    """``_direct``'s sign-free head from two term loops, one per sigma."""
    plus, minus = (_term_loop(sigma, offset, ps, pieces, N, wp) for sigma in (1, -1))
    assert plus[1] == minus[1] and plus[3:] == minus[3:]
    return (plus[0], minus[0]), plus[1], (plus[2], minus[2]), *plus[3:]


def _term_loop(sigma, offset, ps, pieces, N, wp):
    """The term-by-term loop for one sigma that ``_direct``'s block pipelines
    replace: the same floors in the same order, one n at a time, from the
    integer pieces of ``_int_pieces``.  The first non-zero term comes from
    ``_exact_term``, exactly in Fractions, term by term: the reference for
    the integer search of ``_direct``."""
    r = len(ps)
    scaled = [(F(n, d) * math.prod(F(b) ** e for b, _, e in dens), dens)
              for (n, d), dens in pieces]
    first = next((x for x in (_exact_term(offset, ps, pieces, n) for n in range(1, N + 1)) if x),
                 F(1))
    lg = abs(first.numerator).bit_length() - first.denominator.bit_length() - 1
    V = 2 ** (sum(ps) - r) * (N.bit_length() + 3) ** r
    scale = max(0, wp + 1 + (N * (2 * len(pieces) * V + 1)).bit_length() - lg)
    H = max(scale, wp) + 32 + N.bit_length()
    L = math.lcm(*(k.denominator for k, _ in scaled))
    steps = [(p, 1 << (p + H)) for p in sorted(set(ps))]
    h = dict.fromkeys(ps, 0)
    total = abs_total = term = 0
    for n in range(1, N + 1):
        grown = {p: h[p] + step // (2 * n - 1) ** p for p, step in steps}
        if offset == 0:
            h = grown
        weight = math.prod(h[p] for p in ps) >> (r - 1) * H if r else None
        term = 0
        for k, dens in scaled:
            den = math.prod((b * n + a) ** e for b, a, e in dens)
            if r:  # the weight at 2^-H over the piece's integer denominator
                term += (k * L).numerator * weight // (L * den)
            else:  # floor(k 2^scale) over it
                term += (k.numerator << scale) // k.denominator // den
        h = grown
        if sigma == -1 and n & 1:
            term = -term
        total += term
        abs_total += abs(term)
    if r:  # from 2^-H to 2^-scale, once
        total, abs_total, term = total >> H - scale, abs_total >> H - scale, term >> H - scale
    return total, abs_total, term, scale, [h[p] for p in ps], H


def test_fixed_point_loop_matches_exact_partial_sums():
    grid = _direct_grid()
    assert {len(c[2]) for c in grid} == {0, 1, 2, 3} and {c[0] for c in grid} == {1, -1}
    assert {c[1] for c in grid} == {0, 1}
    for sigma, offset, ps, factors, N, wps in grid:
        exact, absum, hs_exact = _exact_partial(sigma, offset, ps, factors, N)
        product = [(F(1), factors)]
        pf = [(c, [(t, e)]) for t, e, c in partial_fractions(factors)]
        for pieces, wp in itertools.product(map(_int_pieces, (product, pf)), wps):
            got = _direct(offset, ps, pieces, N, wp)
            total, abs_total, _, scale, hs, hscale = _signed(got, sigma)
            case = (sigma, offset, ps, factors, N, len(pieces), wp)
            assert got == _direct_reference(offset, ps, pieces, N, wp), case
            # the error contract of the fixed point: abs_total 2^-wp
            assert abs(F(total, 1 << scale) - exact) <= absum / 2 ** wp, case
            assert abs(F(abs_total, 1 << scale) - absum) <= absum / 2 ** wp, case
            assert all(abs(F(h, 1 << hscale) - x) <= F(N, 1 << hscale)
                       for h, x in zip(hs, hs_exact)), case


def test_weights_keep_their_precision_when_the_head_scale_is_clamped():
    # terms near 2^400 clamp F to 0, and the weights must still keep wp + 32
    # bits: h_1 is exact, so only the terms past the first one show a loss
    k, factors, N = F(2 ** 400, 3), [(F(-1, 6), 2)], 60
    for sigma, offset, ps in ((1, 0, (1,)), (-1, 1, (2,)), (1, 0, (1, 3))):
        exact, absum, _ = _exact_partial(sigma, offset, ps, factors, N)
        for wp in (80, 200):
            pieces = _int_pieces([(k, factors)])
            got = _direct(offset, ps, pieces, N, wp)
            assert got == _direct_reference(offset, ps, pieces, N, wp)
            total, abs_total, _, scale, _, _ = _signed(got, sigma)
            assert scale == 0
            assert abs(F(total, 1 << scale) - k * exact) <= k * absum / 2 ** wp, (ps, wp)
            assert abs(F(abs_total, 1 << scale) - k * absum) <= k * absum / 2 ** wp, (ps, wp)


def _first_term_grid(seed: int = 24):
    """(offset, ps, pieces, N, wp) for r = 0, 1 and 2, both offsets and wp at
    64, 192 and 1024 bits plus 48: random pieces; pieces whose sum vanishes
    at n = 1, or at n = 1 and 2 (single poles, their coefficients a null
    vector of the values there); and pieces that cancel at every n."""
    rng = random.Random(seed)
    shifts = [a - F(1, 2) for a in GRID_SHIFTS]
    cases = []
    for prec, r, offset, kind in itertools.product((64, 192, 1024), (0, 1, 2), (0, 1),
                                                   ("random", 1, 2, "zero")):
        ps = tuple(sorted(rng.randint(1, 3) for _ in range(r)))
        if kind == "random":
            pieces = [(F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12)),
                       sorted({t: rng.randint(1, 3) for t in rng.sample(shifts, rng.randint(1, 2))
                               }.items())) for _ in range(rng.randint(1, 3))]
        elif kind == "zero":
            t = rng.choice(shifts)
            pieces = [(F(3, 5), [(t, 2)]), (F(-3, 5), [(t, 2)])]
        else:  # zero at n = 1..kind, from kind + 1 distinct single poles
            while True:
                fs = [(t, rng.randint(1, 2)) for t in rng.sample(shifts, kind + 1)]
                M = [[(n + t) ** -e for t, e in fs] for n in (1, 2)]
                c = ([M[0][1], -M[0][0]] if kind == 1 else
                     [M[0][1] * M[1][2] - M[0][2] * M[1][1], M[0][2] * M[1][0] - M[0][0] * M[1][2],
                      M[0][0] * M[1][1] - M[0][1] * M[1][0]])
                if all(c):
                    break
            pieces = [(cj, [f]) for cj, f in zip(c, fs)]
        cases.append((offset, ps, _int_pieces(pieces), rng.randint(1, 300), prec + 48))
    return cases


def test_first_term_in_integers_matches_the_exact_fraction_rule():
    # F, H and every integer of the head as with the first non-zero term
    # found exactly in Fractions; the first such term falls at n = 1, 2 and 3
    # (offset 1 skips n = 1, a piece sum that vanishes at n = 1, 2 skips
    # those), or nowhere
    firsts = set()
    for offset, ps, pieces, N, wp in _first_term_grid():
        first = next((n for n in range(1, N + 1) if _exact_term(offset, ps, pieces, n)), None)
        firsts.add(first)
        case = (offset, ps, pieces, N, wp)
        assert _direct(*case) == _direct_reference(*case), case
    assert {1, 2, 3, None} <= firsts


# e = 1 and e > 1, one factor and several; t = -95/6 makes bn + a < 0 for n <= 15
BLOCK_FACTORS = ([(F(-1, 6), 1)], [(F(-1, 6), 1), (F(1, 3), 1)], [(F(-95, 6), 2), (F(0), 3)])
BLOCK_PS = ((), (2,), (1, 1), (1, 2, 3))


def _block_lengths():
    B = series._BLOCK
    return (1, B - 1, B, B + 1, 2 * B + 1, 2 * B + 2)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("ps", BLOCK_PS, ids=["r0", "r1", "r2", "r3"])
def test_blocks_match_the_term_loop(sigma, offset, ps):
    # the sum, the sum of |terms| and the last term for sigma, picked from
    # the one sign-free walk, against the term loop for that sigma alone
    for factors in BLOCK_FACTORS:
        pf = [(c, [(t, e)]) for t, e, c in partial_fractions(factors)]
        for pieces in map(_int_pieces, ([(F(1), factors)], pf)):
            for N in _block_lengths():
                got = _signed(_direct(offset, ps, pieces, N, 80), sigma)
                assert got == _term_loop(sigma, offset, ps, pieces, N, 80), (
                    factors, len(pieces), N)


@pytest.mark.parametrize("offset", ["cur", "prev"])
def test_naive_alternating_last_term_across_blocks(offset, monkeypatch):
    # sigma = -1 sums N + 1 terms and subtracts the signed last one for its bound;
    # the N + 1 sit at the block boundaries
    spec = SumSpec(p=(1, 2), q=(3,), a=(F(-1, 3),), sigma=-1, harmonic_offset=offset)
    lengths = [N - 1 for N in _block_lengths() if N > 1] + [1]
    got = [naive_sum(spec, 64, N) for N in lengths]
    monkeypatch.setattr(series, "_direct", _direct_reference)
    assert got == [naive_sum(spec, 64, N) for N in lengths]


def test_direct_memory_does_not_grow_with_the_terms():
    # the blocks keep a few block-length lists alive, never all N terms
    peaks = {}
    for N in (1 << 12, 1 << 15):
        tracemalloc.start()
        try:
            _direct(0, (1, 1), _int_pieces([(F(1), [(F(-1, 6), 4)])]), N, 111)
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1 << 15] < 2 * peaks[1 << 12], peaks


NAIVE_REF_TERMS = 1 << 17


@pytest.mark.parametrize("p", [(1,), (1, 1), (1, 1, 1), (1, 2)])
@pytest.mark.parametrize("q", [(2,), (3,)])
def test_naive_positive_tail_bound_with_order_one_factors(p, q):
    # the terms are positive, so every partial sum plus its bound must reach
    # any later partial sum; with p_i = 1 the terms fall only like log^r n / n^d
    spec = SumSpec(p=p, q=q, a=(F(1, 2),))
    ref = naive_sum(spec, 64, NAIVE_REF_TERMS).value
    acc = euler_t_sum(spec, 64).value if len(p) <= 2 else None
    for n in (2, 4, 8, 16, 32, 1024):
        res = naive_sum(spec, 64, n)
        with mp.workprec(128):
            assert res.value + res.tail_bound >= ref, (n, res)
            if acc is not None:
                assert abs(acc - res.value) <= res.tail_bound, (n, res)


def test_naive_positive_tail_bound_around_negative_shifts():
    # n + t < 0 up to n = 5: a tail that still holds those terms has no bound
    spec = SumSpec(p=(1,), q=(2,), a=(F(-5),))
    assert naive_sum(spec, 64, 3).tail_bound == mp.inf
    acc = euler_t_sum(spec, 64)
    for n in (8, 64):
        res = naive_sum(spec, 64, n)
        with mp.workprec(128):
            assert abs(acc.value - res.value) <= res.tail_bound, n


# ---------------------------------------------------------------------------
# One exact summation step, and products of two harmonic factors
# ---------------------------------------------------------------------------

def _step_input(coeffs):
    """Exact Fractions c_0..c_M as the series of ``_sum_step``: one
    denominator, D = 1."""
    den = math.lcm(*(c.denominator for c in coeffs))
    m0 = next(m for m, c in enumerate(coeffs) if c)
    return series._Series(1, den, m0, [(c * den).numerator for c in coeffs])


def _step_coeffs(out):
    """The exact Fractions of a series that ``_sum_step`` returns."""
    D, den, _, nums, divs = out
    return [F(x, den * D ** m * divs[m]) for m, x in enumerate(nums)]


@pytest.mark.parametrize("sigma, s", [(1, 2), (1, 3), (1, 5), (-1, 1), (-1, 2), (-1, 5)])
def test_sum_step_of_a_power_is_its_bernoulli_series(sigma, s, monkeypatch):
    # one step on u^-s: sum_{j>=0} sigma^j (u + j)^-s ~ u^(1-s)/(s-1) (sigma =
    # +1 only) + u^-s/2 + sum_k beta_k C(s+2k-2, 2k-1) u^-(s+2k-1), with
    # mpmath's Bernoulli numbers; at u = 1207/2 the series, cut after u^-59,
    # meets the tail zeta value within the first power it drops
    monkeypatch.setattr(series, "_bern_cache", {})
    top = 60
    got = _step_coeffs(series._sum_step(sigma, 0, _step_input([F(m == s) for m in range(top + 1)])))
    want = [F(0)] * top
    if sigma == 1:
        want[s - 1] += F(1, s - 1)
    want[s] += F(1, 2)
    k = 1
    while s + 2 * k - 1 < top:
        want[s + 2 * k - 1] += _beta(sigma, k) * comb(s + 2 * k - 2, 2 * k - 1)
        k += 1
    assert got == want
    u, prec = F(1207, 2), 256
    dropped = abs(_beta(sigma, k)) * comb(s + 2 * k - 2, 2 * k - 1) / u ** (s + 2 * k - 1)
    [zeta] = tail_zeta_batch(sigma, [s], u, prec)
    value = sum(c / u ** w for w, c in enumerate(got))
    assert abs(value - _exact(zeta)) <= dropped + abs(value) / 2 ** (prec - 1)


def _nested_tail_reference(s1, s2, N, levels=10, bits=320):
    """sum_{N<k<j} u_k^-s1 u_j^-s2, u = k - 1/2, from exact partial sums over
    j <= M at M = 2N, 4N, ..., 2^levels N (in integers at 2^-bits, one floor
    per power), Richardson-extrapolated in 1/M; and the last change of the
    table, an estimate of its error."""
    inner = total = 0
    partial, M = [], 2 * N
    for j in range(N + 1, (N << levels) + 1):
        total += inner * ((1 << (bits + s2)) // (2 * j - 1) ** s2) >> bits
        inner += (1 << (bits + s1)) // (2 * j - 1) ** s1
        if j == M:
            partial.append(F(total, 1 << bits))
            M *= 2
    for k in range(1, levels):
        before, partial = partial, [(2 ** k * b - a) / (2 ** k - 1)
                                    for a, b in zip(partial, partial[1:])]
    return partial[0], abs(partial[0] - before[-1])


@pytest.mark.parametrize("s1, s2", [(2, 3), (3, 2)])
def test_two_steps_give_the_nested_tail(s1, s2, monkeypatch):
    # H(k) = sum_{j>k} u_j^-s2 by one offset-1 step on u^-s2; u^-s1 H by one
    # more, read at k = N, gives sum_{k>N} u_k^-s1 H(k): item 1's T(s1, s2)
    # without R, against exact partial sums to 64 bits
    monkeypatch.setattr(series, "_bern_cache", {})
    N, top = 32, 48
    inner = _step_coeffs(series._sum_step(1, 1, _step_input([F(m == s2) for m in range(top + 1)])))
    outer = series._sum_step(1, 1, _step_input([F(0)] * s1 + inner[:top + 1 - s1]))
    u = F(2 * N - 1, 2)
    value = sum(c / u ** w for w, c in enumerate(_step_coeffs(outer)))
    ref, err = _nested_tail_reference(s1, s2, N)
    assert err < ref / 2 ** 80
    assert abs(value - ref) < ref / 2 ** 64


def test_symmetric_sum_identity_for_two_factors(monkeypatch):
    # Hoffman's symmetric sums at sigma = +1: with S = sum_n u_n^-2
    # (h_n^(2))^2, 3 S = ttilde(2)^3 + 3 ttilde(4) ttilde(2) + 2 ttilde(6) -
    # 3 t*(2, 4), t*(2, 4) = sum_n u_n^-2 h_n^(4) the one-factor sum; without
    # the stuffle term T(p1 + p2) the identity fails by far
    stars = {prec: euler_t_sum(SumSpec(p=(4,), q=(2,), a=(F(0),)), prec) for prec in (192, 1024)}

    def gap(prec):
        s, star = euler_t_sum(SumSpec(p=(2, 2), q=(2,), a=(F(0),)), prec), stars[prec]
        with mp.workprec(prec + 64):
            t2, t4, t6 = (ttilde(k, prec + 64) for k in (2, 4, 6))
            rhs = t2 ** 3 + 3 * t4 * t2 + 2 * t6 - 3 * star.value
            return abs(3 * s.value - rhs), 3 * (s.tail_bound + star.tail_bound) + mpf(2) ** -prec

    for prec in (192, 1024):
        off, bound = gap(prec)
        assert off <= bound, prec
    batch = series._tail_batch

    def no_stuffle_term(sigma, N, wp, W, dbits, shift, p, *rest):  # T(2 + 2) is the one at p = 4
        return (0, []) if p == 4 else batch(sigma, N, wp, W, dbits, shift, p, *rest)

    monkeypatch.setattr(series, "_tail_batch", no_stuffle_term)
    off, bound = gap(192)
    assert off > 2 ** 64 * bound


def test_telescoping_identity_for_three_factors(monkeypatch):
    # with S(x; y...) = sum_n u_n^-x prod h_n^(y), summing (h_n)^4 - (h_n -
    # u_n^-2)^4, h = h^(2), gives 4 S(2; 2, 2, 2) = ttilde(2)^4 + 6 S(4; 2, 2)
    # - 4 t*(6, 2) + ttilde(8); without the stuffle term T(2 + 2 + 2) the
    # identity fails by far
    others = {prec: [euler_t_sum(SumSpec(p=p, q=(q,), a=(F(0),)), prec)
                     for p, q in (((2, 2), 4), ((2,), 6))] for prec in (192, 1024)}

    def gap(prec):
        s, (s4, star) = euler_t_sum(SumSpec(p=(2, 2, 2), q=(2,), a=(F(0),)), prec), others[prec]
        with mp.workprec(prec + 64):
            t2, t8 = (ttilde(k, prec + 64) for k in (2, 8))
            rhs = t2 ** 4 + 6 * s4.value - 4 * star.value + t8
            bound = 4 * s.tail_bound + 6 * s4.tail_bound + 4 * star.tail_bound + mpf(2) ** -prec
            return abs(4 * s.value - rhs), bound

    for prec in (192, 1024):
        off, bound = gap(prec)
        assert off <= bound, prec
    batch = series._tail_batch

    def no_stuffle_term(sigma, N, wp, W, dbits, shift, p, *rest):  # the word (6,) is at p = 6
        return (0, []) if p == 6 else batch(sigma, N, wp, W, dbits, shift, p, *rest)

    monkeypatch.setattr(series, "_tail_batch", no_stuffle_term)
    off, bound = gap(192)
    assert off > 2 ** 64 * bound


def _two_factor_grid(seed: int = 2026):
    """Seeded r = 2 specs at sigma = -1: p1 = p2 and p1 != p2, both offsets,
    and the shifts 0, 1/3, 1/2 and 101/3; then four r = 3 specs, the same
    way with a third order of 1..3."""
    rng = random.Random(seed)
    shifts = (F(0), F(1, 3), F(1, 2), F(101, 3))
    specs = []
    for i in range(12):
        p1 = rng.randint(1, 3)
        p = (p1, p1) if i % 2 else (p1, p1 + rng.randint(1, 2))
        if i >= 8:
            p += (rng.randint(1, 3),)
        k = rng.randint(1, 2)
        specs.append(SumSpec(p=p, q=tuple(rng.randint(1, 3) for _ in range(k)),
                             a=(shifts[i % 4], *rng.sample(shifts, k - 1)), sigma=-1,
                             harmonic_offset=("cur", "prev")[i // 2 % 2]))
    return specs


def test_two_factor_products_at_sigma_minus_one_match_direct_summation():
    specs = _two_factor_grid()
    assert {s.p[0] == s.p[1] for s in specs} == {True, False}
    assert {len(s.p) for s in specs} == {2, 3}
    assert {s.offset for s in specs} == {0, 1}
    assert {a for s in specs for a in s.a} == {F(0), F(1, 3), F(1, 2), F(101, 3)}
    for spec in specs:
        res, nai = euler_t_sum(spec, 64), naive_sum(spec, 64, 50000)
        assert res.terms_used < series.NAIVE_START_TERMS  # an accelerated head
        with mp.workprec(128):
            assert abs(res.value - nai.value) <= res.tail_bound + nai.tail_bound, spec


@pytest.mark.parametrize("p, sigma", [((1, 40), 1), ((40, 40), 1), ((2, 45), -1)])
def test_two_factor_orders_past_the_truncation(p, sigma):
    # at 64 bits the series keep about 30 powers, so the nested level of an
    # order past them keeps none; the value still lies within its bound of
    # the value 160 bits finer
    spec = SumSpec(p=p, q=(2,), a=(F(0),), sigma=sigma)
    res, ref = euler_t_sum(spec, 64), euler_t_sum(spec, 224)
    with mp.workprec(300):
        assert abs(res.value - ref.value) <= res.tail_bound
