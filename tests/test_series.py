import itertools
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from tsum.numeric import real_const
from tsum.series import (
    BudgetExceededError,
    _direct,
    DivergentSumError,
    SingularSumError,
    SumSpec,
    double_t,
    double_T,
    euler_t_sum,
    harmonic,
    naive_sum,
    odd_harmonic,
    partial_fractions,
)
from tsum.special import hurwitz_zeta, riemann_zeta, ttilde

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


def test_spec_validation():
    with pytest.raises(DivergentSumError):
        SumSpec(p=(1,), q=(1,), a=(F(0),), sigma=1)
    with pytest.raises(SingularSumError):
        SumSpec(p=(1,), q=(2,), a=(F(-1, 2),), sigma=1)
    with pytest.raises(ValueError):
        SumSpec(p=(1,), q=(2,), a=(F(0),), sigma=0)
    # q = 0 factors are dropped at normalization
    spec = SumSpec(p=(1,), q=(2, 0), a=(F(0), F(1, 4)), sigma=1)
    assert spec.q == (2,) and spec.a == (F(0),)
    # offset aliases
    assert SumSpec(p=(), q=(2,), a=(F(0),), harmonic_offset="n-1").harmonic_offset == "prev"


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


def test_multi_harmonic_budgeted_fallback(monkeypatch):
    # two harmonic factors with fast denominator decay meet the budget
    spec = SumSpec(p=(2, 2), q=(4,), a=(F(1, 2),))
    res = euler_t_sum(spec, 40)
    with mp.workprec(96):
        nai = naive_sum(spec, 64, 50000)
        assert abs(res.value - nai.value) <= res.tail_bound + nai.tail_bound
    # slow decay at high precision exhausts the term cap (shrunk here)
    monkeypatch.setattr("tsum.series.NAIVE_TERM_CAP", 1 << 15)
    with pytest.raises(BudgetExceededError):
        euler_t_sum(SumSpec(p=(1, 1), q=(2,), a=(F(1, 2),)), 192, max_terms=1 << 14)


def test_accelerated_method_rejects_multiple_factors():
    spec = SumSpec(p=(1, 2), q=(3,), a=(F(0),))
    with pytest.raises(ValueError):
        euler_t_sum(spec, 64, method="accelerated")


# The fixed-point direct loop against exact partial sums: sigma = +-1, r = 0..3,
# both offsets, far shifts, poles 10^-6 apart (whose partial fractions cancel
# about 40 bits) and terms near 2^-800 and 2^+800.
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
    cases = [(1, 1, (1,), [(F(-1, 2), 800)], 30),  # double_t(800, 1): terms near 2^-1268
             (-1, 0, (2, 3), [(F(-999, 1000), 80)], 40),  # first term near 2^+797
             (-1, 0, (1,), [(F(10 ** -6) - F(1, 2), 1), (F(-1, 2), 2)], 150)]
    while len(cases) < 40:
        k = rng.randint(1, 3)
        shifts = rng.sample(GRID_SHIFTS, k)
        if len(cases) % 4 == 0:  # 10^-6 next to 0
            shifts[:2] = [GRID_SHIFTS[2], GRID_SHIFTS[3]]
        factors = sorted({a - F(1, 2): rng.randint(1, 3) for a in shifts}.items())
        ps = tuple(rng.randint(1, 3) for _ in range(len(cases) % 4))
        cases.append((rng.choice((1, -1)), rng.choice((0, 1)), ps, factors, rng.randint(1, 200)))
    return cases


def test_fixed_point_loop_matches_exact_partial_sums():
    grid = _direct_grid()
    assert {len(c[2]) for c in grid} == {0, 1, 2, 3} and {c[0] for c in grid} == {1, -1}
    assert {c[1] for c in grid} == {0, 1}
    for sigma, offset, ps, factors, N in grid:
        exact, absum, hs_exact = _exact_partial(sigma, offset, ps, factors, N)
        product = [(F(1), factors)]
        pf = [(c, [(t, e)]) for t, e, c in partial_fractions(factors)]
        for pieces, wp in itertools.product((product, pf), (80, 200)):
            total, abs_total, _, scale, hs, hscale = _direct(sigma, offset, ps, pieces, N, wp)
            case = (sigma, offset, ps, factors, N, len(pieces), wp)
            # the error contract of the fixed point: abs_total 2^-wp
            assert abs(F(total, 1 << scale) - exact) <= absum / 2 ** wp, case
            assert abs(F(abs_total, 1 << scale) - absum) <= absum / 2 ** wp, case
            assert all(abs(F(h, 1 << hscale) - x) <= F(N, 1 << hscale)
                       for h, x in zip(hs, hs_exact)), case


NAIVE_REF_TERMS = 1 << 17


@pytest.mark.parametrize("p", [(1,), (1, 1), (1, 1, 1), (1, 2)])
@pytest.mark.parametrize("q", [(2,), (3,)])
def test_naive_positive_tail_bound_with_order_one_factors(p, q):
    # the terms are positive, so every partial sum plus its bound must reach
    # any later partial sum; with p_i = 1 the terms fall only like log^r n / n^d
    spec = SumSpec(p=p, q=q, a=(F(1, 2),))
    ref = naive_sum(spec, 64, NAIVE_REF_TERMS).value
    acc = euler_t_sum(spec, 64).value if len(p) == 1 else None
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
