import random
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

import tsum.numeric as numeric
import tsum.series as series
import tsum.special as special
import tsum.reductions as reductions
from tsum.identities import (
    PartialFractionRational,
    verify_cor3_2,
    verify_cor3_3,
    verify_cor3_5,
    verify_cor3_6,
    verify_lemma2_3,
    verify_lemma2_4,
    verify_thm3_1,
    verify_thm3_4,
    verify_thm3_6,
    verify_thm3_7,
)
from tsum.numeric import PrecisionError, bernoulli, real_const, real_to_str, to_mpf
from tsum.reductions import FAMILIES, eval_symbolic
from tsum.series import (SumSpec, accel_linear_sum, double_t, double_T, euler_t_sum, harmonic,
                         naive_sum, odd_harmonic)
from tsum.special import (
    KernelKind,
    digamma,
    hurwitz_zeta,
    kernel_jet,
    kernel_sums,
    riemann_zeta,
    tail_zeta_batch,
    ttilde,
    ttilde_bar,
)
from tsum.suite import run_reduction_case

F = Fraction

PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097"
LOG2_DIGITS = "0.693147180559945309417232121458176568075500134360255254121"
GAMMA_DIGITS = "0.577215664901532860606512090082402431042159335939923598806"


def _gap(a, b, wp=256):
    with mp.workprec(wp):
        return abs(mpf(a) - mpf(b))


@pytest.mark.parametrize("name,digits", [
    ("pi", PI_DIGITS),
    ("log2", LOG2_DIGITS),
    ("euler_gamma", GAMMA_DIGITS),
])
def test_constants_against_reference_digits(name, digits):
    with mp.workprec(220):
        want = mpf(digits)
    assert _gap(real_const(name, 192), want) < mpf(2) ** -186


def test_euler_gamma_against_digamma_oracle():
    # gamma = -psi(1), with psi computed by the shifted asymptotic engine
    with mp.workprec(256):
        assert abs(real_const("euler_gamma", 192) + digamma(1, 200)) < mpf(2) ** -186


def test_fraction_conversion_is_correctly_rounded():
    # mpf(p) / q rounds twice and misses about one conversion in four here
    rng = random.Random(9)
    for _ in range(20000):
        p = rng.getrandbits(200) - (1 << 199)
        q = rng.getrandbits(120) | 1
        assert to_mpf(Fraction(p, q), 64)._mpf_ == from_rational(p, q, 64, round_nearest)


def test_unknown_constant_rejected():
    with pytest.raises(ValueError):
        real_const("feigenbaum", 64)


def test_minimum_precision_enforced():
    with pytest.raises(PrecisionError):
        real_const("pi", 8)


ENTRY_POINTS = {
    "hurwitz_zeta": lambda prec: hurwitz_zeta(2, F(1, 3), prec),
    "tail_zeta_batch": lambda prec: tail_zeta_batch(1, [2, 3], F(1, 3), prec),
    "riemann_zeta": lambda prec: riemann_zeta(3, prec),
    "digamma": lambda prec: digamma(F(1, 3), prec),
    "ttilde": lambda prec: ttilde(2, prec),
    "kernel_sums": lambda prec: kernel_sums(kernel_jet(KernelKind.PI_TAN, F(1, 3), 0).coeffs,
                                            prec),
    "accel_linear_sum": lambda prec: accel_linear_sum(1, 0, 1, [(F(1), [(F(-1, 6), 2)])], prec),
    "naive_sum": lambda prec: naive_sum(SumSpec(p=(1,), q=(2,), a=(F(1, 3),)), prec),
    "euler_t_sum": lambda prec: euler_t_sum(SumSpec(p=(1,), q=(2,), a=(F(1, 3),)), prec),
    "double_t": lambda prec: double_t(2, 1, False, prec),
    "eval_symbolic": lambda prec: eval_symbolic(FAMILIES["t_even_odd"].reduce(1, 0), prec),
    "verify_thm3_1": lambda prec: verify_thm3_1(1, F(1, 4), F(1, 3), prec, "1e-3"),
    "verify_cor3_2": lambda prec: verify_cor3_2(1, F(1, 4), prec, "1e-3"),
    "verify_thm3_6": lambda prec: verify_thm3_6(
        1, PartialFractionRational.parse("(-1/4,1,12);(-1/3,1,-12)"), prec, "1e-3"),
    "verify_lemma2_3": lambda prec: verify_lemma2_3(2, prec, "1e-3"),
    "verify_lemma2_4": lambda prec: verify_lemma2_4(2, prec, "1e-3"),
    "run_reduction_case": lambda prec: run_reduction_case("t_even_odd", 1, 0, prec, "1e-3"),
}


@pytest.mark.parametrize("prec", [-3, 0, 15])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_entry_point_rejects_a_low_precision_before_summing(name, prec, monkeypatch):
    # mpmath's from_rational never returns at a negative precision, so the
    # check must come before the first sum: the kernel's or the head's
    def summed(*args):
        raise AssertionError("summed before the precision check")
    monkeypatch.setattr(special, "_fixed_sums", summed)
    monkeypatch.setattr(series, "_direct", summed)
    monkeypatch.setattr(series, "_head_cache", {})  # a kept head would skip _direct
    with pytest.raises(PrecisionError):
        ENTRY_POINTS[name](prec)


RESIDUE_R = PartialFractionRational.parse("(-1/4,1,12);(-1/3,1,-12)")
QUARTER, THIRD = F(1, 4), F(1, 3)
INTEGER_ARGUMENTS = {
    "harmonic-n": lambda v: harmonic(v, 1),
    "harmonic-p": lambda v: harmonic(3, v),
    "odd_harmonic-n": lambda v: odd_harmonic(v, 1),
    "odd_harmonic-p": lambda v: odd_harmonic(3, v),
    **{f"{name}-{slot}": (lambda fn, slot: lambda v: fn(v, 1) if slot == "j" else fn(1, v))(
        getattr(reductions, name), slot)
       for name in ("reduce_t_even_odd", "reduce_t_odd_even", "reduce_t_bar_even",
                    "reduce_t_bar_odd", "reduce_T_even_odd", "reduce_T_odd_even",
                    "reduce_T_bar_even", "reduce_T_bar_odd") for slot in "jm"},
    "verify_thm3_1": lambda v: verify_thm3_1(v, QUARTER, THIRD, 64, "1e-3"),
    "verify_thm3_4": lambda v: verify_thm3_4(v, QUARTER, THIRD, 64, "1e-3"),
    "verify_cor3_2": lambda v: verify_cor3_2(v, QUARTER, 64, "1e-3"),
    "verify_cor3_3": lambda v: verify_cor3_3(v, QUARTER, 64, "1e-3"),
    "verify_cor3_5": lambda v: verify_cor3_5(v, QUARTER, 64, "1e-3"),
    "verify_cor3_6": lambda v: verify_cor3_6(v, QUARTER, 64, "1e-3"),
    "verify_thm3_6": lambda v: verify_thm3_6(v, RESIDUE_R, 64, "1e-3"),
    "verify_thm3_7": lambda v: verify_thm3_7(v, RESIDUE_R, 64, "1e-3"),
    "verify_lemma2_3": lambda v: verify_lemma2_3(v, 64, "1e-3"),
    "verify_lemma2_4": lambda v: verify_lemma2_4(v, 64, "1e-3"),
    "ttilde": lambda v: ttilde(v, 64),
    "ttilde_bar": lambda v: ttilde_bar(v, 64),
    "double_t-s1": lambda v: double_t(v, 1, False, 64),
    "double_t-s2": lambda v: double_t(3, v, False, 64),
    "double_T-s1": lambda v: double_T(v, 1, False, 64),
    "double_T-s2": lambda v: double_T(3, v, False, 64),
    "euler_t_sum-max_terms": lambda v: euler_t_sum(SumSpec(p=(1,), q=(2,), a=(F(0),)), 64,
                                                   "naive", v),
    "naive_sum-max_terms": lambda v: naive_sum(SumSpec(p=(1,), q=(2,), a=(F(0),)), 64, v),
    "kernel_sums-guard": lambda v: kernel_sums([[(F(1), ((1, 2, 1),))]], 64, v),
}
# at 2.5 these already raised a ValueError deeper in (a non-integer exponent
# of the kernel, a spec with a float order), so only "2" was a bare error
ONLY_A_STRING = {"verify_thm3_6", "verify_thm3_7", "ttilde", "ttilde_bar", "double_t-s1",
                 "double_t-s2", "double_T-s1", "double_T-s2"}


@pytest.mark.parametrize("name, value", [(name, value) for name in INTEGER_ARGUMENTS
                                         for value in (2.5, "2")
                                         if value == "2" or name not in ONLY_A_STRING])
def test_integer_arguments_are_checked_at_the_public_boundary(name, value):
    # each raised TypeError or AttributeError, or (odd_harmonic's order)
    # returned a float from a function documented as exact
    with pytest.raises(ValueError, match="integer arguments"):
        INTEGER_ARGUMENTS[name](value)


def test_constants_are_memoized_and_deterministic():
    a = real_const("pi", 128)
    b = real_const("pi", 128)
    assert a is b
    assert real_to_str(a, 128) == real_to_str(b, 128)


def test_real_to_str_matches_the_workprec_formula():
    # formatting straight from the mpf tuple, rounded once to prec + 8 bits,
    # against nstr of a copy of x made at workprec(prec + 8)
    def workprec_formula(x, prec):
        with mp.workprec(prec + 8):
            return mp.nstr(mpf(x), max(3, int(prec * 0.30103) + 2), strip_zeros=False)

    rng = random.Random(11)
    for prec in (16, 53, 64, 128, 192, 1024):
        values = [mpf(0), mpf(1), mpf(-1), mp.inf, -mp.inf]
        for _ in range(100):
            bits = rng.choice((1, prec, prec + 8, prec + 9, 2 * prec + 40))  # some carry more
            man = rng.getrandbits(bits) | 1
            values.append(mp.make_mpf((rng.randint(0, 1), man, rng.randint(-3 * prec, 3 * prec),
                                       man.bit_length())))
        for x in values:
            assert real_to_str(x, prec) == workprec_formula(x, prec), (prec, x._mpf_)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 30, 2))


def test_bernoulli_defining_recurrence_holds_through_200():
    for m in range(1, 201):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def _empty_bernoulli_table(monkeypatch):
    monkeypatch.setattr(numeric, "_bernoulli_even", [Fraction(1)])
    monkeypatch.setattr(numeric, "_tangent_column", [])


def test_bernoulli_matches_mpmath_through_1200(monkeypatch):
    # mpmath's bernfrac (a zeta evaluation) is the independent oracle
    _empty_bernoulli_table(monkeypatch)
    bernoulli(1200)
    assert len(numeric._bernoulli_even) == 601
    for n in range(1201):
        assert bernoulli(n) == Fraction(*mp.bernfrac(n)), n


def test_bernoulli_table_does_not_depend_on_the_order_of_requests(monkeypatch):
    _empty_bernoulli_table(monkeypatch)
    out_of_order = [bernoulli(600), bernoulli(10)]
    jumped = [bernoulli(n) for n in range(601)]
    _empty_bernoulli_table(monkeypatch)
    in_order = [bernoulli(n) for n in range(601)]
    assert in_order == jumped
    assert out_of_order == [in_order[600], in_order[10]]


def test_bernoulli_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


@pytest.mark.parametrize("value", [
    lambda p: real_const("pi", p),
    lambda p: riemann_zeta(3, p),
    lambda p: hurwitz_zeta(3, Fraction(1, 3), p),
    lambda p: digamma(Fraction(1, 3), p),
    lambda p: ttilde(5, p),
])
def test_precision_monotonicity(value):
    # recomputing at 2P and rounding back moves the result by at most 4 ulp
    P = 160
    lo = value(P)
    hi = value(2 * P)
    with mp.workprec(2 * P + 16):
        ulp = mpf(2) ** (-P) * max(mpf(1), abs(lo))
        assert abs(lo - hi) <= 4 * ulp
