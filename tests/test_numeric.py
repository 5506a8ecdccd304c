import random
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

import tsum.numeric as numeric
from tsum.numeric import PrecisionError, bernoulli, real_const, real_to_str, to_mpf
from tsum.special import digamma, hurwitz_zeta, riemann_zeta, ttilde

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


def test_constants_are_memoized_and_deterministic():
    a = real_const("pi", 128)
    b = real_const("pi", 128)
    assert a is b
    assert real_to_str(a, 128) == real_to_str(b, 128)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 30, 2))


def test_bernoulli_defining_recurrence_holds_through_200():
    for m in range(1, 201):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_bernoulli_matches_mpmath_through_1200(monkeypatch):
    # mpmath's bernfrac (a zeta evaluation) is the independent oracle
    monkeypatch.setattr(numeric, "_bernoulli_even", [Fraction(1)])
    bernoulli(1200)
    assert len(numeric._bernoulli_even) == 601
    for n in range(1201):
        assert bernoulli(n) == Fraction(*mp.bernfrac(n)), n


def test_bernoulli_table_does_not_depend_on_the_order_of_requests(monkeypatch):
    monkeypatch.setattr(numeric, "_bernoulli_even", [Fraction(1)])
    out_of_order = [bernoulli(600), bernoulli(10)]
    jumped = [bernoulli(n) for n in range(601)]
    monkeypatch.setattr(numeric, "_bernoulli_even", [Fraction(1)])
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
