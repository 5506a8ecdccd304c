from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tsum.jets import JetError, JetSeries, jet_mul, jet_residue
from tsum.special import Terms


def test_mul_matches_hand_product():
    a = JetSeries(0, (1, 1, 0))
    b = JetSeries(0, (1, -1, 0))
    assert jet_mul(a, b).coeffs == (1, 0, -1)


def test_residue_reads_the_minus_one_power():
    simple = JetSeries(0, (5, 0, 0), 1)
    assert jet_residue(simple) == 5
    double = JetSeries(0, (3, 7, 0), 2)
    assert jet_residue(double) == 7


def test_residue_of_partial_fraction_product():
    # 1/(z(z-1)) = -1/z - 1 - z - z^2 - ... at 0; residue is -1
    jet = JetSeries(0, (-1, -1, -1, -1), 1)
    assert jet_residue(jet) == -1


coeff_lists = st.lists(st.fractions(max_denominator=20).filter(lambda x: abs(x) <= 50),
                       min_size=1, max_size=7)


@given(coeff_lists, coeff_lists)
def test_mul_equals_exact_convolution(xs, ys):
    K = max(len(xs), len(ys)) - 1
    xs = xs + [Fraction(0)] * (K + 1 - len(xs))
    ys = ys + [Fraction(0)] * (K + 1 - len(ys))
    a = JetSeries(Fraction(1, 3), tuple(xs))
    b = JetSeries(Fraction(1, 3), tuple(ys))
    got = jet_mul(a, b)
    assert got.order == K and got.base_point == Fraction(1, 3)
    for k in range(K + 1):
        assert got.coeffs[k] == sum(xs[i] * ys[k - i] for i in range(k + 1))


def test_mul_adds_pole_orders():
    a = JetSeries(0, (1, 0, 0), 1)
    b = JetSeries(0, (1, 1, 1), 2)
    assert jet_mul(a, b).pole_order == 3


def test_order_counts_the_coefficients():
    assert JetSeries(Fraction(1, 2), (1, 2, 3)).order == 2
    with pytest.raises(JetError):
        JetSeries(0, ())
    with pytest.raises(JetError):
        JetSeries(0, (1,), -1)


def test_mismatched_operands_rejected():
    a = JetSeries(0, (1, 2))
    with pytest.raises(JetError):
        jet_mul(a, JetSeries(0, (1, 2, 3)))
    with pytest.raises(JetError):
        jet_mul(a, JetSeries(1, (1, 2)))


def test_residue_requires_pole_and_sufficient_order():
    with pytest.raises(JetError):
        jet_residue(JetSeries(0, (1, 2)))
    with pytest.raises(JetError):
        jet_residue(JetSeries(0, (1,), 3))


def test_mul_of_exact_jets_multiplies_terms_out():
    # kernel terms (c, keys) times terms or rationals, in order of i, unrounded
    x, y, base = (1, 2, Fraction(1, 3)), (-1, 1, Fraction(1, 2)), Fraction(1, 3)
    a = JetSeries(base, (Terms([(1, (x,))]), Terms([(2, ()), (Fraction(1, 2), (y,))])), 1)
    r = JetSeries(base, (Fraction(3), Fraction(-1)), 2)
    ar, aa = jet_mul(a, r), jet_mul(a, a)
    assert (ar.pole_order, ar.base_point) == (3, base)
    assert ar.coeffs == ([(3, (x,))], [(-1, (x,)), (6, ()), (Fraction(3, 2), (y,))])
    assert aa.pole_order == 2
    assert aa.coeffs[1] == [(2, (x,)), (Fraction(1, 2), (x, y)), (2, (x,)), (Fraction(1, 2), (y, x))]
    assert all(isinstance(c, Terms) for c in ar.coeffs + aa.coeffs)
