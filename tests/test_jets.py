from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tsum.jets import JetError, jet_from_coeffs, jet_mul, jet_residue
from tsum.special import Terms


def test_mul_matches_hand_product():
    a = jet_from_coeffs(0, [1, 1, 0], 64)
    b = jet_from_coeffs(0, [1, -1, 0], 64)
    assert [int(c) for c in jet_mul(a, b).coeffs] == [1, 0, -1]


def test_residue_reads_the_minus_one_power():
    simple = jet_from_coeffs(0, [5, 0, 0], 64, pole_order=1)
    assert jet_residue(simple) == 5
    double = jet_from_coeffs(0, [3, 7, 0], 64, pole_order=2)
    assert jet_residue(double) == 7


def test_residue_of_partial_fraction_product():
    # 1/(z(z-1)) = -1/z - 1 - z - z^2 - ... at 0; residue is -1
    jet = jet_from_coeffs(0, [-1, -1, -1, -1], 64, pole_order=1)
    assert jet_residue(jet) == -1


coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=7)


@given(coeff_lists, coeff_lists)
def test_mul_equals_exact_convolution(xs, ys):
    K = max(len(xs), len(ys)) - 1
    xs = xs + [0] * (K + 1 - len(xs))
    ys = ys + [0] * (K + 1 - len(ys))
    a = jet_from_coeffs(Fraction(1, 3), xs, 96)
    b = jet_from_coeffs(Fraction(1, 3), ys, 96)
    got = jet_mul(a, b).coeffs
    for k in range(K + 1):
        want = sum(xs[i] * ys[k - i] for i in range(k + 1))
        assert got[k] == want  # integer products are exact in mpf at this size


def test_mul_adds_pole_orders():
    a = jet_from_coeffs(0, [1, 0, 0], 64, pole_order=1)
    b = jet_from_coeffs(0, [1, 1, 1], 64, pole_order=2)
    assert jet_mul(a, b).pole_order == 3


def test_mismatched_operands_rejected():
    a = jet_from_coeffs(0, [1, 2], 64)
    with pytest.raises(JetError):
        jet_mul(a, jet_from_coeffs(0, [1, 2, 3], 64))
    with pytest.raises(JetError):
        jet_mul(a, jet_from_coeffs(1, [1, 2], 64))


def test_residue_requires_pole_and_sufficient_order():
    with pytest.raises(JetError):
        jet_residue(jet_from_coeffs(0, [1, 2], 64))
    with pytest.raises(JetError):
        jet_residue(jet_from_coeffs(0, [1], 64, pole_order=3))


def test_mul_of_exact_jets_multiplies_terms_out():
    # kernel terms (c, keys) times terms or rationals, in order of i, unrounded
    x, y, base = (1, 2, Fraction(1, 3)), (-1, 1, Fraction(1, 2)), Fraction(1, 3)
    a = jet_from_coeffs(base, [Terms([(1, (x,))]), Terms([(2, ()), (Fraction(1, 2), (y,))])],
                        None, pole_order=1)
    r = jet_from_coeffs(base, [Fraction(3), Fraction(-1)], None, pole_order=2)
    ar, aa = jet_mul(a, r), jet_mul(a, a)
    assert (ar.pole_order, ar.prec, ar.base_point) == (3, None, base)
    assert ar.coeffs == ([(3, (x,))], [(-1, (x,)), (6, ()), (Fraction(3, 2), (y,))])
    assert aa.pole_order == 2
    assert aa.coeffs[1] == [(2, (x,)), (Fraction(1, 2), (x, y)), (2, (x,)), (Fraction(1, 2), (y, x))]
    assert all(isinstance(c, Terms) for c in ar.coeffs + aa.coeffs)


def test_rounded_and_exact_jets_do_not_multiply():
    with pytest.raises(JetError):
        jet_mul(jet_from_coeffs(0, [1, 2], 64), jet_from_coeffs(0, [Fraction(1), Fraction(2)], None))
