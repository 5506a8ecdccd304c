import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

import tsum.reductions
from tsum.numeric import real_const
from tsum.series import double_t
from tsum.reductions import (
    FAMILIES,
    ReductionDomainError,
    Symbol,
    SymbolicExpr,
    eval_symbolic,
    normalize_to_zeta,
    reduce_t_bar_odd,
    reduce_t_even_odd,
    reduce_T_even_odd,
    reduce_T_odd_even,
)
from tsum.special import riemann_zeta

P = 192
F = Fraction


def test_worked_examples_have_the_expected_terms():
    assert reduce_t_even_odd(1, 0).to_text() == "1 * t(2) * log2 + -1/2 * t(3)"
    assert reduce_t_even_odd(1, 1).to_text() == \
        "-3/8 * zeta(3) * t(2) + 1 * t(2) * t(3) + -1/2 * t(5)"
    assert reduce_T_even_odd(1, 0).to_text() == "1 * T(3)"
    assert reduce_T_odd_even(1, 1).to_text() == \
        "1 * zeta(2) * T(3) + 1 * T(2) * T(3) + -4 * T(5)"
    assert reduce_t_bar_odd(0, 0).to_text() == "1/2 * tbar(1) * log2 + -1/2 * tbar(2)"


def test_domain_violations_rejected():
    with pytest.raises(ReductionDomainError):
        FAMILIES["t_odd_even"].reduce(0, 1)
    with pytest.raises(ReductionDomainError):
        FAMILIES["T_bar_odd"].reduce(1, 0)
    with pytest.raises(ReductionDomainError):
        reduce_t_even_odd(0, 3)
    for name, fam in FAMILIES.items():
        for j, m in ((fam.jmin - 1, fam.mmin), (fam.jmin, fam.mmin - 1)):
            with pytest.raises(ReductionDomainError) as info:
                fam.reduce(j, m)
            assert str(info.value) == f"{name} requires j >= {fam.jmin}, m >= {fam.mmin}"


def test_weight_homogeneity_everywhere():
    for name, fam in FAMILIES.items():
        for j, m in fam.pairs_up_to_weight(11):
            expr = fam.reduce(j, m)
            assert expr.weights() == {fam.weight(j, m)}, (name, j, m)


def test_divergent_symbols_never_survive():
    banned = {Symbol("zeta", 1), Symbol("t", 1), Symbol("zetabar", 1)}
    for fam in FAMILIES.values():
        for j, m in fam.pairs_up_to_weight(11):
            for mono, _ in fam.reduce(j, m):
                assert not banned & set(mono)


def test_eval_symbolic_single_T3():
    e = SymbolicExpr().add(1, [Symbol("T", 3)])
    with mp.workprec(P + 16):
        assert abs(eval_symbolic(e, P) - mpf(7) / 4 * riemann_zeta(3, P + 16)) < mpf(2) ** -180


def test_eval_symbolic_log2_monomial():
    e = SymbolicExpr().add(F(1, 2), [Symbol("log2"), Symbol("t", 2)])
    with mp.workprec(P + 16):
        pi = real_const("pi", P + 16)
        want = real_const("log2", P + 16) * pi * pi / 16
        assert abs(eval_symbolic(e, P) - want) < mpf(2) ** -180


@pytest.mark.parametrize("j", [30, 60, 100])
def test_high_weight_reduction_keeps_every_digit(j):
    # t(2j, 1) cancels about 1.6 bits per unit of weight; at j = 100 a fixed
    # 16-bit guard left no correct digit
    value = eval_symbolic(reduce_t_even_odd(j, 0), P)
    oracle = double_t(2 * j, 1, False, P + 64).value
    with mp.workprec(P + 64):
        assert abs(value - oracle) <= abs(oracle) * mpf(2) ** -188


def test_eval_symbolic_of_zero_raises_promptly():
    e = SymbolicExpr().add(1, [Symbol("zeta", 2)]).add(F(-1, 6), [Symbol("pi"), Symbol("pi")])
    t0 = time.perf_counter()
    with pytest.raises(ArithmeticError):
        eval_symbolic(e, P)
    assert time.perf_counter() - t0 < 5


def test_symbols_of_one_kernel_value_cancel_exactly():
    # T(3) = 2 t(3) and pi = -4 tbar(1) are each one kernel value
    for e in (SymbolicExpr().add(1, [Symbol("T", 3)]).add(-2, [Symbol("t", 3)]),
              SymbolicExpr().add(1, [Symbol("pi")]).add(4, [Symbol("tbar", 1)])):
        assert len(e.terms) == 2
        assert eval_symbolic(e, P) == 0


def test_eval_symbolic_is_one_kernel_sum(monkeypatch):
    calls = []
    kernel_sums = tsum.reductions.kernel_sums

    def spy(sums, *args):
        calls.append(len(sums))
        return kernel_sums(sums, *args)

    monkeypatch.setattr(tsum.reductions, "kernel_sums", spy)
    for fam in FAMILIES.values():
        for j, m in fam.pairs_up_to_weight(9):
            calls.clear()
            eval_symbolic(fam.reduce(j, m), P)
            assert calls == [1], (fam.name, j, m)


def test_normalize_to_zeta():
    e = SymbolicExpr().add(1, [Symbol("t", 2)])
    n = normalize_to_zeta(e)
    assert n.terms == {(Symbol("zeta", 2),): F(3, 4)}
    e = SymbolicExpr().add(1, [Symbol("T", 3)])
    assert normalize_to_zeta(e).terms == {(Symbol("zeta", 3),): F(7, 4)}
    # tbar/Tbar symbols stay primitive
    e = SymbolicExpr().add(2, [Symbol("Tbar", 2)])
    assert normalize_to_zeta(e).terms == e.terms


def test_normalize_idempotent_and_value_preserving():
    rng = random.Random(11)
    pool = [(fam, j, m) for fam in FAMILIES.values()
            for (j, m) in fam.pairs_up_to_weight(9)]
    with mp.workprec(P + 16):
        for fam, j, m in rng.sample(pool, 30):
            expr = fam.reduce(j, m)
            once = normalize_to_zeta(expr)
            assert normalize_to_zeta(once) == once
            assert abs(eval_symbolic(expr, P) - eval_symbolic(once, P)) < mpf(2) ** -170


def test_low_weight_reductions_match_oracles():
    with mp.workprec(P + 16):
        for name in ("t_even_odd", "t_bar_even", "T_odd_even", "T_bar_odd"):
            fam = FAMILIES[name]
            j, m = fam.jmin, fam.mmin
            gap = abs(eval_symbolic(fam.reduce(j, m), P) - fam.oracle(j, m, P).value)
            assert gap < mpf(10) ** -40, name


def test_serialization_roundtrip_record():
    expr = reduce_t_even_odd(1, 1)
    rec = expr.to_record()
    assert rec["terms"][0]["coeff"] == "-3/8"
    kinds = {s["kind"] for t in rec["terms"] for s in t["symbols"]}
    assert kinds == {"zeta", "t"}


symbol_strategy = st.sampled_from([
    Symbol("zeta", 2), Symbol("zeta", 3), Symbol("t", 2), Symbol("tbar", 1),
    Symbol("T", 3), Symbol("Tbar", 2), Symbol("log2"), Symbol("pi"),
])
term_strategy = st.tuples(
    st.fractions(min_value=-5, max_value=5).filter(lambda f: f != 0),
    st.lists(symbol_strategy, min_size=1, max_size=2),
)


@given(st.lists(term_strategy, min_size=1, max_size=8), st.randoms())
def test_canonical_form_is_order_independent(terms, rng):
    a = SymbolicExpr()
    for coeff, syms in terms:
        a.add(coeff, syms)
    shuffled = list(terms)
    rng.shuffle(shuffled)
    b = SymbolicExpr()
    for coeff, syms in shuffled:
        b.add(coeff, syms)
    assert a == b
    assert a.to_text() == b.to_text()
