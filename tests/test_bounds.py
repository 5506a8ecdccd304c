"""Every reported ``tail_bound`` is honest.

On a seeded grid of linear specs (sigma = +-1, no harmonic factor or one of
order 1..4, one to three denominator factors, shifts far out and near 0),
the value at P bits must lie within its ``tail_bound`` of the value at
P + 160 bits; and so on a second grid of products of two and of three
harmonic factors, whose tails sum the nested levels of the stuffle product.  The first grid
holds the poles of 0 and 10^-6 together, whose partial fractions cancel
about 100 bits; and some specs at 192 bits have
tail values at N + 1/2 that the asymptotic series alone cannot reach, so
their batch runs a direct head.  At 1024 bits the batches at N + 1/2 ask
their higher exponents at the lower precisions of their tiers.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp

import tsum.series as series
import tsum.special as special
from tsum.series import SpecError, SumSpec, euler_t_sum

SHIFTS = tuple(map(Fraction, ("101/3", "-47/3", "200/7", "1/1000000", "0", "1/2",
                              "1/4", "-1/3", "3/5", "7/2")))
CASES = 40


def _grid(seed: int = 20221):
    rng = random.Random(seed)
    specs = []
    while len(specs) < CASES:
        k = rng.randint(1, 3)
        sigma = (1, -1)[len(specs) % 2]
        p = rng.choice((None, 1, 2, 3, 4))
        try:
            spec = SumSpec(p=() if p is None else (p,), q=tuple(rng.randint(1, 3) for _ in range(k)),
                           a=tuple(rng.sample(SHIFTS, k)), sigma=sigma,
                           harmonic_offset=rng.choice(("cur", "prev")))
        except SpecError:
            continue
        specs.append(spec)
    return specs


def _ratio(spec: SumSpec, prec: int):
    res = euler_t_sum(spec, prec)
    ref = euler_t_sum(spec, prec + 160)
    with mp.workprec(prec + 200):
        return abs(res.value - ref.value) / res.tail_bound


@pytest.mark.parametrize("prec", [64, 192, 1024])
def test_tail_bound_holds_on_seeded_grid(prec, monkeypatch):
    heads, tiers = [], set()
    head_length, batch = special._head_length, series.tail_zeta_batch

    def spy(sigma, s, x, bits):
        heads.append(head_length(sigma, s, x, bits))
        return heads[-1]

    def batch_spy(sigma, ss, x, bits):
        tiers.add(bits)
        return batch(sigma, ss, x, bits)

    # fresh tail values, so every batch of this test runs
    monkeypatch.setattr(special, "_zeta_cache", {})
    monkeypatch.setattr(special, "_head_length", spy)
    monkeypatch.setattr(series, "tail_zeta_batch", batch_spy)
    specs = _grid()
    assert {s.sigma for s in specs} == {1, -1} and {len(s.q) for s in specs} == {1, 2, 3}
    assert set(SHIFTS[:4]) <= {a for s in specs for a in s.a}
    assert any({SHIFTS[3], SHIFTS[4]} <= set(s.a) for s in specs)  # 10^-6 next to 0
    worst = max(_ratio(spec, prec) for spec in specs)
    assert worst <= 1
    if prec == 192:
        assert any(heads)
    # below 512 bits a batch has one tier, the working precision; at 1024
    # bits the batches at N + 1/2 run in tiers below it too
    assert (min(tiers) < prec) == (prec == 1024)


def _product_grid(seed: int = 2026):
    """Products of two harmonic factors of orders 1..4, equal and not, then
    of three, two or three of them equal or none, sigma = +-1, both offsets,
    one to three denominator factors over ``SHIFTS``."""
    rng = random.Random(seed)
    specs = []
    for r, cases in PRODUCT_CASES.items():
        count = 0
        while count < cases:
            k = rng.randint(1, 3)
            p1 = rng.randint(1, 4)
            p = (p1,) * r if count % 3 == 0 else (p1, *(rng.randint(1, 4) for _ in range(r - 1)))
            try:
                spec = SumSpec(p=p, q=tuple(rng.randint(1, 3) for _ in range(k)),
                               a=tuple(rng.sample(SHIFTS, k)), sigma=(1, -1)[count % 2],
                               harmonic_offset=rng.choice(("cur", "prev")))
            except SpecError:
                continue
            specs.append(spec)
            count += 1
    return specs


PRODUCT_CASES = {2: 40, 3: 30}  # specs per number of harmonic factors


@pytest.mark.parametrize("prec", [64, 192])
def test_tail_bound_holds_for_two_harmonic_factors(prec, monkeypatch):
    monkeypatch.setattr(special, "_zeta_cache", {})
    specs = _product_grid()
    assert {s.sigma for s in specs} == {1, -1} and {s.offset for s in specs} == {0, 1}
    assert {len(s.p) for s in specs} == {2, 3}
    assert {len(set(s.p)) for s in specs if len(s.p) == 3} == {1, 2, 3}
    assert {s.p[0] == s.p[1] for s in specs if len(s.p) == 2} == {True, False}
    assert {len(s.q) for s in specs} == {1, 2, 3}
    assert set(SHIFTS[:4]) <= {a for s in specs for a in s.a}
    worst = max(_ratio(spec, prec) for spec in specs)
    assert worst <= 1
