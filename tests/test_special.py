import dataclasses
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, from_rational, mpf_div, round_nearest

import tsum.special as special
from tsum.numeric import bernoulli
from tsum.series import _pick_truncation
from tsum.special import (
    DomainError,
    KernelKind,
    alt_hurwitz_zeta,
    alt_zeta,
    digamma,
    hurwitz_zeta,
    kernel_jet,
    kernel_sums,
    psi_jet,
    riemann_zeta,
    single_t,
    single_t_bar,
    single_T,
    single_T_bar,
    tail_zeta_batch,
    ttilde,
    ttilde_bar,
    zeta_terms,
)

P = 192
TIGHT = mpf(2) ** -180

# reference digits (independent evaluations, frozen)
ZETA3 = "1.2020569031595942853997381615114499907649862923405"
ALTZETA3 = "0.90154267736969571404980362113358749307373971925537"
CATALAN = "0.91596559417721901505460351493238411077414937428167"
PSI_THIRD = "-3.1320337800208063229964190742872688541554282967204"
HURWITZ_3_QUARTER = "64.663869968768460166668983589421994943644904751419"
ALT_HURWITZ_2_THIRD = "8.5636594207477353767983454832546737839025565740943"


def _gap(a, b, wp=256):
    with mp.workprec(wp):
        return abs(mpf(a) - mpf(b))


def _close(a, digits, tol=mpf(10) ** -45):
    with mp.workprec(256):
        return abs(mpf(a) - mpf(digits)) < tol


def _assert_ulps(values, refs, prec):
    """Each value within 1 ulp at ``prec`` of its reference; a value of
    exactly 0 needs a reference below 2^-(prec + 100)."""
    for i, (value, ref) in enumerate(zip(values, refs)):
        with mp.workprec(4000):
            if value == 0:
                assert abs(ref) < mpf(2) ** -(prec + 100), (i, ref)
                continue
            ulp = mpf(2) ** (value.man.bit_length() + value.exp - prec)
            assert abs(value - ref) <= ulp, (i, value, abs(value - ref) / ulp)


def _accel_point(prec, sigma):
    """x = N + 1/2, the working precision and the truncation W that
    accel_linear_sum picks at ``prec`` and ``sigma`` for poles within 1 of
    the origin."""
    wp = prec + 48
    N = max(128, math.ceil(0.55 * wp))
    return Fraction(2 * N + 1, 2), wp, _pick_truncation(sigma, wp, N, 1.0, 1)


class TestTailZetaBatch:
    """Batched tail values against the per-value engines at 160 more bits."""

    @staticmethod
    def _check(sigma, ss, x, wp):
        batch = tail_zeta_batch(sigma, ss, x, wp)
        one = hurwitz_zeta if sigma == 1 else alt_hurwitz_zeta
        for s, value in zip(ss, batch):
            ref = one(s, x, wp + 160)
            ulp = mpf(2) ** (value.man.bit_length() + value.exp - wp)
            with mp.workprec(wp + 200):
                assert abs(value - ref) <= ulp, (sigma, s, x, wp)
        return batch

    def test_values_round_as_the_rational_they_are(self, monkeypatch):
        # a value is v 2^-F den^(s-1) / num^(s-1), divided with 2^-F as the
        # exponent of an mpf: the mpf from_rational gives with q 2^F as the divisor
        rng = random.Random(2031)
        points = [(sigma, Fraction(1207, 2), 1120, list(range(3 - sigma, 271)))
                  for sigma in (1, -1)]  # the tail batches of pair-1024
        while len(points) < 14:
            x = Fraction(rng.randint(-400, 400), rng.randint(2, 9))
            if x > 0 or x.denominator > 1:
                points.append((rng.choice((1, -1)), x, rng.choice((64, 192, 1120)),
                               sorted(rng.sample(range(2, 60), 6))))
        for sigma, x, prec, ss in points:
            monkeypatch.setattr(special, "_zeta_cache", {})
            got = tail_zeta_batch(sigma, ss, x, prec)
            num, den = x.numerator, x.denominator
            F = prec + 64 + (2 * num // den + 1).bit_length() + max(ss).bit_length()
            for s, v, z in zip(ss, special._fixed_sums(sigma, ss, x, F), got):
                p, q = v * den ** (s - 1), num ** (s - 1)
                want = from_rational(p, q << F, prec, round_nearest)
                assert mpf_div(from_man_exp(p, -F), from_int(q), prec, round_nearest) == want
                if abs(v).bit_length() >= prec + 56:  # kept at the first F
                    assert z._mpf_ == want, (sigma, s, x, prec)

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("prec, step", [(64, 1), (192, 1), (1024, 9)])
    def test_accelerated_points(self, sigma, prec, step):
        x, wp, W = _accel_point(prec, sigma)
        self._check(sigma, list(range(2, W + 6, step)), x, wp)

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_high_exponents_far_out(self, sigma, monkeypatch):
        # a coefficient table scaled only by 2^-wp silently truncated here
        monkeypatch.setattr(special, "_zeta_cache", {})
        ss = list(range(318, 330))
        batch = self._check(sigma, ss, Fraction(1207, 2), 1096)
        monkeypatch.setattr(special, "_zeta_cache", {})
        assert [tail_zeta_batch(sigma, [s], Fraction(1207, 2), 1096)[0] for s in ss] == batch

    @pytest.mark.parametrize("x", [Fraction(265, 2), Fraction(269, 2)])
    def test_shared_head(self, x, monkeypatch):
        heads = []
        head_length = special._head_length

        def spy(*args):
            heads.append(head_length(*args))
            return heads[-1]

        monkeypatch.setattr(special, "_zeta_cache", {})
        monkeypatch.setattr(special, "_head_length", spy)
        ss = list(range(2, 101))
        batch = self._check(-1, ss, x, 240)
        assert heads[0] > 0
        monkeypatch.setattr(special, "_zeta_cache", {})
        assert [tail_zeta_batch(-1, [s], x, 240)[0] for s in ss[::7]] == batch[::7]

    @staticmethod
    def _one_at_a_time(sigma, ss, x, wp, monkeypatch):
        """The batch and the values one exponent at a time, each from an
        empty cache; the second list runs every exponent as its own top."""
        monkeypatch.setattr(special, "_zeta_cache", {})
        batch = tail_zeta_batch(sigma, ss, x, wp)
        monkeypatch.setattr(special, "_zeta_cache", {})
        return batch, [tail_zeta_batch(sigma, [s], x, wp)[0] for s in ss]

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("prec", [192, 1024])
    def test_walk_matches_one_exponent_at_a_time(self, sigma, prec, monkeypatch):
        x, wp, W = _accel_point(prec, sigma)
        batch, single = self._one_at_a_time(sigma, list(range(2, W + 6)), x, wp, monkeypatch)
        assert batch == single

    def test_walk_under_a_shared_head(self, monkeypatch):
        heads = []
        head_length = special._head_length
        monkeypatch.setattr(special, "_head_length",
                            lambda *args: heads.append(head_length(*args)) or heads[-1])
        batch, single = self._one_at_a_time(-1, list(range(1, 101)), Fraction(265, 2), 240,
                                            monkeypatch)
        assert heads[0] > 0
        assert batch == single

    @pytest.mark.parametrize("sigma, s, x", [
        (1, 3, Fraction(-495715676913038394103902059399, 10 ** 30)),
        (-1, 2, Fraction(-510662050514297988828484780952, 10 ** 30)),
    ])
    def test_walk_through_a_second_pass(self, sigma, s, x, monkeypatch):
        # next to a zero at negative x the value of s falls short of prec + 56
        # bits, and _zeta_batch sums it again with F raised
        calls = []
        fixed_sums = special._fixed_sums

        def spy(sigma, ss, *rest):
            calls.append(ss)
            return fixed_sums(sigma, ss, *rest)

        monkeypatch.setattr(special, "_fixed_sums", spy)
        ss = list(range(2 if sigma == 1 else 1, 13))
        batch, single = self._one_at_a_time(sigma, ss, x, 192, monkeypatch)
        assert calls[1] == [s]
        assert batch == single

    @pytest.mark.parametrize("sigma, Y, D, F, ss", [
        (1, 265, 2, 330, [2, 3, 4, 9, 40]),
        (-1, 265, 2, 330, [1, 2, 3, 17, 41]),
        (1, 1207, 2, 1180, [2, 3, 100, 263, 264, 265]),
        (-1, 1207, 2, 1180, [1, 2, 150, 264, 265]),
        (-1, 2001, 7, 200, [5, 6, 30]),
    ])
    def test_walk_error_budget(self, sigma, Y, D, F, ss, monkeypatch):
        # each value within K (t - s + 2) + 2 units of the exact truncated
        # series, K the length of the top exponent's table: a fresh
        # coefficient table holds one entry past it
        monkeypatch.setattr(special, "_coeff_tables", {sigma: [0, []]})
        values = special._scaled_tails(sigma, ss, Y, D, F)
        K, t, y = len(special._coeff_tables[sigma][1]) - 1, ss[-1], Fraction(Y, D)
        for s, v in zip(ss, values):
            exact = 1 / (2 * y) + (Fraction(1, s - 1) if sigma == 1 else 0)
            rise = Fraction(s) / y ** 2  # (s)_(2k-1) y^(-2k)
            for k in range(1, K + 1):
                c = abs(bernoulli(2 * k)) / math.factorial(2 * k)
                exact += (-1) ** (k - 1) * c * (1 if sigma == 1 else 4 ** k - 1) * rise
                rise *= Fraction((s + 2 * k - 1) * (s + 2 * k)) / y ** 2
            assert abs(v - exact * 2 ** F) <= K * (t - s + 2) + 2, (s, v - exact * 2 ** F)

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("G", [512, 1280, 4352])
    def test_coefficients_across_the_crossover(self, sigma, G):
        # exact floors of c_k 2^e up to k0, then the zeta(2k) route within one
        # unit of the exact floor
        k0 = (G + 8) // 8
        source = special._coefficients(sigma, G)
        for k in range(1, k0 + 41):
            m, e = next(source)
            if k < k0 - 8:
                continue
            c = abs(bernoulli(2 * k)) / math.factorial(2 * k) * (1 if sigma == 1 else 4 ** k - 1)
            exact = (c.numerator << e) // c.denominator
            assert m.bit_length() in (G + 8, G + 9), k
            assert m == exact if k <= k0 else abs(m - exact) <= 1, (k, m - exact)

    @pytest.mark.parametrize("x, F, ss", [(Fraction(7, 3), 200, range(1, 41)),
                                          (Fraction(801, 2), 1180, range(3, 267))])
    def test_walked_head_error_budget(self, x, F, ss, monkeypatch):
        # a sigma = -1 batch sharing one head, with the tail table replaced by
        # 0 and then by 2^F: the first returns the walked head alone, the
        # difference the walked ratio (x/y)^(s-1); each head term and the ratio
        # may err by under s - s0 + 1 units, s0 the first exponent of the head
        seen, tail = [], [0]
        monkeypatch.setattr(special, "_scaled_tails", lambda sigma, ss, Y, D, F: seen.append(
            (ss, Y)) or [tail[0]] * len(ss))
        ss = list(ss)
        heads = special._fixed_sums(-1, ss, x, F)
        tail[0] = 1 << F
        ratios = [b - a for a, b in zip(heads, special._fixed_sums(-1, ss, x, F))]
        (rest, Y), num, den = seen[0], x.numerator, x.denominator
        n, s0 = (Y - num) // den, rest[0]
        assert n > 0 and len(rest) > 30
        for s in rest[::len(rest) // 20] + rest[-1:]:
            # the exact head to within n 2^-64 units: each term floored 64 bits finer
            top = den * num ** (s - 1) << F + 64
            exact = sum((-1) ** j * (top // (num + j * den) ** s) for j in range(n))
            i = ss.index(s)
            assert abs((heads[i] << 64) - exact) + n < n * (s - s0 + 1) << 64, s
            assert abs((-1) ** n * ratios[i] - Fraction(num, Y) ** (s - 1) * 2 ** F) < s - s0 + 1, s

    def test_series_past_its_smallest_term_raises(self):
        # at y = 1 no term of the series for s = 2 falls below 2^-200
        with pytest.raises(ArithmeticError):
            special._scaled_tails(1, [2], 1, 1, 200)

    def test_domain(self):
        for args in ((1, [1], 3), (-1, [2], 0), (0, [2], 3), (1, [2.5], Fraction(1, 3)),
                     (-1, [1.0], Fraction(1, 3))):
            with pytest.raises(DomainError):
                tail_zeta_batch(*args, 64)
        for call in (hurwitz_zeta, alt_hurwitz_zeta):
            with pytest.raises(DomainError, match="integer"):
                call(2.5, Fraction(1, 3), 64)

    def test_sigma_is_an_integer(self):
        # 1.0 passed the sigma = +-1 test and died in the fixed-point sums
        # with a bare TypeError from >>
        for sigma in (1.0, -1.0, mpf(1), Fraction(1)):
            with pytest.raises(DomainError, match="integer"):
                tail_zeta_batch(sigma, [2], 1, 64)

    def test_a_range_is_checked_once_at_its_least_item(self):
        # a range is ints by construction: its least item decides the domain,
        # in either direction; any other iterable is still checked per item
        x = Fraction(7, 2)
        for sigma, ss in ((1, range(1, 9)), (1, range(9, 0, -1)), (-1, range(0, 4)),
                          (-1, range(5, -2, -3)), (2, range(2, 5))):
            with pytest.raises(DomainError):
                tail_zeta_batch(sigma, ss, x, 64)
        for sigma, ss in ((1, range(2, 9)), (1, range(9, 1, -2)), (1, range(2, 9, 3)),
                          (-1, range(1, 6))):
            assert tail_zeta_batch(sigma, ss, x, 64) == tail_zeta_batch(sigma, list(ss), x, 64)
        assert tail_zeta_batch(1, range(3, 3), x, 64) == []
        for ss in ([2, 2.5, 3], [3, "2"], (s for s in (2, 2.5)), [2, mpf(3)]):
            with pytest.raises(DomainError, match="integer"):
                tail_zeta_batch(1, ss, x, 64)


class TestRiemannZeta:
    def test_classical_even_values(self):
        with mp.workprec(P + 16):
            pi = +mp.pi
            assert _gap(_value(riemann_zeta(2), P), pi ** 2 / 6) < TIGHT
            assert _gap(_value(riemann_zeta(4), P), pi ** 4 / 90) < TIGHT

    def test_zeta3_reference(self):
        assert _close(_value(riemann_zeta(3), P), ZETA3)

    def test_zeta3_direct_summation_bracket(self):
        # integral bounds give sum_{n<=N} + 1/(2(N+1)^2) < zeta(3) < sum + 1/(2N^2)
        N = 2000
        with mp.workprec(96):
            head = sum(mpf(n) ** -3 for n in range(1, N + 1))
            z = _value(riemann_zeta(3), 96)
            assert head + mpf(1) / (2 * (N + 1) ** 2) < z < head + mpf(1) / (2 * N ** 2)

    def test_one_is_an_error(self):
        with pytest.raises(DomainError):
            riemann_zeta(1)


class TestHurwitz:
    def test_reduces_to_riemann_at_one(self):
        assert _gap(hurwitz_zeta(2, 1, P), _value(riemann_zeta(2), P)) == 0

    def test_half_shift_value(self):
        with mp.workprec(P + 16):
            pi = +mp.pi
            assert _gap(hurwitz_zeta(2, Fraction(1, 2), P), pi * pi / 2) < TIGHT

    def test_quarter_shift_reference(self):
        v = hurwitz_zeta(3, Fraction(1, 4), P)
        assert _close(v, HURWITZ_3_QUARTER)
        # leading 4^3 term plus a tail below 1
        assert 64 < v < 65
        with mp.workprec(P + 16):
            assert abs(v - 64 - hurwitz_zeta(3, Fraction(5, 4), P)) < TIGHT

    def test_shift_identity(self):
        for s, a in ((2, Fraction(1, 3)), (3, Fraction(2, 7)), (5, Fraction(3, 4))):
            lhs = hurwitz_zeta(s, a, P)
            with mp.workprec(P + 16):
                rhs = mpf(a.numerator) ** -s * mpf(a.denominator) ** s \
                    + hurwitz_zeta(s, a + 1, P + 16)
                assert _gap(lhs, rhs) < TIGHT

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1, Fraction(1, 2), P)
        with pytest.raises(DomainError):
            hurwitz_zeta(2, Fraction(-3), P)

    def test_negative_shift_reading(self):
        # zeta(s; x) at negative rational x; (-1/5)^(-2) = 25
        with mp.workprec(P + 16):
            want = mpf(25) + hurwitz_zeta(2, Fraction(4, 5), P + 16)
            assert _gap(hurwitz_zeta(2, Fraction(-1, 5), P), want) < TIGHT
        with pytest.raises(DomainError):
            hurwitz_zeta(2, Fraction(-3), P)


class TestDigamma:
    def test_at_one_is_minus_gamma(self):
        with mp.workprec(P + 16):
            assert abs(digamma(1, P) + mp.euler) < TIGHT

    def test_at_half(self):
        with mp.workprec(P + 16):
            want = -mp.euler - 2 * mp.ln2
            assert _gap(digamma(Fraction(1, 2), P), want) < TIGHT

    def test_at_quarter_closed_form(self):
        with mp.workprec(P + 16):
            want = -mp.euler - mp.pi / 2 - 3 * mp.ln2
            assert _gap(digamma(Fraction(1, 4), P), want) < TIGHT

    def test_at_third_reference(self):
        assert _close(digamma(Fraction(1, 3), P), PSI_THIRD)

    def test_negative_argument_recurrence(self):
        with mp.workprec(P + 16):
            want = digamma(Fraction(4, 5), P + 16) + mpf(5)
            assert _gap(digamma(Fraction(-1, 5), P), want) < TIGHT

    def test_zeta1_convention_next_to_its_zero(self):
        # psi(1/2) - psi(1/2 + 1e-30) cancels about 100 bits
        a = Fraction(1, 2) + Fraction(1, 10 ** 30)
        with mp.workprec(400):
            want = mp.digamma(0.5) - mp.digamma(mpf(a.numerator) / a.denominator)
        _assert_ulps([_zeta1(a, 64)], [want], 64)

    def test_zeta1_convention(self):
        assert _gap(_zeta1(Fraction(1, 2), P), 0) == 0
        with mp.workprec(P + 16):
            assert _gap(_zeta1(1, P), -2 * mp.ln2) < TIGHT
            want = digamma(Fraction(1, 2), P + 16) - digamma(Fraction(1, 3), P + 16)
            assert _gap(_zeta1(Fraction(1, 3), P), want) < TIGHT
        with pytest.raises(DomainError):
            _zeta1(0, P)


class TestAlternating:
    def test_alt_zeta_one_is_log2(self):
        # K_-1(1; 1) is mpmath's log 2, bit for bit
        for prec in (P, 64, 96, 1024):
            with mp.workprec(prec):
                assert _value(alt_zeta(1), prec) == +mp.ln2, prec

    def test_alt_zeta_reference(self):
        assert _close(_value(alt_zeta(3), P), ALTZETA3)

    def test_functional_relation_cross_check(self):
        # zetabar(s) = (1 - 2^(1-s)) zeta(s); evaluation path is independent
        tol = mpf(2) ** (12 - P)
        for s in (2, 3, 4, 5, 6):
            with mp.workprec(P + 16):
                want = (1 - mpf(2) ** (1 - s)) * _value(riemann_zeta(s), P + 16)
                assert _gap(_value(alt_zeta(s), P), want) < tol

    def test_alt_hurwitz_values(self):
        with mp.workprec(P + 16):
            pi = +mp.pi
            assert _gap(alt_hurwitz_zeta(1, 1, P), mp.ln2) < TIGHT
            assert _gap(alt_hurwitz_zeta(2, 1, P), pi * pi / 12) < TIGHT
        assert _close(alt_hurwitz_zeta(2, Fraction(1, 3), P), ALT_HURWITZ_2_THIRD)

    def test_alt_hurwitz_paired_summation_oracle(self):
        # direct pairing of consecutive terms; pair tail ~ 1/(4K^2)
        a = Fraction(1, 3)
        with mp.workprec(64):
            am = mpf(1) / 3
            acc = mpf(0)
            for k in range(0, 4000, 2):
                acc += (k + am) ** -2 - (k + 1 + am) ** -2
            assert abs(alt_hurwitz_zeta(2, a, 64) - acc) < mpf(1e-7)

    def test_alt_hurwitz_shift_relation(self):
        tol = mpf(2) ** (12 - P)
        for s, a in ((1, Fraction(1, 3)), (2, Fraction(2, 5)), (4, Fraction(1, 7))):
            with mp.workprec(P + 16):
                lhs = alt_hurwitz_zeta(s, a, P + 16) + alt_hurwitz_zeta(s, a + 1, P + 16)
                want = mpf(a.denominator) ** s / mpf(a.numerator) ** s
                assert abs(lhs - want) < tol


class TestParamDigamma:
    def test_reduces_to_hurwitz(self):
        assert _gap(_psi_value(2, 1, P), _value(riemann_zeta(2), P)) == 0
        with mp.workprec(P + 16):
            want = -2 * hurwitz_zeta(3, Fraction(1, 3), P + 16)
            assert _gap(_psi_value(3, Fraction(1, 3), P), want) < TIGHT

    def test_order_one_convention(self):
        assert _psi_value(1, Fraction(1, 2), P) == 0


class TestSingleValues:
    def test_t_values(self):
        with mp.workprec(P + 16):
            pi = +mp.pi
            assert _gap(_value(single_t(2), P), pi * pi / 8) < TIGHT
            zeta3 = _value(riemann_zeta(3), P + 16)
            assert _gap(_value(single_t(3), P), mpf(7) / 8 * zeta3) < TIGHT
        with pytest.raises(DomainError):
            single_t(1)

    def test_beta_and_alternating_t(self):
        # Dirichlet beta(s) is -t_bar(s)
        with mp.workprec(P + 16):
            pi = +mp.pi
            assert _gap(_value(single_t_bar(1), P), -pi / 4) < TIGHT
            assert _gap(ttilde_bar(1, P), -pi / 2) < TIGHT
        assert _close(mp.fneg(_value(single_t_bar(2), P), exact=True), CATALAN)

    def test_depth_one_T_is_twice_t(self):
        with mp.workprec(P + 16):
            for s in (2, 3, 4):
                assert abs(_value(single_T(s), P) - 2 * _value(single_t(s), P)) < TIGHT

    # each constant, its least s, and the composition of kernel values it was
    # before it became one kernel term
    COMPOSED = [
        (riemann_zeta, 2, lambda s, p: hurwitz_zeta(s, 1, p)),
        (alt_zeta, 1, lambda s, p: alt_hurwitz_zeta(s, 1, p)),
        (single_t, 2, lambda s, p: mp.ldexp(hurwitz_zeta(s, Fraction(1, 2), p), -s)),
        (single_t_bar, 1, lambda s, p: mp.fneg(
            mp.ldexp(alt_hurwitz_zeta(s, Fraction(1, 2), p), -s), exact=True)),
        (single_T, 2, lambda s, p: mp.ldexp(hurwitz_zeta(s, Fraction(1, 2), p), 1 - s)),
        (single_T_bar, 1, lambda s, p: mp.fneg(
            mp.ldexp(alt_hurwitz_zeta(s, Fraction(1, 2), p), 1 - s), exact=True)),
    ]

    @pytest.mark.parametrize("prec", [16, 64, 96, 192, 1024])
    def test_constants_keep_their_bits(self, prec):
        for f, least, composed in self.COMPOSED:
            for s in range(least, 41):
                assert kernel_sums([f(s)], prec) == [composed(s, prec)], (f.__name__, s)

    def test_ttilde_is_hurwitz_at_half(self):
        # ttilde and the alternating ttilde, t and T are one kernel value at
        # 1/2 times +-2^k, bit for bit
        half = Fraction(1, 2)
        for s in (1, 2, 3, 4, 7):
            eta = mp.fneg(alt_hurwitz_zeta(s, half, P), exact=True)
            assert ttilde_bar(s, P) == eta
            assert _value(single_t_bar(s), P) == mp.ldexp(eta, -s)
            assert _value(single_T_bar(s), P) == mp.ldexp(eta, 1 - s)
            if s > 1:
                zeta = hurwitz_zeta(s, half, P)
                assert ttilde(s, P) == zeta
                assert _value(single_T(s), P) == mp.ldexp(zeta, 1 - s)
        assert ttilde(1, P) == 0


INTEGER_ARGUMENTS = {
    "riemann_zeta": riemann_zeta,
    "alt_zeta": alt_zeta,
    "single_t": single_t,
    "single_t_bar": single_t_bar,
    "single_T": single_T,
    "single_T_bar": single_T_bar,
    "psi_jet-p": lambda v: psi_jet(v, Fraction(1, 3), 1),
    "psi_jet-order": lambda v: psi_jet(1, Fraction(1, 3), v),
    "kernel_jet-order": lambda v: kernel_jet(KernelKind.PI_TAN, Fraction(1, 3), v),
    "bernoulli": bernoulli,
}


@pytest.mark.parametrize("value", [2.5, 4.0, Fraction(7, 2)])
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_anything_else(name, value):
    # a float or a Fraction raised AttributeError or TypeError, or (bernoulli)
    # gave 0 for an odd-looking index
    with pytest.raises(DomainError, match="integer"):
        INTEGER_ARGUMENTS[name](value)


def _taylor_reference(kind, base, order, wp):
    """mpmath's Taylor coefficients of the kernel at ``base``, from its own
    tan and cos at ``wp`` bits."""
    with mp.workprec(wp):
        b = mpf(base.numerator) / base.denominator
        if kind is KernelKind.PI_TAN:
            return mp.taylor(lambda z: mp.pi * mp.tan(mp.pi * z), b, order)
        return mp.taylor(lambda z: mp.pi / mp.cos(mp.pi * z), b, order)


EPS = {n: Fraction(1, 10 ** n) for n in (9, 12, 20, 25, 30, 40)}
NEAR_POLE_BASES = (Fraction(1, 2) - EPS[25], Fraction(-1, 2) + EPS[9], Fraction(3, 2) + EPS[12],
                   Fraction(-5, 2) - EPS[40])
NEAR_ZERO_BASES = (EPS[30], Fraction(-3) + EPS[20], Fraction(0), Fraction(-3))


def _rounded(jet, prec):
    """The exact jet with each coefficient rounded once at ``prec``."""
    return dataclasses.replace(jet, coeffs=tuple(kernel_sums(jet.coeffs, prec)))


def _kernel_value(kind, a, prec):
    """pi tan(pi a) or pi/cos(pi a): the order-0 jet, rounded once."""
    return kernel_sums(kernel_jet(kind, a, 0).coeffs, prec)[0]


def _psi_value(p, a, prec):
    """Psi^(p-1)(1/2 + a): the constant term of the jet at -a, rounded once."""
    return kernel_sums(psi_jet(p, -a, 0).coeffs, prec)[0]


def _value(terms, prec):
    """An exact constant, rounded once at prec."""
    return kernel_sums([terms], prec)[0]


def _zeta1(a, prec):
    """The zeta(1; a) convention psi(1/2) - psi(a), rounded once."""
    return kernel_sums([zeta_terms(1, 1, a)], prec)[0]


class TestKernels:
    def test_values(self):
        with mp.workprec(P + 16):
            pi = +mp.pi
            assert _gap(_kernel_value(KernelKind.PI_TAN, Fraction(1, 4), P), pi) < TIGHT
            assert _gap(_kernel_value(KernelKind.PI_OVER_COS, 0, P), pi) < TIGHT

    def test_tan_jet_at_origin(self):
        jet = _rounded(kernel_jet(KernelKind.PI_TAN, 0, 3), P)
        assert jet.coeffs[0] == 0 and jet.coeffs[2] == 0
        with mp.workprec(P + 16):
            assert abs(jet.coeffs[1] - 2 * ttilde(2, P + 16)) < TIGHT
            assert abs(jet.coeffs[3] - 2 * ttilde(4, P + 16)) < TIGHT

    def test_sec_jet_at_origin(self):
        jet = _rounded(kernel_jet(KernelKind.PI_OVER_COS, 0, 2), P)
        assert jet.coeffs[1] == 0
        with mp.workprec(P + 16):
            assert abs(jet.coeffs[0] + 2 * ttilde_bar(1, P + 16)) < TIGHT
            assert abs(jet.coeffs[2] + 2 * ttilde_bar(3, P + 16)) < TIGHT

    @pytest.mark.parametrize("kind,base", [
        (KernelKind.PI_TAN, Fraction(1, 5)),
        (KernelKind.PI_OVER_COS, Fraction(-2, 7)),
    ])
    def test_first_coefficient_matches_finite_difference(self, kind, base):
        jet = _rounded(kernel_jet(kind, base, 2), P)
        h = Fraction(1, 2 ** (P // 3))
        with mp.workprec(P + 64):
            fd = (_kernel_value(kind, base + h, P + 64)
                  - _kernel_value(kind, base - h, P + 64)) / (2 * mpf(2) ** -(P // 3))
            rel = abs(jet.coeffs[1] - fd) / abs(fd)
            assert rel < mpf(2) ** (-(P // 3) + 8)

    def test_jets_within_one_ulp_on_a_seeded_grid(self):
        # some bases lie closer to a pole than 2^-prec: only the exact
        # distance to it, kept in the kernel values, reaches 1 ulp there
        rng = random.Random(10)
        bases = NEAR_POLE_BASES + NEAR_ZERO_BASES + tuple(
            Fraction(rng.randint(-400, 400), rng.randint(1, 60)) for _ in range(4))
        for base in bases:
            if base.denominator == 2:
                continue
            for kind in KernelKind:
                for prec in (64, 192):
                    ref = _taylor_reference(kind, base, 4, prec + 1200)
                    _assert_ulps(_rounded(kernel_jet(kind, base, 4), prec).coeffs, ref, prec)

    def test_jets_are_exact(self):
        jets = (kernel_jet(KernelKind.PI_TAN, Fraction(1, 2), 3),
                kernel_jet(KernelKind.PI_OVER_COS, Fraction(-2, 7), 3),
                psi_jet(2, 0, 3), psi_jet(2, Fraction(1, 3), 3))
        assert [(j.base_point, j.order, j.pole_order) for j in jets] == [
            (Fraction(1, 2), 3, 1), (Fraction(-2, 7), 3, 0), (0, 3, 2), (Fraction(1, 3), 3, 0)]
        assert all(isinstance(c, special.Terms) for j in jets for c in j.coeffs)

    def test_pole_jets_have_simple_poles(self):
        jet = _rounded(kernel_jet(KernelKind.PI_TAN, Fraction(1, 2), 4), P)
        assert jet.pole_order == 1
        assert _gap(jet.coeffs[0], -1) == 0
        jet = _rounded(kernel_jet(KernelKind.PI_OVER_COS, Fraction(5, 2), 2), P)
        assert jet.pole_order == 1
        assert _gap(jet.coeffs[0], -1) == 0  # (-1)^n at n = 3, base n - 1/2
        # at every half-integer the order-0 jet is the 1/z term, not a value
        assert kernel_jet(KernelKind.PI_TAN, Fraction(3, 2), 0).pole_order == 1
        assert kernel_jet(KernelKind.PI_OVER_COS, Fraction(-5, 2), 0).pole_order == 1


class TestPsiJet:
    def test_pole_jet_at_origin(self):
        jet = _rounded(psi_jet(1, 0, 2), P)
        assert jet.pole_order == 1
        assert _gap(jet.coeffs[0], 1) == 0
        with mp.workprec(P + 16):
            assert _gap(jet.coeffs[1], 2 * mp.ln2) < TIGHT
            assert _gap(jet.coeffs[2], -_value(riemann_zeta(2), P + 16)) < TIGHT

    def test_constant_term_matches_the_kernel_values(self):
        # Psi^(p-1)(1/2 - z) at z = b is (-1)^p (p-1)! zeta(p; -b), and
        # psi(-b) - psi(1/2) at p = 1
        for p, b in ((1, Fraction(-1, 4)), (2, Fraction(-1, 3)), (3, Fraction(-2, 5))):
            jet = _rounded(psi_jet(p, b, 1), P)
            with mp.workprec(P + 16):
                want = (digamma(-b, P + 16) - digamma(Fraction(1, 2), P + 16) if p == 1 else
                        (-1) ** p * math.factorial(p - 1) * hurwitz_zeta(p, -b, P + 16))
            assert _gap(jet.coeffs[0], want) < TIGHT

    def test_first_coefficient_matches_finite_difference(self):
        p, b = 2, Fraction(-1, 4)
        jet = _rounded(psi_jet(p, b, 2), P)
        h = Fraction(1, 2 ** (P // 3))
        with mp.workprec(P + 64):
            fd = (_psi_value(p, -(b + h), P + 64)
                  - _psi_value(p, -(b - h), P + 64)) / (2 * mpf(2) ** -(P // 3))
            assert abs(jet.coeffs[1] - fd) / abs(fd) < mpf(2) ** (-(P // 3) + 8)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            psi_jet(0, Fraction(1, 3), 2)

    def test_jet_next_to_a_zero_of_its_constant_term(self):
        # psi(-z) - psi(1/2) at z = -a: the constant term psi(a) - psi(1/2)
        # is about -4.93e-30, and the z^j coefficient is -zeta(j+1; a)
        a = Fraction(1, 2) - Fraction(1, 10 ** 30)
        with mp.workprec(400):
            am = mpf(a.numerator) / a.denominator
            want = [mp.digamma(am) - mp.digamma(0.5), -mp.zeta(2, am), -mp.zeta(3, am)]
        _assert_ulps(_rounded(psi_jet(1, -a, 2), 64).coeffs, want, 64)


def _jet_reference(jet, args, order, wp):
    """mpmath's Laurent coefficients of the function of ``jet`` at ``base``,
    at ``wp`` bits, as the Taylor coefficients in h of h^pole_order f(base + h).
    The kernel comes from mpmath's own tan and cos, and at a pole
    n + 1/2 from pi tan = -cos(pi h)/(h sinc(pi h)) and
    pi/cos = -(-1)^n/(h sinc(pi h)).  Psi^(p-1)(1/2 - z) is psi^(p-1)(-z),
    less psi(1/2) at p = 1, and at a pole n >= 0 it is psi^(p-1)(1 - h)
    + sum_{j=0..n} (p-1)!/(j + h)^p, less psi(1/2) at p = 1."""
    with mp.workprec(wp):
        b = mpf(args[1].numerator) / args[1].denominator
        if jet is kernel_jet:
            kind, base = args
            if base.denominator == 2:
                sign = -1 if kind is KernelKind.PI_TAN else -(-1) ** int(base - Fraction(1, 2))
                trig = mp.cos if kind is KernelKind.PI_TAN else (lambda t: 1)
                return mp.taylor(lambda h: sign * trig(mp.pi * h) / mp.sinc(mp.pi * h), 0, order)
            trig = mp.tan if kind is KernelKind.PI_TAN else (lambda t: 1 / mp.cos(t))
            return mp.taylor(lambda z: mp.pi * trig(mp.pi * z), b, order)
        p, base = args
        half = mp.psi(0, mpf(1) / 2) if p == 1 else 0
        fac = mp.factorial(p - 1)
        if base.denominator == 1 and base >= 0:
            return mp.taylor(lambda h: fac + h ** p * (
                mp.psi(p - 1, 1 - h) + sum(fac / (j + h) ** p for j in range(1, int(base) + 1)) - half),
                0, order)
        return mp.taylor(lambda z: mp.psi(p - 1, -z) - half, b, order)


class TestExactJets:
    """The jets keep each coefficient as unrounded kernel terms, and one
    ``kernel_sums`` of such a coefficient is mpmath's Laurent coefficient
    within 1 ulp, at poles and away from them."""

    @pytest.mark.parametrize("prec", [64, 192])
    @pytest.mark.parametrize("jet, args", [
        (kernel_jet, (KernelKind.PI_TAN, Fraction(1, 3))), (kernel_jet, (KernelKind.PI_TAN, Fraction(1, 2))),
        (kernel_jet, (KernelKind.PI_TAN, Fraction(-7, 2))), (kernel_jet, (KernelKind.PI_OVER_COS, Fraction(0))),
        (kernel_jet, (KernelKind.PI_OVER_COS, Fraction(-2, 7))),
        (kernel_jet, (KernelKind.PI_OVER_COS, Fraction(5, 2)))] + [
        (psi_jet, (p, base)) for p in (1, 2, 3)
        for base in (Fraction(1, 3), Fraction(-2, 7), Fraction(-3, 2), Fraction(0), Fraction(2))])
    def test_one_kernel_sum_per_coefficient_is_the_mpmath_coefficient(self, jet, args, prec):
        exact = jet(*args, 5)
        pole = args[1].denominator == 2 if jet is kernel_jet else args[1].denominator == 1 and args[1] >= 0
        assert (exact.base_point, exact.order) == (args[1], 5)
        assert exact.pole_order == ((args[0] if jet is psi_jet else 1) if pole else 0)
        assert all(isinstance(c, special.Terms) for c in exact.coeffs)
        _assert_ulps(kernel_sums(exact.coeffs, prec), _jet_reference(jet, args, 5, prec + 160),
                     prec)


def _kernel_reference(key, wp):
    """K_sigma(s; x) from mpmath at wp bits; at sigma = +1, s = 1, -psi(x)."""
    sigma, s, x = key
    if sigma == 1 and s == 1:
        return -_mpmath_reference("digamma", 1, x, wp)
    return _mpmath_reference("hurwitz_zeta" if sigma == 1 else "alt_hurwitz_zeta", s, x, wp)


def _kernel_sum_reference(terms, wp):
    with mp.workprec(wp):
        return mp.fsum(mpf(c.numerator) / c.denominator
                       * mp.fprod(_kernel_reference(key, wp) for key in keys)
                       for c, keys in terms)


class TestKernelSums:
    KEYS = [(1, 1, Fraction(1, 3)), (1, 2, Fraction(-2, 7)), (1, 5, Fraction(7, 3)),
            (-1, 1, Fraction(1, 4)), (-1, 2, Fraction(-1, 5)), (-1, 3, Fraction(-3, 7))]

    def test_products_of_two_values_within_one_ulp(self):
        rng = random.Random(15)
        sums = [[(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)),
                  tuple(rng.choices(self.KEYS, k=2))) for _ in range(3)]
                + [(Fraction(1, 3), ()), (2, (rng.choice(self.KEYS),))] for _ in range(8)]
        for prec in (64, 192):
            refs = [_kernel_sum_reference(terms, prec + 160) for terms in sums]
            _assert_ulps(kernel_sums(sums, prec), refs, prec)

    def test_a_product_and_its_reverse_cancel_exactly(self):
        ka, kb = self.KEYS[1], self.KEYS[5]
        sums = [[(1, (ka, kb)), (-1, (kb, ka))],
                [(Fraction(2, 3), (ka, kb)), (5, ()), (Fraction(-2, 3), (kb, ka))]]
        assert kernel_sums(sums, P) == [0, 5]

    def test_a_warm_call_asks_no_batch_and_int_points_merge(self, monkeypatch):
        # keys are merged as integers, so the point 1 and Fraction(1) are one
        # key: its terms cancel to an exact 0 with no kernel value asked; a
        # warm call reads every value from the cache and asks no batch
        asked = []
        zeta_batch = special._zeta_batch

        def spy(sigma, ss, x, prec):
            asked.append((sigma, list(ss), x, prec))
            return zeta_batch(sigma, ss, x, prec)

        monkeypatch.setattr(special, "_zeta_batch", spy)
        monkeypatch.setattr(special, "_zeta_cache", {})
        cancels = [(1, ((1, 3, 1),)), (-1, ((1, 3, Fraction(1)),))]
        assert kernel_sums([cancels], P) == [0]
        assert not asked
        sums = [[(2, ((1, 3, 1), (-1, 2, Fraction(2, 9)))), (Fraction(-1, 3), ((1, 2, 5),))]]
        cold = kernel_sums(sums, P)
        assert asked
        asked.clear()
        assert kernel_sums(sums, P) == cold
        assert not asked

    def test_a_warm_call_builds_no_fraction(self, monkeypatch):
        # a coefficient is stored as it is on first sight and added only to
        # one already there, so a warm call of distinct keys builds no
        # Fraction; one repeated key adds once
        sums = [[(Fraction(2, 3), ((1, 3, 1), (-1, 2, Fraction(2, 9)))),
                 (Fraction(-1, 3), ((1, 2, 5),)), (5, ()), (Fraction(1, 7), ((-1, 1, 1),))]]
        cold = kernel_sums(sums, P)
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", staticmethod(
            lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs)))
        assert kernel_sums(sums, P) == cold
        assert built == []
        kernel_sums([sums[0] + sums[0][:1]], P)
        assert len(built) == 1

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_a_product_sum_that_cancels_about_100_bits(self, sigma, monkeypatch):
        # K(2; x) K(3; 1/3) - K(2; x') K(3; 1/3) with x' - x = 1e-30
        precs = set()
        zeta_batch = special._zeta_batch

        def spy(sigma, ss, x, prec):
            precs.add(prec)
            return zeta_batch(sigma, ss, x, prec)

        monkeypatch.setattr(special, "_zeta_batch", spy)
        x, y = Fraction(1, 4), Fraction(1, 3)
        terms = [(1, ((sigma, 2, x), (sigma, 3, y))),
                 (-1, ((sigma, 2, x + Fraction(1, 10 ** 30)), (sigma, 3, y)))]
        for prec in (64, 192):
            precs.clear()
            _assert_ulps(kernel_sums([terms], prec),
                         [_kernel_sum_reference(terms, prec + 160)], prec)
            assert max(precs) > prec + 100


GRID_XS = tuple(map(Fraction, ("1/1000000", "1/4", "1/2", "1", "7/3", "101/3", "3000001/3")))
GRID_SS = (1, 2, 3, 7, 30, 164, 165, 400, 801)
GRID_PRECS = (64, 192, 1376)
# the full grid takes about two minutes, almost all of it in mpmath
GRID = [(fn, s, x, prec) for prec in GRID_PRECS for s in GRID_SS
        for fn, x in [("single_t_bar", None)]
        + [("digamma" if s == 1 else "hurwitz_zeta", x) for x in GRID_XS]
        + [("alt_hurwitz_zeta", x) for x in GRID_XS]]


NEGATIVE_XS = tuple(map(Fraction, ("-1/5", "-2/7", "-3/7", "-999/1000", "-1/1000000", "-47/3",
                                    "-1500001/1000000")))
NEAR_ZEROS = [("hurwitz_zeta", 3, Fraction(-495715676913038394103902059399, 10 ** 30)),
              ("alt_hurwitz_zeta", 2, Fraction(-510662050514297988828484780952, 10 ** 30)),
              ("digamma", 1, Fraction(-504083008264455409258269304533, 10 ** 30))]


def _mpmath_reference(fn, s, x, wp):
    """mpmath's value at wp bits; the alternating ones pair even and odd
    terms, 2^-s (zeta(s; a/2) - zeta(s; (a+1)/2)), or halve a digamma
    difference at s = 1."""
    with mp.workprec(wp):
        if fn == "single_t_bar":  # -beta(s)
            return -mp.ldexp(_mpmath_reference("alt_hurwitz_zeta", s, Fraction(1, 2), wp), -s)
        a = mpf(x.numerator) / x.denominator
        if fn == "digamma":
            return mp.digamma(a)
        if fn == "hurwitz_zeta":
            return mp.zeta(s, a)
        if s == 1:
            return (mp.digamma((a + 1) / 2) - mp.digamma(a / 2)) / 2
        return (mp.zeta(s, a / 2) - mp.zeta(s, (a + 1) / 2)) / mpf(2) ** s


def _assert_within_one_ulp(fn, s, x, prec):
    """The kernel value against mpmath at prec + 160 bits, plus the bits that
    |v| lies below 1, since mpmath's error is absolute; those bits also cover
    the cancellation of the pairing."""
    if fn == "single_t_bar":
        value = _value(special.single_t_bar(s), prec)
    else:
        value = getattr(special, fn)(*((x,) if fn == "digamma" else (s, x)), prec)
    wp = prec + 160 + max(0, 1 - mp.mag(value))
    _assert_ulps([value], [_mpmath_reference(fn, s, x, wp)], prec)


class TestReferenceGrid:
    """Kernel values within 1 ulp of mpmath, on both sides of the choice
    between direct sums and head plus asymptotic series."""

    @pytest.mark.parametrize("fn, s, x, prec", random.Random(2022).sample(GRID, 24))
    def test_seeded_grid_sample(self, fn, s, x, prec):
        _assert_within_one_ulp(fn, s, x, prec)

    @pytest.mark.parametrize("s, prec", [(2, 64), (2, 192), (2, 1376), (3, 64), (3, 192),
                                         (1, 64), (1, 192)])
    def test_alternating_at_a_large_shift(self, s, prec):
        # 2^-s (zeta(s; a/2) - zeta(s; (a+1)/2)) cancels about log2 a bits
        # here, more than 16 guard bits cover
        _assert_within_one_ulp("alt_hurwitz_zeta", s, Fraction(3000001, 3), prec)

    @pytest.mark.parametrize("prec", [64, 192])
    def test_digamma_near_its_zero(self, prec):
        # psi(x) ~ -4e-17 here: ln y and the kernel sum cancel about 56 bits
        _assert_within_one_ulp("digamma", 1, Fraction(14616321449683623, 10 ** 16), prec)

    @pytest.mark.parametrize("prec", [64, 192])
    @pytest.mark.parametrize("x", NEGATIVE_XS)
    def test_negative_arguments(self, x, prec):
        for fn, s in (("hurwitz_zeta", 2), ("hurwitz_zeta", 7), ("alt_hurwitz_zeta", 1),
                      ("alt_hurwitz_zeta", 2), ("digamma", 1)):
            _assert_within_one_ulp(fn, s, x, prec)

    @pytest.mark.parametrize("prec", [64, 192])
    @pytest.mark.parametrize("fn, s, x", NEAR_ZEROS)
    def test_next_to_a_zero_at_negative_x(self, fn, s, x, prec):
        # the value cancels about 100 bits: the kernel raises F by the shortfall
        _assert_within_one_ulp(fn, s, x, prec)

    @pytest.mark.parametrize("x, fn, s", [
        (Fraction(1, 10 ** 400), "hurwitz_zeta", 2),
        (1 + Fraction(1, 10 ** 400), "hurwitz_zeta", 2),
        (Fraction(10 ** 400 + 1, 3), "hurwitz_zeta", 2),
        (Fraction(1, 10 ** 400), "alt_hurwitz_zeta", 3),
    ])
    def test_extreme_arguments(self, x, fn, s):
        # the head and direct-sum lengths compare x in exact rationals, so no
        # argument is too small or too large for a float
        _assert_within_one_ulp(fn, s, x, 64)

    def test_tan_next_to_a_pole_at_an_extreme_distance(self):
        base = Fraction(-1, 2) + Fraction(1, 10 ** 400)
        value = _kernel_value(KernelKind.PI_TAN, base, 64)
        with mp.workprec(3000):
            want = mp.pi * mp.tan(mp.pi * (mpf(base.numerator) / base.denominator))
        _assert_ulps([value], [want], 64)

    @pytest.mark.parametrize("call", [
        lambda x: hurwitz_zeta(2, x, 64), lambda x: alt_hurwitz_zeta(2, x, 64),
        lambda x: alt_hurwitz_zeta(1, x, 64), lambda x: digamma(x, 64),
        lambda x: tail_zeta_batch(-1, [2, 3], x, 64), lambda x: hurwitz_zeta(2, -x, 64),
        lambda x: alt_hurwitz_zeta(2, -x, 64), lambda x: digamma(-x, 64),
        lambda x: psi_jet(2, -x, 1), lambda x: kernel_jet(KernelKind.PI_TAN, x, 0),
        lambda x: kernel_jet(KernelKind.PI_OVER_COS, x, 2),
    ])
    def test_non_rational_argument_is_a_domain_error(self, call):
        with mp.workprec(64):
            x = mpf(1) / 3
        with pytest.raises(DomainError):
            call(x)
