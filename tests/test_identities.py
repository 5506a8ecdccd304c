import re
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_rational

import tsum.identities as identities
import tsum.series as series
import tsum.special as special
from tsum.identities import (
    HypothesisError,
    PartialFractionRational,
    RESIDUE_CASE_CATALOG,
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
from tsum.suite import run_reduction_case
from tsum.special import (
    DomainError,
    KernelKind,
    Terms,
    kernel_jet,
    psi_jet,
    ttilde,
    ttilde_bar,
)

P = 192
TOL = "1e-40"
F = Fraction


def _exact(x: mpf) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


@pytest.fixture
def without_zeta1(monkeypatch):
    """The closed sides with the zeta(1; a) terms dropped from the rule."""
    zeta_terms = identities.zeta_terms
    monkeypatch.setattr(identities, "zeta_terms",
                        lambda c, s, a: Terms() if s == 1 else zeta_terms(c, s, a))


class TestPairTheorems:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_tan_kernel_identity(self, p):
        rep = verify_thm3_1(p, F(1, 4), F(1, 3), P, TOL)
        assert rep.passed and _exact(rep.absolute_gap) + _exact(rep.bound) <= rep.tolerance

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_cos_kernel_identity(self, p):
        rep = verify_thm3_4(p, F(1, 4), F(1, 3), P, TOL)
        assert rep.passed

    def test_negative_parameter_sample(self):
        assert verify_thm3_1(2, F(1, 5), F(-1, 5), P, TOL).passed
        assert verify_thm3_4(2, F(1, 7), F(-1, 7), P, TOL).passed

    def test_closed_form_symmetric_in_a_b(self):
        fwd = verify_thm3_1(3, F(1, 4), F(1, 3), P, TOL)
        rev = verify_thm3_1(3, F(1, 3), F(1, 4), P, TOL)
        with mp.workprec(P + 16):
            assert abs(fwd.rhs - rev.rhs) < mpf(10) ** -40

    def test_hypothesis_rejection(self):
        with pytest.raises(HypothesisError):
            verify_thm3_1(1, F(1, 4), F(1, 4), P, TOL)
        with pytest.raises(HypothesisError):
            verify_thm3_1(1, F(1, 2), F(1, 3), P, TOL)
        with pytest.raises(HypothesisError):
            verify_thm3_4(1, F(3, 2), F(1, 3), P, TOL)
        with pytest.raises(HypothesisError):
            verify_thm3_1(0, F(1, 4), F(1, 3), P, TOL)
        with pytest.raises(DomainError, match="rational"):
            verify_thm3_1(1, 0.1, F(1, 3), P, TOL)

    def test_higher_precision_scaling(self):
        rep = verify_thm3_1(3, F(1, 4), F(1, 3), 320, "1e-80")
        assert rep.passed

    def test_parameters_near_the_unit_box_edge(self):
        assert verify_thm3_1(3, F(5, 7), F(-6, 7), P, TOL).passed
        assert verify_thm3_4(4, F(5, 7), F(-6, 7), P, TOL).passed

    @pytest.mark.parametrize("verify, a, b", [
        pytest.param(verify, a, b, id=verify.__name__ + tag)
        for a, b, tag in [(F(4999999999999999999999999, 10 ** 25), F(1, 3), ""),
                          (F(1, 10 ** 60), F(1, 3), "-a=1e-60"),
                          (F(1, 3), F(1, 3) + F(1, 3 * 10 ** 42), "-b-a=1e-42/3")]
        for verify in (verify_thm3_1, verify_thm3_4)])
    def test_shift_next_to_one_half(self, verify, a, b):
        # next to a = 1/2, pi tan and pi sec of pi a are near 3e24 and multiply
        # zeta(p; a) - ttilde(p), which cancels about 83 bits; p = 1 takes the
        # zeta(1; a) convention.  At a = 1e-60, zeta(p; a) ~ 1e60p cancels
        # against its product with pi tan(pi a) ~ pi^2 a; at b - a = 1e-42/3,
        # 1/(b - a) multiplies differences of order b - a
        for p in range(1, 6):
            rep = verify(p, a, b, P, TOL)
            assert rep.passed, (p, rep.absolute_gap)

    def test_each_closed_form_is_one_kernel_sum(self, monkeypatch):
        # one sum, rounded once at the report's precision
        calls = []
        kernel_sums = identities.kernel_sums

        def counted(sums, prec):
            calls.append((len(sums), prec))
            return kernel_sums(sums, prec)

        monkeypatch.setattr(identities, "kernel_sums", counted)
        monkeypatch.setattr(special, "kernel_sums", counted)
        residues = [(verify, (p, PartialFractionRational.parse(rtext)))
                    for p, rtext in RESIDUE_CASE_CATALOG for verify in (verify_thm3_6, verify_thm3_7)]
        for verify, args in [(verify_thm3_1, (3, F(1, 4), F(1, 3))),
                             (verify_thm3_4, (2, F(1, 5), F(-2, 5))),
                             (verify_cor3_2, (1, F(1, 3))), (verify_cor3_3, (1, F(2, 5))),
                             (verify_cor3_5, (1, F(1, 4))), (verify_cor3_6, (2, F(1, 5)))] + residues:
            calls.clear()
            assert verify(*args, P, TOL).passed
            assert calls == [(1, P)], (verify.__name__, args)

    def test_negative_control_detects_missing_convention(self, without_zeta1):
        rep = verify_thm3_1(2, F(1, 4), F(1, 3), P, TOL)
        assert not rep.passed
        with mp.workprec(64):
            assert rep.absolute_gap > mpf("1e-6")
        assert _exact(rep.absolute_gap) > 10 ** 6 * rep.tolerance


class TestCorollaries:
    def test_all_four_families(self):
        assert verify_cor3_2(0, F(1, 3), P, TOL).passed
        assert verify_cor3_2(2, F(1, 4), P, TOL).passed
        assert verify_cor3_3(1, F(2, 5), P, TOL).passed
        assert verify_cor3_5(1, F(1, 4), P, TOL).passed
        assert verify_cor3_6(0, F(1, 3), P, TOL).passed
        assert verify_cor3_6(2, F(1, 5), P, TOL).passed

    @pytest.mark.parametrize("verify, a, ms", [
        (verify_cor3_3, F(4999999999999999999999999, 10 ** 25), (0, 1, 2)),
        (verify_cor3_6, F(4999999999999999999999999, 10 ** 25), (0, 1, 2)),
        (verify_cor3_2, F(1, 10 ** 25), (0, 1, 2)),
        (verify_cor3_5, F(1, 10 ** 25), (1, 2)),
        (verify_cor3_3, F(1, 10 ** 60), (0, 1, 2)),
        (verify_cor3_6, F(1, 10 ** 60), (0, 1, 2)),
        (verify_cor3_3, 1 - F(1, 10 ** 30), (0, 1, 2)),
        (verify_cor3_6, 1 - F(1, 10 ** 30), (0, 1, 2)),
    ])
    def test_cancelling_zeta_differences(self, verify, a, ms):
        # at b = 1 - a, pi tan and pi sec of pi a (~3e24) and 1/(2a - 1) (~-5e24)
        # multiply 2 ttilde(p) - zeta(p; a) - zeta(p; b), of order (1/2 - a)^2,
        # and the j-sum takes zeta(s; a) - zeta(s; b), of order 1/2 - a; at
        # b = -a, 1/(2a) and pi tan(pi a)/(4a) multiply zeta(s; a) - zeta(s; -a),
        # whose a^-s parts (~1e25s) cancel at even s; at b = 1 - a with a next
        # to 0 or 1, zeta(p; a) or zeta(p; b) ~ 1e30p cancels against its
        # products with pi tan or pi sec of pi a
        for m in ms:
            rep = verify(m, a, P, TOL)
            assert rep.passed, (m, rep.absolute_gap)

    def test_reflection_without_the_convention_drops_zeta1(self, without_zeta1):
        # p = 1 needs the zeta(1; a) convention, as in the negative control
        rep = verify_cor3_3(0, F(1, 3), P, TOL)
        assert not rep.passed
        assert rep.rhs == 0
        with mp.workprec(64):
            assert rep.absolute_gap > mpf("1")

    def test_hypothesis_boxes(self):
        with pytest.raises(HypothesisError):
            verify_cor3_2(0, F(2, 3), P, TOL)  # outside 0 < |a| < 1/2
        with pytest.raises(HypothesisError):
            verify_cor3_5(1, F(-3, 5), P, TOL)
        with pytest.raises(HypothesisError):
            verify_cor3_5(0, F(1, 4), P, TOL)  # m >= 1
        with pytest.raises(HypothesisError):
            verify_cor3_3(0, F(3, 2), P, TOL)
        with pytest.raises(DomainError, match="rational"):
            verify_cor3_2(1, 0.1, P, TOL)


class TestResidueTheorems:
    def test_catalog_totals_vanish(self):
        for p, rtext in RESIDUE_CASE_CATALOG:
            r = PartialFractionRational.parse(rtext)
            assert verify_thm3_6(p, r, P, "1e-35").passed, (p, rtext)
            assert verify_thm3_7(p, r, P, "1e-35").passed, (p, rtext)

    def test_each_expansion_is_built_once(self, monkeypatch):
        # the sum with no harmonic factor shares the offset-1 expansion key:
        # two builds per case, one per half-shifted form of r
        monkeypatch.setattr(series, "_expansion_cache", {})
        monkeypatch.setattr(series, "_bern_cache", {})
        for p, rtext in RESIDUE_CASE_CATALOG:
            r = PartialFractionRational.parse(rtext)
            verify_thm3_6(p, r, P, "1e-35")
            verify_thm3_7(p, r, P, "1e-35")
        assert len(series._expansion_cache) == 2 * 2 * len(RESIDUE_CASE_CATALOG)

    def test_pair_specialization_matches_pair_theorems(self):
        # r(z) = 1/((z+a)(z+b)) in partial fractions reproduces the two-pole checks
        a, b = F(1, 4), F(1, 3)
        c = 1 / (b - a)
        r = PartialFractionRational(((-a, 1, c), (-b, 1, -c)))
        for p in (1, 2, 3):
            assert verify_thm3_6(p, r, P, TOL).passed
            assert verify_thm3_1(p, a, b, P, TOL).passed
            assert verify_thm3_7(p, r, P, TOL).passed
            assert verify_thm3_4(p, a, b, P, TOL).passed

    @pytest.mark.parametrize("verify", [verify_thm3_6, verify_thm3_7])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("beta, prec", [(F(1, 10 ** 20), P), (F(1, 10 ** 30), P),
                                            (F(1, 2) - F(1, 10 ** 30), P + 64)],
                             ids=["1e-20", "1e-30", "half-1e-30"])
    def test_pole_next_to_the_excluded_set(self, beta, prec, p, verify):
        # r = 1/(z + 1/4) - 1/(z - beta): next to 0, K(q; -beta) ~ beta^-q
        # cancels against the kernel and Psi jets at beta; next to 1/2 the
        # kernel jet at beta holds K(j; 1/2 - beta) ~ 1e30j, and both sides
        # are near 1e30 too: one unit of their last place at 192 bits is
        # about 1e-28, so a 1e-40 certificate of them takes 240 bits
        r = PartialFractionRational(((F(-1, 4), 1, F(1)), (beta, 1, F(-1))))
        rep = verify(p, r, prec, TOL)
        assert rep.passed, rep.absolute_gap

    @pytest.mark.parametrize("prec", [96, 192])
    def test_each_side_within_its_precision(self, prec):
        # each side against the same side 160 bits finer, relative to its size
        for p, rtext in RESIDUE_CASE_CATALOG:
            r = PartialFractionRational.parse(rtext)
            for verify in (verify_thm3_6, verify_thm3_7):
                rep, ref = verify(p, r, prec, "1e-20"), verify(p, r, prec + 160, "1e-20")
                with mp.workprec(prec + 200):
                    for side, want in ((rep.lhs, ref.lhs), (rep.rhs, ref.rhs)):
                        assert abs(side - want) <= abs(want) * mpf(2) ** -prec, (
                            verify.__name__, p, rtext, side, want)

    @pytest.mark.parametrize("verify", [verify_thm3_6, verify_thm3_7])
    def test_negative_control_sign_slip_in_the_derivative_terms(self, verify, monkeypatch):
        derivative_terms = identities._derivative_terms
        monkeypatch.setattr(identities, "_derivative_terms", lambda *args: derivative_terms(*args) * -1)
        rep = verify(2, PartialFractionRational.parse("(1/5,2,1);(-1/4,3,1)"), P, TOL)
        assert not rep.passed
        with mp.workprec(64):
            assert rep.absolute_gap > mpf("1e-6")

    @pytest.mark.parametrize("verify", [verify_thm3_6, verify_thm3_7])
    def test_negative_control_dropped_pole_residue(self, verify, monkeypatch):
        jet_residue, seen = identities.jet_residue, []

        def drop_first(jet):
            seen.append(jet.base_point)
            return Terms() if len(seen) == 1 else jet_residue(jet)

        monkeypatch.setattr(identities, "jet_residue", drop_first)
        rep = verify(2, PartialFractionRational.parse("(1/5,2,1);(-1/4,3,1)"), P, TOL)
        assert seen == [F(-1, 4), F(1, 5)]
        assert not rep.passed
        with mp.workprec(64):
            assert rep.absolute_gap > mpf("1e-6")

    def test_double_pole_case(self):
        r = PartialFractionRational(((F(-1, 4), 2, F(1)),))
        assert verify_thm3_6(2, r, P, "1e-35").passed

    def test_inadmissible_rational_functions(self):
        with pytest.raises(HypothesisError):
            PartialFractionRational(((F(0), 2, F(1)),))  # pole at 0
        with pytest.raises(HypothesisError):
            PartialFractionRational(((F(3), 2, F(1)),))  # positive integer pole
        with pytest.raises(HypothesisError):
            PartialFractionRational(((F(1, 2), 2, F(1)),))  # half-odd pole
        with pytest.raises(HypothesisError):
            PartialFractionRational(((F(1, 5), 1, F(1)),))  # O(z^-1) at infinity
        with pytest.raises(DomainError, match="rational"):
            PartialFractionRational(((-0.25, 2, F(1)),))  # a float pole
        with pytest.raises(HypothesisError, match="integer"):
            PartialFractionRational(((F(-1, 4), 2.7, F(1)),))  # not truncated to order 2

    @pytest.mark.parametrize("text, chunk", [("(1/3,1)", "(1/3,1)"), ("", ""),
                                             ("(-1/4,1,12);(-1/3,1)", "(-1/3,1)")])
    def test_parse_names_a_malformed_chunk(self, text, chunk):
        with pytest.raises(HypothesisError, match=re.escape(f"pole term {chunk!r}")):
            PartialFractionRational.parse(text)

    def test_parse_and_text_roundtrip(self):
        r = PartialFractionRational.parse("(-1/4,1,12);(-1/3,1,-12)")
        assert r.text() == "(-1/4,1,12);(-1/3,1,-12)"
        assert r.max_order() == 1 and r.poles() == [F(-1, 3), F(-1, 4)]


class TestExpansionSuites:
    @pytest.mark.parametrize("verify, family, checks", [(verify_lemma2_3, "lemma2_3", 231),
                                                        (verify_lemma2_4, "lemma2_4", 168)])
    def test_order_six(self, verify, family, checks):
        rep = verify(6, P, TOL)
        assert rep.passed
        assert (rep.family, rep.case_id) == (family, f"{family}[order=6]")
        assert rep.terms_used == checks

    @pytest.mark.parametrize("verify", [verify_lemma2_3, verify_lemma2_4])
    @pytest.mark.parametrize("order", [0, 9, -1])
    def test_order_guard(self, verify, order):
        # the range SuiteConfig and --order take
        with pytest.raises(HypothesisError, match="1 <= order <= 8"):
            verify(order, P, TOL)

    def test_tan_derivative_value_at_one(self):
        # first derivative of the tangent kernel at z = 1 is 2 ttilde(2)
        coeffs = special.kernel_sums(kernel_jet(KernelKind.PI_TAN, 1, 1).coeffs, P)
        with mp.workprec(P + 16):
            assert abs(factorial(1) * coeffs[1] - 2 * ttilde(2, P + 16)) < mpf(2) ** -180

    def test_sec_second_derivative_at_zero(self):
        # second derivative of the secant kernel at 0 is -2 * 2! * ttilde_bar(3)
        coeffs = special.kernel_sums(kernel_jet(KernelKind.PI_OVER_COS, 0, 2).coeffs, P)
        with mp.workprec(P + 16):
            want = -2 * factorial(2) * ttilde_bar(3, P + 16)
            assert abs(factorial(2) * coeffs[2] - want) < mpf(2) ** -180

    def test_psi_expansion_coefficient_value(self):
        # at base 1/2 with p = 2: first coefficient is h_1^(2) + ttilde(2) = 4 + pi^2/2
        coeffs = special.kernel_sums(psi_jet(2, F(1, 2), 2).coeffs, P)
        with mp.workprec(P + 16):
            want = 4 + ttilde(2, P + 16)
            assert abs(coeffs[0] - want) < mpf(2) ** -180


@pytest.mark.parametrize("verify, args", [
    (verify_thm3_1, (2, F(1, 4), F(1, 3))),
    (verify_cor3_2, (1, F(1, 4))),
    (verify_thm3_6, (2, PartialFractionRational.parse("(-1/4,2,1)"))),
    (verify_lemma2_4, (6,)),
    (run_reduction_case, ("T_even_odd", 1, 1)),
], ids=["pair", "corollary", "residue", "lemma", "reduction"])
def test_a_pass_needs_gap_plus_bound_within_the_tolerance(verify, args):
    # at 96 bits each side carries an error of about 2^-96 of its size; a
    # tolerance between the gap and gap + bound was met by the gap alone
    rep = verify(*args, 96, "1e-20")
    gap, bound = _exact(rep.absolute_gap), _exact(rep.bound)
    tol = f"{float(gap + bound / 2):.6e}"
    assert rep.passed and gap <= Fraction(tol) < gap + bound
    strict = verify(*args, 96, tol)
    assert not strict.passed
    assert (strict.lhs, strict.rhs, strict.absolute_gap) == (rep.lhs, rep.rhs, rep.absolute_gap)
