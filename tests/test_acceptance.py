"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the stated tolerance at 192-bit working precision.
"""

import time
from fractions import Fraction

from mpmath import mp, mpf

import tsum.identities as identities
from tsum.identities import (
    PartialFractionRational,
    RESIDUE_CASE_CATALOG,
    verify_lemma2_3,
    verify_lemma2_4,
    verify_thm3_1,
    verify_thm3_4,
    verify_thm3_6,
    verify_thm3_7,
)
from tsum.numeric import real_const
from tsum.reductions import FAMILIES, eval_symbolic
from tsum.series import double_t
from tsum.special import (
    Terms,
    alt_zeta,
    riemann_zeta,
    single_t,
    ttilde_bar,
)
from tsum.suite import SuiteConfig, build_cases, run_case, run_suite

P = 192
F = Fraction


def _conclude(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def test_criterion_1_identity_suite():
    t0 = time.monotonic()
    config = SuiteConfig(families=("thm3_1", "thm3_4", "cor3_2", "cor3_3",
                                   "cor3_5", "cor3_6"),
                         precision_bits=P, tolerance="1e-40")
    cases = build_cases(config)
    worst = mpf(0)
    ok = True
    for case in cases:
        rep = run_case(case)
        ok = ok and rep["passed"]
        with mp.workprec(64):
            worst = max(worst, mpf(rep["gap"]))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    _conclude(1, "closed-form identity suite at 1e-40",
              ok, f"{len(cases)} cases, worst gap {mp.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_2_residue_theorems():
    tol = "1e-35"
    ok = True
    count = 0
    orders = set()
    ps = set()
    for p, rtext in RESIDUE_CASE_CATALOG:
        r = PartialFractionRational.parse(rtext)
        orders.update(m for _, m, _ in r.terms)
        ps.add(p)
        ok = ok and verify_thm3_6(p, r, P, tol).passed
        ok = ok and verify_thm3_7(p, r, P, tol).passed
        count += 2
    ok = ok and orders == {1, 2, 3} and ps == {1, 2, 3} and count >= 12
    # the two-simple-pole specialization reproduces the pairwise checks
    a, b = F(1, 4), F(1, 3)
    c = 1 / (b - a)
    r = PartialFractionRational(((-a, 1, c), (-b, 1, -c)))
    for p in (1, 2, 3):
        ok = ok and verify_thm3_6(p, r, P, tol).passed
        ok = ok and verify_thm3_1(p, a, b, P, "1e-40").passed
        ok = ok and verify_thm3_7(p, r, P, tol).passed
        ok = ok and verify_thm3_4(p, a, b, P, "1e-40").passed
    _conclude(2, "residue-sum-zero checks at 1e-35", ok,
              f"{count} catalog cases spanning pole orders 1-3")


def test_criterion_3_kernel_expansions():
    reps = [verify_lemma2_3(6, P, "1e-40"), verify_lemma2_4(6, P, "1e-40")]
    _conclude(3, "expansion coefficients through order 6 at 1e-40",
              all(rep.passed for rep in reps),
              f"{sum(rep.terms_used for rep in reps)} coefficient checks")


def test_criterion_4_reduction_certification():
    t0 = time.monotonic()
    tol = mpf("1e-30")
    ok = True
    count = 0
    worst = mpf(0)
    for name, fam in FAMILIES.items():
        for j, m in fam.pairs_up_to_weight(11):
            value = eval_symbolic(fam.reduce(j, m), P)
            oracle = fam.oracle(j, m, P)
            with mp.workprec(P + 16):
                gap = abs(value - oracle.value)
            ok = ok and gap <= tol
            worst = max(worst, gap)
            count += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 900
    _conclude(4, "reductions vs series oracles (weight <= 11) at 1e-30", ok,
              f"{count} reductions, worst gap {mp.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_5_stuffle():
    tol = mpf("1e-35")
    ok = True
    for s1 in range(2, 6):
        for s2 in range(s1, 6):
            with mp.workprec(P + 16):
                lhs = single_t(s1, P + 16) * single_t(s2, P + 16)
                rhs = (double_t(s1, s2, False, P).value
                       + double_t(s2, s1, False, P).value
                       + single_t(s1 + s2, P + 16))
                ok = ok and abs(lhs - rhs) <= tol
    _conclude(5, "stuffle products for 2 <= s1 <= s2 <= 5 at 1e-35", ok)


def test_criterion_6_classical_constants():
    tol = mpf("1e-45")
    with mp.workprec(P + 16):
        pi = real_const("pi", P + 16)
        checks = [
            abs(single_t(2, P) - pi * pi / 8),
            abs(single_t(3, P) - mpf(7) / 8 * riemann_zeta(3, P + 16)),
            abs(alt_zeta(1, P) - real_const("log2", P + 16)),
            abs(ttilde_bar(1, P) + pi / 2),
        ]
        ok = all(c <= tol for c in checks)
    _conclude(6, "classical constants at 1e-45", ok)


def test_criterion_7_negative_control(monkeypatch):
    # the closed side without zeta(1; a): the rule drops its s = 1 terms
    zeta_terms = identities.zeta_terms
    monkeypatch.setattr(identities, "zeta_terms",
                        lambda c, s, a: Terms() if s == 1 else zeta_terms(c, s, a))
    rep = verify_thm3_1(2, F(1, 4), F(1, 3), P, "1e-40")
    with mp.workprec(64):
        ok = (not rep.passed) and rep.absolute_gap > mpf("1e-6")
    _conclude(7, "dropping zeta(1; a) breaks the p = 2 check", ok,
              f"gap {mp.nstr(rep.absolute_gap, 3)}")


def test_criterion_8_determinism():
    config = SuiteConfig()
    first = run_suite(config)
    second = run_suite(config)
    strip = lambda rec: {k: v for k, v in rec.items() if k != "timestamp"}
    ok = strip(first) == strip(second)
    parallel = run_suite(SuiteConfig(workers=8))
    ok = ok and first["cases"] == parallel["cases"]
    ok = ok and first["summary"]["failed"] == 0
    _conclude(8, "byte-identical reports and worker-count independence", ok,
              f"{len(first['cases'])} cases")
