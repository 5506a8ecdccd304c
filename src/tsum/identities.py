"""Two-sided numeric verification of the closed-form identities.

Each verifier evaluates both sides of one identity by independent routes:
the series side through the summation engine, the closed-form side through
the special function evaluators.  The closed form of a pair theorem or
corollary, a polynomial in kernel values with rational factors, is one
``special.kernel_sums`` sum, which covers its measured cancellation.  A
residue-sum-zero statement (Theorems 3.6 and 3.7) is checked as two sides
of the four terms of its proof: the two series, and the derivative sums
plus the residues, the latter read from products of exact jets and added
in the same one kernel sum.  A ``VerificationReport`` records the gap
against the requested tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .jets import JetSeries, jet_mul, jet_residue
from .numeric import (check_integer, check_precision, check_rational, round_to, to_mpf,
                      tolerance_mpf)
from .series import SumSpec, accel_linear_sum, euler_t_sum, harmonic, odd_harmonic
from .special import (
    DomainError,
    KernelKind,
    Terms,
    alt_zeta,
    kernel_jet,
    kernel_sums,
    psi_jet,
    riemann_zeta,
    ttilde,
    ttilde_bar,
    zeta_terms,
)

Frac = Fraction
_HALF = Frac(1, 2)


class HypothesisError(DomainError):
    """Identity hypotheses violated by the requested parameters."""


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    family: str
    params: dict
    lhs: mpf
    rhs: mpf
    absolute_gap: mpf
    passed: bool
    tolerance: mpf
    precision_bits: int
    terms_used: int
    elapsed_ms: float

    def __post_init__(self):
        check_integer(self.precision_bits, "VerificationReport")
        check_integer(self.terms_used, "VerificationReport")


def _report(case_id: str, family: str, params: dict, lhs: mpf, rhs: mpf,
            tol: mpf, prec: int, terms: int, t0: float) -> VerificationReport:
    with mp.workprec(prec + 16):
        gap = abs(lhs - rhs)
        passed = bool(gap <= tol)
    return VerificationReport(case_id, family, params, lhs, rhs, gap,
                              passed, tol, prec, terms,
                              (time.perf_counter() - t0) * 1000.0)


def _fmt(x) -> str:
    return str(Fraction(x))


def _check_ab(a: Frac, b: Optional[Frac]) -> None:
    vals = [a] if b is None else [a, b]
    if b is not None and a == b:
        raise HypothesisError("requires a != b")
    for v in vals:
        if v.denominator == 1 and v <= 0:
            raise HypothesisError("shift parameters must avoid non-positive integers")
        if v.denominator == 2:
            raise HypothesisError("shift parameters must avoid half-odd integers")
        if abs(v) >= 1:
            raise HypothesisError("this artifact restricts shift parameters to |a| < 1")


def _pair_pieces(a: Frac, b: Frac, negate: bool) -> list[tuple[Frac, list[tuple[Frac, int]]]]:
    """1/((n + a - 1/2)(n + b - 1/2)) as one product piece, optionally with
    both shifts negated."""
    sign = -1 if negate else 1
    return [(Frac(1), [(sign * a - Frac(1, 2), 1), (sign * b - Frac(1, 2), 1)])]


# ---------------------------------------------------------------------------
# Pairwise-parameter identities (tan and cos kernels) and their
# single-parameter specializations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kernel:
    """What the tangent and secant halves of each identity pair differ in:
    the kernel, the sign sigma of the series, the ttilde family at j =
    first_j, first_j + 2, ..., and the zeta family paired with it."""

    kind: KernelKind
    sigma: int
    first_j: int


_TAN = _Kernel(KernelKind.PI_TAN, 1, 2)
_SEC = _Kernel(KernelKind.PI_OVER_COS, -1, 1)


def _j_sum(kern: _Kernel, p: int, a: Frac, b: Frac) -> Terms:
    """sum_j tt(j) (zeta(p+1-j; a) - zeta(p+1-j; b)), j = first_j, first_j + 2,
    ..., p, as kernel terms: tt(j) = sigma K_sigma(j; 1/2), ttilde or
    ttilde_bar, and the zeta values are K_-1 for the secant."""
    out = Terms()
    for j in range(kern.first_j, p + 1, 2):
        s = p + 1 - j
        diff = (zeta_terms(1, s, a) + zeta_terms(-1, s, b) if kern.sigma > 0
                else [(1, ((-1, s, a),)), (-1, ((-1, s, b),))])
        out += Terms([(kern.sigma, ((kern.sigma, j, _HALF),))]) * diff
    return out


def _verify_pair(kern: _Kernel, family: str, p: int, a: Frac, b: Frac, prec: int,
                 tolerance) -> VerificationReport:
    """Theorems 3.1 (tangent) and 3.4 (secant)."""
    t0 = time.perf_counter()
    check_precision(prec)
    if check_integer(p, family, HypothesisError) < 1:
        raise HypothesisError("requires p >= 1")
    a, b = check_rational(a, family), check_rational(b, family)
    _check_ab(a, b)
    wp = prec + 24
    with mp.workprec(wp):
        tol = tolerance_mpf(tolerance, wp)
        s1 = accel_linear_sum((p,), 0, kern.sigma, _pair_pieces(a, b, False), wp)
        s2 = accel_linear_sum((p,), 1, kern.sigma, _pair_pieces(a, b, True), wp)
        sgn = 1 if p % 2 == 0 else -1
        lhs = s1.value - kern.sigma * sgn * s2.value
        c, neg_tt = Frac(sgn) / (b - a), zeta_terms(-1, p, _HALF)
        terms = _j_sum(kern, p, a, b) * (2 * c * kern.sigma)
        # pi tan or pi sec of pi x times zeta(p; x) - ttilde(p), at x = b and a
        for e, x in ((c, b), (-c, a)):
            trig = kernel_jet(kern.kind, x, 0).coeffs[0]
            terms += trig * e * (zeta_terms(1, p, x) + neg_tt)
        lhs, rhs = round_to(lhs, prec), kernel_sums([terms], prec)[0]
    params = {"p": p, "a": _fmt(a), "b": _fmt(b)}
    case_id = f"{family}[p={p},a={_fmt(a)},b={_fmt(b)}]"
    return _report(case_id, family, params, lhs, rhs, tol, prec,
                   s1.terms_used + s2.terms_used, t0)


def verify_thm3_1(p: int, a: Frac, b: Frac, prec: int, tolerance) -> VerificationReport:
    return _verify_pair(_TAN, "thm3_1", p, a, b, prec, tolerance)


def verify_thm3_4(p: int, a: Frac, b: Frac, prec: int, tolerance) -> VerificationReport:
    return _verify_pair(_SEC, "thm3_4", p, a, b, prec, tolerance)


def _check_single_a(a: Frac, reflect: bool) -> None:
    """Hypotheses on a for b = -a, or for b = 1 - a when ``reflect``."""
    if a.denominator == 1:
        raise HypothesisError("requires a not an integer")
    if a.denominator == 2:
        raise HypothesisError("requires a + 1/2 not an integer")
    if not reflect and not (0 < abs(a) < Frac(1, 2)):
        raise HypothesisError("requires 0 < |a| < 1/2")
    if abs(a) >= 1:
        raise HypothesisError("this artifact restricts shift parameters to |a| < 1")


def _verify_single(kern: _Kernel, family: str, m: int, a: Frac, prec: int, tolerance,
                   reflect: bool) -> VerificationReport:
    """The b = -a specializations (Corollaries 3.2 and 3.5) of the pair
    theorems, or the b = 1 - a ones (3.3 and 3.6) when ``reflect``.  The
    harmonic order is p = 2m + 1, except p = 2m for the secant at b = -a."""
    t0 = time.perf_counter()
    check_precision(prec)
    even = kern.sigma < 0 and not reflect
    m_min = 1 if even else 0
    if check_integer(m, family, HypothesisError) < m_min:
        raise HypothesisError(f"requires m >= {m_min}")
    a = check_rational(a, family)
    _check_single_a(a, reflect)
    b = 1 - a if reflect else -a
    wp = prec + 24
    p = 2 * m if even else 2 * m + 1
    # zeta(p; a) - zeta(p; b), or 2 ttilde(p) - zeta(p; a) - zeta(p; b)
    zetas = (zeta_terms(1, p, a) if even else zeta_terms(2, p, _HALF)
             + zeta_terms(-1, p, a)) + zeta_terms(-1, p, b)
    with mp.workprec(wp):
        tol = tolerance_mpf(tolerance, wp)
        s1 = accel_linear_sum((p,), 0, kern.sigma, _pair_pieces(a, b, False), wp)
        lhs = s1.value
        terms = s1.terms_used
        if reflect:
            c, sign, head = 1 / (2 * a - 1), kern.sigma, Terms()
        else:
            s0 = euler_t_sum(SumSpec(p=(), q=(p, 1, 1), a=(Frac(0), a, b), sigma=kern.sigma), wp)
            terms += s0.terms_used
            c, sign, head = 1 / (2 * a), 1, Terms([(Frac(*to_rational(s0.value._mpf_)) / 2, ())])
        rhs = kernel_sums([head + _j_sum(kern, p, a, b) * (sign * c)
                            + kernel_jet(kern.kind, a, 0).coeffs[0] * (c / 2) * zetas], prec)[0]
        lhs = round_to(lhs, prec)
    params = {"m": m, "a": _fmt(a)}
    return _report(f"{family}[m={m},a={_fmt(a)}]", family, params, lhs, rhs, tol,
                   prec, terms, t0)


def verify_cor3_2(m: int, a: Frac, prec: int, tolerance) -> VerificationReport:
    """The b = -a specialization of the tangent-kernel identity, odd-order factor."""
    return _verify_single(_TAN, "cor3_2", m, a, prec, tolerance, False)


def verify_cor3_3(m: int, a: Frac, prec: int, tolerance) -> VerificationReport:
    """The b = 1 - a specialization of the tangent-kernel identity."""
    return _verify_single(_TAN, "cor3_3", m, a, prec, tolerance, True)


def verify_cor3_5(m: int, a: Frac, prec: int, tolerance) -> VerificationReport:
    """The b = -a specialization of the secant-kernel identity, even-order factor."""
    return _verify_single(_SEC, "cor3_5", m, a, prec, tolerance, False)


def verify_cor3_6(m: int, a: Frac, prec: int, tolerance) -> VerificationReport:
    """The b = 1 - a specialization of the secant-kernel identity."""
    return _verify_single(_SEC, "cor3_6", m, a, prec, tolerance, True)


# ---------------------------------------------------------------------------
# General rational-function residue identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionRational:
    """r(z) = sum c / (z - beta)^m with rational data, O(z^-2) at infinity.

    Poles must avoid 0, the positive integers and all half-odd integers;
    only these exact rational inequalities are enforced.  Poles that merely
    come close to the excluded set are accepted: the closed side of a
    residue check, one kernel sum, measures the cancellation they cause and
    takes guard bits to match, and stops with ArithmeticError past 2048.
    """

    terms: tuple[tuple[Fraction, int, Fraction], ...]

    def __post_init__(self):
        name = "PartialFractionRational"
        terms = tuple((check_rational(b, name), check_integer(m, name, HypothesisError),
                       check_rational(c, name)) for b, m, c in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise HypothesisError("rational function must have at least one pole term")
        for beta, m, c in terms:
            if m < 1:
                raise HypothesisError("pole orders must be >= 1")
            if c == 0:
                raise HypothesisError("zero coefficients are not allowed")
            if beta == 0:
                raise HypothesisError("0 must not be a pole")
            if beta.denominator == 1 and beta >= 1:
                raise HypothesisError("positive integers must not be poles")
            if beta.denominator == 2:
                raise HypothesisError("half-odd integers must not be poles")
        if sum(c for _, m, c in terms if m == 1) != 0:
            raise HypothesisError("order-1 coefficients must sum to zero (O(z^-2) at infinity)")

    def poles(self) -> list[Fraction]:
        return sorted({beta for beta, _, _ in self.terms})

    def max_order(self) -> int:
        return max(m for _, m, _ in self.terms)

    def text(self) -> str:
        return ";".join(f"({_fmt(b)},{m},{_fmt(c)})" for b, m, c in self.terms)

    @classmethod
    def parse(cls, s: str) -> "PartialFractionRational":
        terms = []
        for chunk in s.split(";"):
            try:
                b, m, c = chunk.strip().strip("()").split(",")
                terms.append((Fraction(b), int(m), Fraction(c)))
            except ValueError as exc:
                raise HypothesisError(f"pole term {chunk!r} is not (beta,m,c): {exc}") from None
        return cls(tuple(terms))


def _half_shift_pieces(r: PartialFractionRational,
                       reflect: bool) -> list[tuple[Frac, list[tuple[Frac, int]]]]:
    """r(n - 1/2) (or r(1/2 - n) when reflect), one piece per partial fraction."""
    if reflect:
        return [(c * (-1) ** m, [(beta - Frac(1, 2), m)]) for beta, m, c in r.terms]
    return [(c, [(-beta - Frac(1, 2), m)]) for beta, m, c in r.terms]


def _derivative_terms(kern: _Kernel, p: int, r: PartialFractionRational) -> Terms:
    """Term 3, sum_j 2/(p-j)! K_sigma(j; 1/2) sum_{n>=0} sigma^n r^(p-j)(n),
    j = first_j, first_j + 2, ..., p, as kernel terms: summed over n, the
    d-th derivative of c/(z - beta)^m is c (-1)^d (m)_d K_sigma(m + d; -beta).
    At sigma = +1, d = 0 the order-1 terms take K_+1(1; -beta) = -psi(-beta)
    for their divergent sums; their coefficients add up to 0."""
    out = Terms()
    for j in range(kern.first_j, p + 1, 2):
        d = p - j
        derivs = [(c * (-1) ** d * (factorial(m + d - 1) // factorial(m - 1)),
                   ((kern.sigma, m + d, -beta),)) for beta, m, c in r.terms]
        out += Terms([(Frac(2, factorial(d)), ((kern.sigma, j, _HALF),))]) * derivs
    return out


def _residue_terms(kind: KernelKind, p: int, r: PartialFractionRational) -> Terms:
    """Term 4, the sum over the poles beta of r of the residues of
    kernel(z) Psi^(p-1)(1/2 - z) r(z)/(p-1)!, each read from the product of
    three exact jets at beta.  The kernel and Psi are analytic at every
    admissible pole, so a residue at a pole of order M takes only r's
    principal part there, and jets of order M - 1."""
    out = Terms()
    for beta in r.poles():
        parts = [(m, c / factorial(p - 1)) for b, m, c in r.terms if b == beta]
        M = max(m for m, _ in parts)
        principal = tuple(sum(c for m, c in parts if m == M - i) for i in range(M))
        kp = jet_mul(kernel_jet(kind, beta, M - 1), psi_jet(p, beta, M - 1))
        out += jet_residue(jet_mul(kp, JetSeries(beta, principal, M)))
    return out


def _verify_residue(kern: _Kernel, family: str, p: int, r: PartialFractionRational,
                    prec: int, tolerance) -> VerificationReport:
    """Theorems 3.6 (tangent) and 3.7 (secant): the residues of
    kernel(z) Psi^(p-1)(1/2 - z) r(z) sum to zero, checked as two sides of
    the four terms of the proof.  lhs, terms 1 and 2, is the series side
    from the summation engine at prec + 24 bits; rhs, -(term 3 + term 4),
    is one exact kernel sum, rounded once at prec."""
    t0 = time.perf_counter()
    check_precision(prec)
    if check_integer(p, family, HypothesisError) < 1:
        raise HypothesisError("requires p >= 1")
    wp = prec + 24
    with mp.workprec(wp):
        tol = tolerance_mpf(tolerance, wp)
        pf1, pf2 = _half_shift_pieces(r, False), _half_shift_pieces(r, True)
        sgn = 1 if p % 2 == 0 else -1
        tp = ttilde(p, wp)
        sum1 = accel_linear_sum((p,), 0, kern.sigma, pf1, wp)
        rat1 = accel_linear_sum((), 0, kern.sigma, pf1, wp)
        term1 = -kern.sigma * (sgn * tp * rat1.value + sum1.value)
        sum2 = accel_linear_sum((p,), 1, kern.sigma, pf2, wp)
        # a sum with no harmonic factor does not depend on the offset; offset 1
        # shares sum2's expansion key, so that expansion is built once
        rat2 = accel_linear_sum((), 1, kern.sigma, pf2, wp)
        term2 = -sgn * (tp * rat2.value - sum2.value)
        lhs = round_to(term1 + term2, prec)
    closed = _derivative_terms(kern, p, r) + _residue_terms(kern.kind, p, r)
    rhs = kernel_sums([closed * -1], prec)[0]
    params = {"p": p, "r": r.text()}
    return _report(f"{family}[p={p},r={r.text()}]", family, params, lhs, rhs,
                   tol, prec, sum1.terms_used + sum2.terms_used, t0)


def verify_thm3_6(p: int, r: PartialFractionRational, prec: int, tolerance) -> VerificationReport:
    """Residue-sum-zero check with the tangent kernel."""
    return _verify_residue(_TAN, "thm3_6", p, r, prec, tolerance)


def verify_thm3_7(p: int, r: PartialFractionRational, prec: int, tolerance) -> VerificationReport:
    """Residue-sum-zero check with the secant kernel."""
    return _verify_residue(_SEC, "thm3_7", p, r, prec, tolerance)


RESIDUE_CASE_CATALOG: list[tuple[int, str]] = [
    (1, "(-1/4,1,12);(-1/3,1,-12)"),
    (2, "(-1/4,2,1)"),
    (3, "(1/5,1,2);(1/4,1,-3);(-2/7,1,1)"),
    (1, "(-2/7,3,1)"),
    (2, "(1/5,2,1);(-1/4,3,1)"),
    (3, "(-3,1,1);(1/5,1,-1)"),
]


# ---------------------------------------------------------------------------
# Expansion-coefficient suites (the two lemma families)
# ---------------------------------------------------------------------------

class _Worst:
    """The largest |lhs - rhs| over a run of comparisons, with its sides."""

    def __init__(self):
        self.gap = self.lhs = self.rhs = mpf(0)
        self.count = 0

    def note(self, lv: mpf, rv: mpf) -> None:
        self.count += 1
        g = abs(lv - rv)
        if g > self.gap:
            self.gap, self.lhs, self.rhs = g, lv, rv


def _lemma_psi_checks(order: int, prec: int, note) -> None:
    """Compare psi jets against the closed expansion coefficients."""
    wp = prec + 16
    with mp.workprec(wp):
        for p in (1, 2, 3):
            fac = factorial(p - 1)
            sgn = 1 if p % 2 == 0 else -1
            for n in range(4):
                # expansion at the integer pole n
                coeffs = kernel_sums(psi_jet(p, Fraction(n), order).coeffs, wp)
                note(coeffs[0] / fac, mpf(1))
                for i in range(1, min(p, order + 1)):
                    note(coeffs[i], mpf(0))
                for j in range(p, order + 1):
                    zj = kernel_sums([-2 * alt_zeta(1) if j == 1 else riemann_zeta(j)], wp)[0]
                    closed = sgn * comb(j - 1, p - 1) * (
                        (-1) ** j * to_mpf(harmonic(n, j), wp) + zj)
                    note(coeffs[j] / fac, closed)
                # expansion at n - 1/2 (analytic)
                coeffs = kernel_sums(psi_jet(p, Fraction(2 * n - 1, 2), order).coeffs, wp)
                for j in range(order + 1):
                    i = p + j
                    closed = sgn * comb(i - 1, p - 1) * (
                        (-1) ** i * to_mpf(odd_harmonic(n, i), wp) + ttilde(i, wp))
                    note(coeffs[j], closed * fac)
                # expansion at 1/2 - n (analytic), n >= 1
                if n >= 1:
                    coeffs = kernel_sums(psi_jet(p, Fraction(1 - 2 * n, 2), order).coeffs, wp)
                    for j in range(order + 1):
                        i = p + j
                        closed = sgn * comb(i - 1, p - 1) * (
                            ttilde(i, wp) - to_mpf(odd_harmonic(n - 1, i), wp))
                        note(coeffs[j], closed * fac)


def _lemma_trig_checks(order: int, prec: int, note) -> None:
    """Compare trig kernel jets against the closed expansion coefficients."""
    wp = prec + 16
    with mp.workprec(wp):
        for n in range(4):
            # tangent kernel at the integer n: odd coefficients 2*ttilde(j+1)
            coeffs = kernel_sums(kernel_jet(KernelKind.PI_TAN, n, order).coeffs, wp)
            for j in range(order + 1):
                closed = 2 * ttilde(j + 1, wp) if j % 2 == 1 else mpf(0)
                note(coeffs[j], closed)
                # derivative form: j! c_j vs (1 - (-1)^j) j! ttilde(j+1)
                note(factorial(j) * coeffs[j],
                      (1 - (-1) ** j) * factorial(j) * ttilde(j + 1, wp))
            # secant kernel at n: even coefficients (-1)^(n-1) 2 ttilde_bar(j+1)
            coeffs = kernel_sums(kernel_jet(KernelKind.PI_OVER_COS, n, order).coeffs, wp)
            for j in range(order + 1):
                closed = (-1) ** (n - 1) * 2 * ttilde_bar(j + 1, wp) if j % 2 == 0 else mpf(0)
                note(coeffs[j], closed)
                note(factorial(j) * coeffs[j],
                      (-1) ** (n - 1) * (1 + (-1) ** j) * factorial(j) * ttilde_bar(j + 1, wp))
            # tangent kernel at the pole n - 1/2
            pole = Fraction(2 * n - 1, 2)
            coeffs = kernel_sums(kernel_jet(KernelKind.PI_TAN, pole, order).coeffs, wp)
            note(coeffs[0], mpf(-1))
            for j in range(1, order + 1):
                closed = kernel_sums([2 * riemann_zeta(j)], wp)[0] if j % 2 == 0 else mpf(0)
                note(coeffs[j], closed)
            # secant kernel at the pole n - 1/2
            coeffs = kernel_sums(kernel_jet(KernelKind.PI_OVER_COS, pole, order).coeffs, wp)
            s = (-1) ** n
            note(coeffs[0], mpf(s))
            for j in range(1, order + 1):
                closed = kernel_sums([2 * s * alt_zeta(j)], wp)[0] if j % 2 == 0 else mpf(0)
                note(coeffs[j], closed)


def _verify_expansion(family: str, checks, order: int, prec: int,
                      tolerance) -> VerificationReport:
    """One lemma's ``checks`` of jet coefficients through z^order against
    the closed expansion formulas, reported at their largest gap."""
    t0 = time.perf_counter()
    check_precision(prec)
    if not 1 <= check_integer(order, f"verify_{family}", HypothesisError) <= 8:
        raise HypothesisError("expansion checks support 1 <= order <= 8")
    tol = tolerance_mpf(tolerance, prec + 16)
    worst = _Worst()
    checks(order, prec, worst.note)
    return _report(f"{family}[order={order}]", family, {"order": order}, worst.lhs, worst.rhs,
                   tol, prec, worst.count, t0)


def verify_lemma2_3(order: int, prec: int, tolerance) -> VerificationReport:
    """Lemma 2.3: the expansions of Psi^(p-1)(1/2 - z) at n, n - 1/2 and 1/2 - n."""
    return _verify_expansion("lemma2_3", _lemma_psi_checks, order, prec, tolerance)


def verify_lemma2_4(order: int, prec: int, tolerance) -> VerificationReport:
    """Lemma 2.4: the expansions of pi tan and pi sec at n and n - 1/2."""
    return _verify_expansion("lemma2_4", _lemma_trig_checks, order, prec, tolerance)
