"""Two-sided numeric verification of the closed-form identities.

Each verifier evaluates both sides of one identity by independent routes:
the series side through the summation engine, the closed-form side through
the special function evaluators.  The closed form of a pair theorem or
corollary, a polynomial in kernel values with rational factors, is one
``special.kernel_sums`` sum, which covers its measured cancellation.  A
residue-sum-zero statement (Theorems 3.6 and 3.7) is checked as two sides
of the four terms of its proof: the two series, and the derivative sums
plus the residues, the latter read from products of exact jets and added
in the same one kernel sum.  Each side is a ``numeric.Ball``, a value and
its error radius, and a ``VerificationReport`` passes only if the gap of
the two sides plus their radii is within the tolerance, exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from mpmath import mpf
from mpmath.libmp import to_rational

from .jets import JetSeries, jet_mul, jet_residue
from .numeric import Ball, check_integer, check_precision, check_rational, check_tolerance
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
    bound: mpf
    passed: bool
    tolerance: Fraction
    precision_bits: int
    terms_used: int
    elapsed_ms: float

    def __post_init__(self):
        check_integer(self.precision_bits, "VerificationReport")
        check_integer(self.terms_used, "VerificationReport")
        check_rational(self.tolerance, "VerificationReport")


def _report(case_id: str, family: str, params: dict, lhs: Ball, rhs: Ball,
            tol: Fraction, prec: int, terms: int, t0: float) -> VerificationReport:
    """Both sides rounded once to ``prec``, each radius widened by its
    rounding; the gap is that of the rounded values, the bound the sum of
    the radii, and the case passes if gap + bound <= tol, exactly."""
    lhs, rhs = lhs.round(prec), rhs.round(prec)
    diff = lhs - rhs
    gap, bound = Ball(abs(diff.mid), 0, diff.exp).mpf(), Ball(diff.rad, 0, diff.exp).mpf()
    return VerificationReport(case_id, family, params, lhs.mpf(), rhs.mpf(), gap, bound,
                              diff.upper() <= tol, tol, prec, terms,
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
    tol, wp = check_tolerance(tolerance), prec + 24
    s1 = accel_linear_sum((p,), 0, kern.sigma, _pair_pieces(a, b, False), wp)
    s2 = accel_linear_sum((p,), 1, kern.sigma, _pair_pieces(a, b, True), wp)
    sgn = 1 if p % 2 == 0 else -1
    lhs = Ball.from_series(s1) - Ball.from_series(s2) * (kern.sigma * sgn)
    c, neg_tt = Frac(sgn) / (b - a), zeta_terms(-1, p, _HALF)
    terms = _j_sum(kern, p, a, b) * (2 * c * kern.sigma)
    # pi tan or pi sec of pi x times zeta(p; x) - ttilde(p), at x = b and a
    for e, x in ((c, b), (-c, a)):
        trig = kernel_jet(kern.kind, x, 0).coeffs[0]
        terms += trig * e * (zeta_terms(1, p, x) + neg_tt)
    rhs = Ball.from_rounded(kernel_sums([terms], prec)[0], prec)
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
    tol, wp = check_tolerance(tolerance), prec + 24
    p = 2 * m if even else 2 * m + 1
    # zeta(p; a) - zeta(p; b), or 2 ttilde(p) - zeta(p; a) - zeta(p; b)
    zetas = (zeta_terms(1, p, a) if even else zeta_terms(2, p, _HALF)
             + zeta_terms(-1, p, a)) + zeta_terms(-1, p, b)
    s1 = accel_linear_sum((p,), 0, kern.sigma, _pair_pieces(a, b, False), wp)
    terms, rhs = s1.terms_used, Ball(0)
    if reflect:
        c, sign, head = 1 / (2 * a - 1), kern.sigma, Frac(0)
    else:
        s0 = euler_t_sum(SumSpec(p=(), q=(p, 1, 1), a=(Frac(0), a, b), sigma=kern.sigma), wp)
        c, sign, head = 1 / (2 * a), 1, Frac(*to_rational(s0.value._mpf_)) / 2
        # s0/2 enters the kernel sum exactly, and the ball of s0/2 less it here
        terms, rhs = terms + s0.terms_used, Ball.from_series(s0) * _HALF - head
    closed = (Terms([(head, ())]) + _j_sum(kern, p, a, b) * (sign * c)
              + kernel_jet(kern.kind, a, 0).coeffs[0] * (c / 2) * zetas)
    rhs += Ball.from_rounded(kernel_sums([closed], prec)[0], prec)
    params = {"m": m, "a": _fmt(a)}
    return _report(f"{family}[m={m},a={_fmt(a)}]", family, params, Ball.from_series(s1), rhs,
                   tol, prec, terms, t0)


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
    the four terms of the proof.  lhs, terms 1 and 2, is the series side,
    balls of the summation engine at prec + 24 bits; rhs, -(term 3 + term 4),
    is one exact kernel sum, rounded once at prec."""
    t0 = time.perf_counter()
    check_precision(prec)
    if check_integer(p, family, HypothesisError) < 1:
        raise HypothesisError("requires p >= 1")
    tol, wp = check_tolerance(tolerance), prec + 24
    pf1, pf2 = _half_shift_pieces(r, False), _half_shift_pieces(r, True)
    sgn = 1 if p % 2 == 0 else -1
    tp = Ball.from_rounded(ttilde(p, wp), wp)
    sum1 = accel_linear_sum((p,), 0, kern.sigma, pf1, wp)
    rat1 = accel_linear_sum((), 0, kern.sigma, pf1, wp)
    term1 = (tp * Ball.from_series(rat1) * sgn + Ball.from_series(sum1)) * -kern.sigma
    sum2 = accel_linear_sum((p,), 1, kern.sigma, pf2, wp)
    # a sum with no harmonic factor does not depend on the offset; offset 1
    # shares sum2's expansion key, so that expansion is built once
    rat2 = accel_linear_sum((), 1, kern.sigma, pf2, wp)
    term2 = (tp * Ball.from_series(rat2) - Ball.from_series(sum2)) * -sgn
    closed = _derivative_terms(kern, p, r) + _residue_terms(kern.kind, p, r)
    rhs = Ball.from_rounded(kernel_sums([closed * -1], prec)[0], prec)
    params = {"p": p, "r": r.text()}
    return _report(f"{family}[p={p},r={r.text()}]", family, params, term1 + term2, rhs,
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

def _balls(sums: list, prec: int) -> list[Ball]:
    """Each sum of ``sums`` rounded once at ``prec`` by ``kernel_sums``, as a ball."""
    return [Ball.from_rounded(v, prec) for v in kernel_sums(sums, prec)]


def _lemma_psi_checks(order: int, prec: int, note) -> None:
    """Compare psi jets against the closed expansion coefficients, every
    value rounded once at ``prec``."""
    for p in (1, 2, 3):
        fac = factorial(p - 1)
        sgn = 1 if p % 2 == 0 else -1
        for n in range(4):
            # expansion at the integer pole n
            coeffs = _balls(psi_jet(p, Fraction(n), order).coeffs, prec)
            note(coeffs[0] * Fraction(1, fac), Ball(1))
            for i in range(1, min(p, order + 1)):
                note(coeffs[i], Ball(0))
            for j in range(p, order + 1):
                zj, = _balls([-2 * alt_zeta(1) if j == 1 else riemann_zeta(j)], prec)
                closed = (zj + (-1) ** j * harmonic(n, j)) * (sgn * comb(j - 1, p - 1))
                note(coeffs[j] * Fraction(1, fac), closed)
            # expansions at n - 1/2 and, for n >= 1, at 1/2 - n (analytic):
            # ttilde(i) plus (-1)^i h_n^(i), or minus h_(n-1)^(i)
            for base, m, alt in ((2 * n - 1, n, True), (1 - 2 * n, n - 1, False))[:n + 1]:
                coeffs = _balls(psi_jet(p, Fraction(base, 2), order).coeffs, prec)
                for j in range(order + 1):
                    i = p + j
                    tt = Ball.from_rounded(ttilde(i, prec), prec)
                    h = odd_harmonic(m, i) * ((-1) ** i if alt else -1)
                    note(coeffs[j], (tt + h) * (sgn * comb(i - 1, p - 1) * fac))


def _lemma_trig_checks(order: int, prec: int, note) -> None:
    """Compare trig kernel jets against the closed expansion coefficients,
    every value rounded once at ``prec``."""
    for n in range(4):
        # at the integer n: pi tan's odd coefficients 2 ttilde(j+1), pi sec's
        # even ones (-1)^(n+1) 2 ttilde_bar(j+1), and the derivatives, j! times
        sec = 2 * (-1) ** (n + 1)
        for kind, value, parity, c in ((KernelKind.PI_TAN, ttilde, 1, 2),
                                       (KernelKind.PI_OVER_COS, ttilde_bar, 0, sec)):
            coeffs = _balls(kernel_jet(kind, n, order).coeffs, prec)
            for j in range(order + 1):
                tt = Ball.from_rounded(value(j + 1, prec), prec)
                closed = tt * c if j % 2 == parity else Ball(0)
                note(coeffs[j], closed)
                note(coeffs[j] * factorial(j), closed * factorial(j))
        # at the pole n - 1/2: pi tan is -1/z + 2 zeta(j) z^j at even j, pi sec
        # (-1)^n (1/z + 2 alt_zeta(j) z^j)
        for kind, s, c, zeta in ((KernelKind.PI_TAN, -1, 2, riemann_zeta),
                                 (KernelKind.PI_OVER_COS, (-1) ** n, 2 * (-1) ** n, alt_zeta)):
            coeffs = _balls(kernel_jet(kind, Fraction(2 * n - 1, 2), order).coeffs, prec)
            note(coeffs[0], Ball(s))
            for j in range(1, order + 1):
                note(coeffs[j], _balls([c * zeta(j)], prec)[0] if j % 2 == 0 else Ball(0))


def _verify_expansion(family: str, checks, order: int, prec: int,
                      tolerance) -> VerificationReport:
    """One lemma's ``checks`` of jet coefficients through z^order against
    the closed expansion formulas, from values at prec + 16 bits, each side
    then rounded once at ``prec``, and reported at the comparison nearest to
    failing: the case passes only if every comparison does."""
    t0 = time.perf_counter()
    check_precision(prec)
    if not 1 <= check_integer(order, f"verify_{family}", HypothesisError) <= 8:
        raise HypothesisError("expansion checks support 1 <= order <= 8")
    tol, pairs = check_tolerance(tolerance), []
    # 16 guard bits: a closed coefficient at n - 1/2 cancels up to about 15
    checks(order, prec + 16, lambda lv, rv: pairs.append((lv.round(prec), rv.round(prec))))
    lhs, rhs = max(pairs, key=lambda sides: (sides[0] - sides[1]).upper())
    return _report(f"{family}[order={order}]", family, {"order": order}, lhs, rhs, tol, prec,
                   len(pairs), t0)


def verify_lemma2_3(order: int, prec: int, tolerance) -> VerificationReport:
    """Lemma 2.3: the expansions of Psi^(p-1)(1/2 - z) at n, n - 1/2 and 1/2 - n."""
    return _verify_expansion("lemma2_3", _lemma_psi_checks, order, prec, tolerance)


def verify_lemma2_4(order: int, prec: int, tolerance) -> VerificationReport:
    """Lemma 2.4: the expansions of pi tan and pi sec at n and n - 1/2."""
    return _verify_expansion("lemma2_4", _lemma_trig_checks, order, prec, tolerance)
