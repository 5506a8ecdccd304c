"""Two-sided numeric verification of the closed-form identities.

Each verifier evaluates both sides of one identity (or the four structural
terms of a residue-sum-zero statement) by independent routes: the series
side through the summation engine, the closed-form side through the special
function evaluators, and residue terms through jet arithmetic.  A
``VerificationReport`` records the gap against the requested tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from mpmath import mp, mpf

from .jets import jet_from_coeffs, jet_mul, jet_residue, jet_scale
from .numeric import real_const, round_to, to_mpf, tolerance_mpf
from .series import SeriesResult, accel_linear_sum
from .special import (
    DEFAULT_CONVENTION,
    DomainError,
    KernelKind,
    ZetaConvention,
    alt_hurwitz_any,
    alt_zeta,
    digamma_any,
    hurwitz_any,
    kernel_jet,
    kernel_value,
    psi_jet,
    riemann_zeta,
    ttilde,
    ttilde_bar,
)

Frac = Fraction


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


def _zx(s: int, x: Frac, conv: ZetaConvention, prec: int) -> mpf:
    """Hurwitz zeta with the s = 1 convention routed through ``conv``."""
    if s == 1:
        return conv.hurwitz1(x, prec)
    return hurwitz_any(s, x, prec)


def _pair_pf(a: Frac, b: Frac, negate: bool) -> list[tuple[Frac, int, Frac]]:
    """Partial fractions of 1/((n + a - 1/2)(n + b - 1/2)), optionally with
    both shifts negated."""
    ta = (-a if negate else a) - Frac(1, 2)
    tb = (-b if negate else b) - Frac(1, 2)
    c = 1 / (tb - ta)
    return [(ta, 1, c), (tb, 1, -c)]


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

    def tt(self, j: int, wp: int) -> mpf:
        return ttilde(j, wp) if self.sigma > 0 else ttilde_bar(j, wp)

    def zeta(self, s: int, x: Frac, conv: ZetaConvention, wp: int) -> mpf:
        return _zx(s, x, conv, wp) if self.sigma > 0 else alt_hurwitz_any(s, x, wp)


_TAN = _Kernel(KernelKind.PI_TAN, 1, 2)
_SEC = _Kernel(KernelKind.PI_OVER_COS, -1, 1)


def _zeta_sum(kern: _Kernel, p: int, a: Frac, b: Frac, start: mpf, scale, sign: int,
              conv: ZetaConvention, wp: int) -> mpf:
    """start + sum_j scale * tt(j) * sign * (zeta(p+1-j; a) - zeta(p+1-j; b)).

    ``sign`` = -1 stands for the stated order zeta(b) - zeta(a); a factor
    of +-1 is exact in mpf, so either order gives the same bits.
    """
    total = start
    for j in range(kern.first_j, p + 1, 2):
        s = p + 1 - j
        total += scale * kern.tt(j, wp) * (
            sign * (kern.zeta(s, a, conv, wp) - kern.zeta(s, b, conv, wp)))
    return total


def _verify_pair(kern: _Kernel, family: str, p: int, a: Frac, b: Frac, prec: int,
                 tolerance, convention: ZetaConvention) -> VerificationReport:
    """Theorems 3.1 (tangent) and 3.4 (secant)."""
    t0 = time.perf_counter()
    if p < 1:
        raise HypothesisError("requires p >= 1")
    a, b = Fraction(a), Fraction(b)
    _check_ab(a, b)
    wp = prec + 24
    with mp.workprec(wp):
        tol = tolerance_mpf(tolerance, wp)
        s1 = accel_linear_sum(p, 0, kern.sigma, _pair_pf(a, b, False), wp)
        s2 = accel_linear_sum(p, 1, kern.sigma, _pair_pf(a, b, True), wp)
        sgn = 1 if p % 2 == 0 else -1
        lhs = s1.value - kern.sigma * sgn * s2.value
        inv_ba = 1 / to_mpf(b - a, wp)
        ksum = _zeta_sum(kern, p, a, b, mpf(0), 1, kern.sigma, convention, wp)
        rhs = 2 * sgn * inv_ba * ksum
        tp = ttilde(p, wp)
        rhs += sgn * inv_ba * (
            kernel_value(kern.kind, b, wp) * (_zx(p, b, convention, wp) - tp)
            - kernel_value(kern.kind, a, wp) * (_zx(p, a, convention, wp) - tp))
        lhs, rhs = round_to(lhs, prec), round_to(rhs, prec)
    params = {"p": p, "a": _fmt(a), "b": _fmt(b)}
    case_id = f"{family}[p={p},a={_fmt(a)},b={_fmt(b)}]"
    return _report(case_id, family, params, lhs, rhs, tol, prec,
                   s1.terms_used + s2.terms_used, t0)


def verify_thm3_1(p: int, a: Frac, b: Frac, prec: int, tolerance,
                  convention: ZetaConvention = DEFAULT_CONVENTION) -> VerificationReport:
    return _verify_pair(_TAN, "thm3_1", p, a, b, prec, tolerance, convention)


def verify_thm3_4(p: int, a: Frac, b: Frac, prec: int, tolerance,
                  convention: ZetaConvention = DEFAULT_CONVENTION) -> VerificationReport:
    return _verify_pair(_SEC, "thm3_4", p, a, b, prec, tolerance, convention)


def _check_single_a(a: Frac, reflect: bool) -> None:
    """Hypotheses on a for b = -a, or for b = 1 - a when ``reflect``."""
    if a.denominator == 1:
        raise HypothesisError("requires a not an integer")
    if a.denominator == 2:
        raise HypothesisError("requires a + 1/2 not an integer")
    if not reflect and not (0 < abs(a) < Frac(1, 2)):
        raise HypothesisError("requires 0 < |a| < 1/2")
    if reflect and a == Frac(1, 2):
        raise HypothesisError("requires a != 1/2")
    if abs(a) >= 1:
        raise HypothesisError("this artifact restricts shift parameters to |a| < 1")


def _pure_series(q: Sequence[int], a_params: Sequence[Frac], sigma: int, wp: int) -> SeriesResult:
    from .series import SumSpec, euler_t_sum
    spec = SumSpec(p=(), q=tuple(q), a=tuple(a_params), sigma=sigma)
    return euler_t_sum(spec, wp)


def _verify_single(kern: _Kernel, family: str, m: int, a: Frac, prec: int, tolerance,
                   convention: ZetaConvention, reflect: bool) -> VerificationReport:
    """The b = -a specializations (Corollaries 3.2 and 3.5) of the pair
    theorems, or the b = 1 - a ones (3.3 and 3.6) when ``reflect``.  The
    harmonic order is p = 2m + 1, except p = 2m for the secant at b = -a."""
    t0 = time.perf_counter()
    even = kern.sigma < 0 and not reflect
    m_min = 1 if even else 0
    if m < m_min:
        raise HypothesisError(f"requires m >= {m_min}")
    a = Fraction(a)
    _check_single_a(a, reflect)
    b = 1 - a if reflect else -a
    wp = prec + 24
    p = 2 * m if even else 2 * m + 1
    with mp.workprec(wp):
        tol = tolerance_mpf(tolerance, wp)
        s1 = accel_linear_sum(p, 0, kern.sigma, _pair_pf(a, b, False), wp)
        lhs = s1.value
        terms = s1.terms_used
        if reflect:
            inv = 1 / to_mpf(2 * a - 1, wp)
            rhs = _zeta_sum(kern, p, a, b, mpf(0), inv, kern.sigma, convention, wp)
            rhs += kernel_value(kern.kind, a, wp) * inv / 2 * (
                2 * ttilde(p, wp) - _zx(p, a, convention, wp) - _zx(p, b, convention, wp))
        else:
            s0 = _pure_series((p, 1, 1), (Frac(0), a, b), kern.sigma, wp)
            terms += s0.terms_used
            inv2a = 1 / (2 * to_mpf(a, wp))
            rhs = _zeta_sum(kern, p, a, b, s0.value / 2, inv2a, 1, convention, wp)
            za, zb = _zx(p, a, convention, wp), _zx(p, b, convention, wp)
            rhs += kernel_value(kern.kind, a, wp) / (4 * to_mpf(a, wp)) * (
                za - zb if even else 2 * ttilde(p, wp) - za - zb)
        lhs, rhs = round_to(lhs, prec), round_to(rhs, prec)
    params = {"m": m, "a": _fmt(a)}
    return _report(f"{family}[m={m},a={_fmt(a)}]", family, params, lhs, rhs, tol,
                   prec, terms, t0)


def verify_cor3_2(m: int, a: Frac, prec: int, tolerance,
                  convention: ZetaConvention = DEFAULT_CONVENTION) -> VerificationReport:
    """The b = -a specialization of the tangent-kernel identity, odd-order factor."""
    return _verify_single(_TAN, "cor3_2", m, a, prec, tolerance, convention, False)


def verify_cor3_3(m: int, a: Frac, prec: int, tolerance,
                  convention: ZetaConvention = DEFAULT_CONVENTION) -> VerificationReport:
    """The b = 1 - a specialization of the tangent-kernel identity."""
    return _verify_single(_TAN, "cor3_3", m, a, prec, tolerance, convention, True)


def verify_cor3_5(m: int, a: Frac, prec: int, tolerance,
                  convention: ZetaConvention = DEFAULT_CONVENTION) -> VerificationReport:
    """The b = -a specialization of the secant-kernel identity, even-order factor."""
    return _verify_single(_SEC, "cor3_5", m, a, prec, tolerance, convention, False)


def verify_cor3_6(m: int, a: Frac, prec: int, tolerance,
                  convention: ZetaConvention = DEFAULT_CONVENTION) -> VerificationReport:
    """The b = 1 - a specialization of the secant-kernel identity."""
    return _verify_single(_SEC, "cor3_6", m, a, prec, tolerance, convention, True)


# ---------------------------------------------------------------------------
# General rational-function residue identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionRational:
    """r(z) = sum c / (z - beta)^m with rational data, O(z^-2) at infinity.

    Poles must avoid 0, the positive integers and all half-odd integers;
    only these exact rational inequalities are enforced.  Poles that merely
    come close to the excluded set are accepted, but the residue evaluation
    is increasingly ill-conditioned there and the working-precision guard
    absorbs only a bounded amount of that loss.
    """

    terms: tuple[tuple[Fraction, int, Fraction], ...]

    def __post_init__(self):
        terms = tuple((Fraction(b), int(m), Fraction(c)) for b, m, c in self.terms)
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
            chunk = chunk.strip().strip("()")
            b, m, c = chunk.split(",")
            terms.append((Fraction(b), int(m), Fraction(c)))
        return cls(tuple(terms))


def _half_shift_pf(r: PartialFractionRational, reflect: bool) -> list[tuple[Frac, int, Frac]]:
    """Partial fractions of r(n - 1/2) (or r(1/2 - n) when reflect)."""
    out = []
    for beta, m, c in r.terms:
        if reflect:
            out.append((beta - Frac(1, 2), m, c * (-1) ** m))
        else:
            out.append((-beta - Frac(1, 2), m, c))
    return out


def _derivative_sum(r: PartialFractionRational, d: int, wp: int, alternating: bool) -> mpf:
    """sum_{n>=0} (+-1)^n r^(d)(n) evaluated per partial-fraction term."""
    total = mpf(0)
    sgn = -1 if d % 2 == 1 else 1
    psi_part = mpf(0)
    for beta, m, c in r.terms:
        q = m + d
        rising = factorial(m + d - 1) // factorial(m - 1)
        if alternating:
            sigma = alt_hurwitz_any(q, -beta, wp)
        elif q == 1:
            # grouped below through digamma (coefficients sum to zero)
            psi_part -= to_mpf(c, wp) * digamma_any(-beta, wp)
            continue
        else:
            sigma = hurwitz_any(q, -beta, wp)
        total += to_mpf(c, wp) * sgn * rising * sigma
    return total + psi_part


def _residue_total(kind: KernelKind, p: int, r: PartialFractionRational, wp: int) -> mpf:
    """sum over poles of r of Res(kernel * Psi-jet/(p-1)! * r, beta)."""
    total = mpf(0)
    by_pole: dict[Fraction, list[tuple[int, Fraction]]] = {}
    for beta, m, c in r.terms:
        by_pole.setdefault(beta, []).append((m, c))
    for beta, parts in by_pole.items():
        M = max(m for m, _ in parts)
        K = M + 2
        kj = kernel_jet(kind, beta, K, wp)
        pj = jet_scale(psi_jet(p, beta, K, wp), Fraction(1, factorial(p - 1)))
        coeffs = [Fraction(0)] * (K + 1)
        for m, c in parts:
            coeffs[M - m] += c
        for beta2, m2, c2 in r.terms:
            if beta2 == beta:
                continue
            delta = beta - beta2
            for jj in range(K - M + 1):
                coeffs[M + jj] += c2 * (-1) ** jj * comb(m2 + jj - 1, jj) / delta ** (m2 + jj)
        rj = jet_from_coeffs(beta, coeffs, wp, pole_order=M)
        total += jet_residue(jet_mul(jet_mul(kj, pj), rj))
    return total


def _verify_residue(kern: _Kernel, family: str, p: int, r: PartialFractionRational,
                    prec: int, tolerance) -> VerificationReport:
    """Residue-sum-zero check: Theorems 3.6 (tangent) and 3.7 (secant)."""
    t0 = time.perf_counter()
    if p < 1:
        raise HypothesisError("requires p >= 1")
    wp = prec + 24
    with mp.workprec(wp):
        tol = tolerance_mpf(tolerance, wp)
        pf1 = _half_shift_pf(r, False)
        pf2 = _half_shift_pf(r, True)
        sgn = 1 if p % 2 == 0 else -1
        tp = ttilde(p, wp)
        sum1 = accel_linear_sum(p, 0, kern.sigma, pf1, wp)
        rat1 = accel_linear_sum(None, 0, kern.sigma, pf1, wp)
        term1 = -kern.sigma * (sgn * tp * rat1.value + sum1.value)
        sum2 = accel_linear_sum(p, 1, kern.sigma, pf2, wp)
        rat2 = accel_linear_sum(None, 0, kern.sigma, pf2, wp)
        term2 = -sgn * (tp * rat2.value - sum2.value)
        term3 = mpf(0)
        for j in range(kern.first_j, p + 1, 2):
            d = p - j
            term3 += kern.sigma * (2 * kern.tt(j, wp) / factorial(d)
                                   * _derivative_sum(r, d, wp, kern.sigma < 0))
        term4 = _residue_total(kern.kind, p, r, wp)
        total = round_to(term1 + term2 + term3 + term4, prec)
    params = {"p": p, "r": r.text()}
    return _report(f"{family}[p={p},r={r.text()}]", family, params, total, mpf(0),
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
    from .series import harmonic, odd_harmonic
    wp = prec + 16
    with mp.workprec(wp):
        for p in (1, 2, 3):
            fac = factorial(p - 1)
            sgn = 1 if p % 2 == 0 else -1
            for n in range(4):
                # expansion at the integer pole n
                jet = psi_jet(p, Fraction(n), order, wp)
                note(jet.coeffs[0] / fac, mpf(1))
                for i in range(1, min(p, order + 1)):
                    note(jet.coeffs[i], mpf(0))
                for j in range(p, order + 1):
                    i = j
                    zi = -2 * real_const("log2", wp) if i == 1 else riemann_zeta(i, wp)
                    closed = sgn * comb(i - 1, p - 1) * (
                        (-1) ** i * to_mpf(harmonic(n, i), wp) + zi)
                    note(jet.coeffs[j] / fac, closed)
                # expansion at n - 1/2 (analytic)
                jet = psi_jet(p, Fraction(2 * n - 1, 2), order, wp)
                for j in range(order + 1):
                    i = p + j
                    closed = sgn * comb(i - 1, p - 1) * (
                        (-1) ** i * to_mpf(odd_harmonic(n, i), wp) + ttilde(i, wp))
                    note(jet.coeffs[j], closed * fac)
                # expansion at 1/2 - n (analytic), n >= 1
                if n >= 1:
                    jet = psi_jet(p, Fraction(1 - 2 * n, 2), order, wp)
                    for j in range(order + 1):
                        i = p + j
                        closed = sgn * comb(i - 1, p - 1) * (
                            ttilde(i, wp) - to_mpf(odd_harmonic(n - 1, i), wp))
                        note(jet.coeffs[j], closed * fac)


def _lemma_trig_checks(order: int, prec: int, note) -> None:
    """Compare trig kernel jets against the closed expansion coefficients."""
    wp = prec + 16
    with mp.workprec(wp):
        for n in range(4):
            # tangent kernel at the integer n: odd coefficients 2*ttilde(j+1)
            jet = kernel_jet(KernelKind.PI_TAN, Fraction(n), order, wp)
            for j in range(order + 1):
                closed = 2 * ttilde(j + 1, wp) if j % 2 == 1 else mpf(0)
                note(jet.coeffs[j], closed)
                # derivative form: j! c_j vs (1 - (-1)^j) j! ttilde(j+1)
                note(factorial(j) * jet.coeffs[j],
                      (1 - (-1) ** j) * factorial(j) * ttilde(j + 1, wp))
            # secant kernel at n: even coefficients (-1)^(n-1) 2 ttilde_bar(j+1)
            jet = kernel_jet(KernelKind.PI_OVER_COS, Fraction(n), order, wp)
            for j in range(order + 1):
                closed = (-1) ** (n - 1) * 2 * ttilde_bar(j + 1, wp) if j % 2 == 0 else mpf(0)
                note(jet.coeffs[j], closed)
                note(factorial(j) * jet.coeffs[j],
                      (-1) ** (n - 1) * (1 + (-1) ** j) * factorial(j) * ttilde_bar(j + 1, wp))
            # tangent kernel at the pole n - 1/2
            jet = kernel_jet(KernelKind.PI_TAN, Fraction(2 * n - 1, 2), order, wp)
            note(jet.coeffs[0], mpf(-1))
            for j in range(1, order + 1):
                closed = 2 * riemann_zeta(j, wp) if (j % 2 == 0 and j >= 2) else mpf(0)
                note(jet.coeffs[j], closed)
            # secant kernel at the pole n - 1/2
            jet = kernel_jet(KernelKind.PI_OVER_COS, Fraction(2 * n - 1, 2), order, wp)
            s = (-1) ** n
            note(jet.coeffs[0], mpf(s))
            for j in range(1, order + 1):
                closed = s * 2 * alt_zeta(j, wp) if (j % 2 == 0 and j >= 2) else mpf(0)
                note(jet.coeffs[j], closed)


def verify_kernel_expansions(order: int, prec: int, tolerance,
                             parts: tuple[str, ...] = ("lemma2_3", "lemma2_4")) -> VerificationReport:
    """Check jet coefficients against the closed expansion formulas."""
    t0 = time.perf_counter()
    if order > 8:
        raise HypothesisError("expansion checks support order <= 8")
    tol = tolerance_mpf(tolerance, prec + 16)
    worst = _Worst()
    for part in parts:
        if part == "lemma2_3":
            _lemma_psi_checks(order, prec, worst.note)
        elif part == "lemma2_4":
            _lemma_trig_checks(order, prec, worst.note)
        else:
            raise HypothesisError(f"unknown expansion part {part!r}")
    family = parts[0] if len(parts) == 1 else "lemma2_3+lemma2_4"
    params = {"order": order}
    case_id = f"{family}[order={order}]"
    return _report(case_id, family, params, worst.lhs, worst.rhs, tol, prec, worst.count, t0)
