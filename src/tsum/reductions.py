"""Exact symbolic closed forms for double t/T values.

Expressions are finite Q-linear combinations of degree <= 2 monomials in the
basis constants zeta(k), zetabar(k), t(k), tbar(k), T(k), Tbar(k), log2 and
pi.  Divergent boundary symbols never survive construction: zeta(1) is
rewritten to -2*log2, zetabar(1) to log2, and any monomial containing t(1)
is dropped.  Every emitted reduction is weight-homogeneous of weight
s1 + s2 (log2 and pi count 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

from mpmath import mp, mpf

from .numeric import real_const, round_to, to_mpf
from .series import SeriesResult, double_t, double_T
from .special import (
    alt_zeta,
    riemann_zeta,
    single_t,
    single_t_bar,
    single_T,
    single_T_bar,
)

_KIND_ORDER = ("zeta", "zetabar", "t", "tbar", "T", "Tbar", "log2", "pi")


class ReductionDomainError(ValueError):
    """(j, m) outside the stated domain of a reduction family."""


@dataclass(frozen=True)
class Symbol:
    kind: str
    arg: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind in ("log2", "pi"):
            if self.arg != 0:
                raise ValueError(f"{self.kind} takes no argument")
        elif self.arg < 1:
            raise ValueError(f"{self.kind} needs a positive argument")

    @property
    def weight(self) -> int:
        return self.arg if self.arg else 1

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER.index(self.kind), self.arg)

    def text(self) -> str:
        if self.kind in ("log2", "pi"):
            return self.kind
        return f"{self.kind}({self.arg})"


Monomial = tuple[Symbol, ...]


def _rewrite(coeff: Fraction, symbols: Iterable[Symbol]) -> Optional[tuple[Fraction, Monomial]]:
    """Apply the boundary conventions; None means the term is annihilated."""
    out: list[Symbol] = []
    for s in symbols:
        if s.kind == "t" and s.arg == 1:
            return None
        if s.kind == "zeta" and s.arg == 1:
            coeff *= -2
            s = Symbol("log2")
        elif s.kind == "zetabar" and s.arg == 1:
            s = Symbol("log2")
        elif s.kind == "T" and s.arg == 1:
            raise ValueError("divergent symbol T(1) has no convention")
        out.append(s)
    if len(out) > 2:
        raise ValueError("monomial degree must be <= 2")
    return coeff, tuple(sorted(out, key=Symbol.sort_key))


class SymbolicExpr:
    """Canonical Q-linear combination of degree <= 2 basis monomials."""

    def __init__(self):
        self.terms: dict[Monomial, Fraction] = {}

    def add(self, coeff, symbols: Iterable[Symbol]) -> "SymbolicExpr":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self
        rewritten = _rewrite(coeff, symbols)
        if rewritten is None:
            return self
        coeff, mono = rewritten
        new = self.terms.get(mono, Fraction(0)) + coeff
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new
        return self

    def __iter__(self):
        return iter(sorted(self.terms.items(),
                           key=lambda kv: tuple(s.sort_key() for s in kv[0])))

    def __eq__(self, other):
        return isinstance(other, SymbolicExpr) and self.terms == other.terms

    def weights(self) -> set[int]:
        return {sum(s.weight for s in mono) for mono in self.terms}

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self:
            body = " * ".join(s.text() for s in mono)
            parts.append(f"{coeff} * {body}" if body else str(coeff))
        return " + ".join(parts)

    def to_record(self) -> dict:
        return {
            "terms": [
                {"coeff": str(coeff), "symbols": [{"kind": s.kind, "arg": s.arg} for s in mono]}
                for mono, coeff in self
            ],
        }


def _sym_value(s: Symbol, prec: int) -> mpf:
    if s.kind == "zeta":
        return riemann_zeta(s.arg, prec)
    if s.kind == "zetabar":
        return alt_zeta(s.arg, prec)
    if s.kind == "t":
        return single_t(s.arg, prec)
    if s.kind == "tbar":
        return single_t_bar(s.arg, prec)
    if s.kind == "T":
        return single_T(s.arg, prec)
    if s.kind == "Tbar":
        return single_T_bar(s.arg, prec)
    if s.kind == "log2":
        return real_const("log2", prec)
    return real_const("pi", prec)


def eval_symbolic(expr: SymbolicExpr, prec: int) -> mpf:
    """Numeric value of ``expr`` with every symbol replaced by its constant."""
    wp = prec + 16
    with mp.workprec(wp):
        total = mpf(0)
        for mono, coeff in expr:
            v = to_mpf(coeff, wp)
            for s in mono:
                v *= _sym_value(s, wp)
            total += v
        return round_to(total, prec)


def normalize_to_zeta(expr: SymbolicExpr) -> SymbolicExpr:
    """Rewrite t(k) and T(k) symbols into zeta(k) with exact factors.

    tbar/Tbar symbols are left untouched; the pass is idempotent and
    value-preserving.
    """
    out = SymbolicExpr()
    for mono, coeff in expr:
        syms = []
        for s in mono:
            if s.kind == "t":
                coeff = coeff * (1 - Fraction(1, 2 ** s.arg))
                syms.append(Symbol("zeta", s.arg))
            elif s.kind == "T":
                coeff = coeff * 2 * (1 - Fraction(1, 2 ** s.arg))
                syms.append(Symbol("zeta", s.arg))
            else:
                syms.append(s)
        out.add(coeff, syms)
    return out


# ---------------------------------------------------------------------------
# The eight reduction families
# ---------------------------------------------------------------------------

def _half_power(n: int) -> Fraction:
    return Fraction(1, 2 ** n)


def reduce_t_even_odd(j: int, m: int) -> SymbolicExpr:
    """t(2j, 2m+1) for j >= 1, m >= 0."""
    if j < 1 or m < 0:
        raise ReductionDomainError("t_even_odd requires j >= 1, m >= 0")
    e = SymbolicExpr()
    e.add(1, [Symbol("t", 2 * j), Symbol("t", 2 * m + 1)])
    e.add(Fraction(-1, 2), [Symbol("t", 2 * j + 2 * m + 1)])
    for k in range(1, m + 1):
        w = 2 * j + 2 * m - 2 * k + 1
        e.add(-comb(w - 1, 2 * j - 1) * _half_power(w),
              [Symbol("zeta", w), Symbol("t", 2 * k)])
    for l in range(1, j + 1):
        w = 2 * j + 2 * m - 2 * l + 1
        e.add(-comb(w - 1, 2 * m) * _half_power(w),
              [Symbol("zeta", w), Symbol("t", 2 * l)])
    return e


def reduce_t_odd_even(j: int, m: int) -> SymbolicExpr:
    """t(2j+1, 2m) for j, m >= 1."""
    if j < 1 or m < 1:
        raise ReductionDomainError("t_odd_even requires j >= 1, m >= 1")
    e = SymbolicExpr()
    e.add(Fraction(-1, 2), [Symbol("t", 2 * j + 2 * m + 1)])
    for k in range(1, m + 1):
        w = 2 * j + 2 * m - 2 * k + 1
        e.add(comb(w - 1, 2 * j) * _half_power(w),
              [Symbol("zeta", w), Symbol("t", 2 * k)])
    for l in range(1, j + 1):
        w = 2 * j + 2 * m - 2 * l + 1
        e.add(comb(w - 1, 2 * m - 1) * _half_power(w),
              [Symbol("zeta", w), Symbol("t", 2 * l)])
    return e


def reduce_t_bar_even(j: int, m: int) -> SymbolicExpr:
    """t(2j with bar, 2m) for j, m >= 1."""
    if j < 1 or m < 1:
        raise ReductionDomainError("t_bar_even requires j >= 1, m >= 1")
    e = SymbolicExpr()
    e.add(Fraction(-1, 2), [Symbol("tbar", 2 * j + 2 * m)])
    for k in range(0, m):
        w = 2 * j + 2 * m - 2 * k - 1
        e.add(comb(w - 1, 2 * j - 1) * _half_power(w),
              [Symbol("zetabar", w), Symbol("tbar", 2 * k + 1)])
    for l in range(0, j):
        w = 2 * j + 2 * m - 2 * l - 1
        e.add(comb(w - 1, 2 * m - 1) * _half_power(w),
              [Symbol("zeta", w), Symbol("tbar", 2 * l + 1)])
    return e


def reduce_t_bar_odd(j: int, m: int) -> SymbolicExpr:
    """t(2j+1 with bar, 2m+1) for j, m >= 0."""
    if j < 0 or m < 0:
        raise ReductionDomainError("t_bar_odd requires j >= 0, m >= 0")
    e = SymbolicExpr()
    e.add(1, [Symbol("tbar", 2 * j + 1), Symbol("t", 2 * m + 1)])
    e.add(Fraction(-1, 2), [Symbol("tbar", 2 * j + 2 * m + 2)])
    for k in range(0, m + 1):
        w = 2 * j + 2 * m - 2 * k + 1
        e.add(-comb(w - 1, 2 * j) * _half_power(w),
              [Symbol("zetabar", w), Symbol("tbar", 2 * k + 1)])
    for l in range(0, j + 1):
        w = 2 * j + 2 * m - 2 * l + 1
        e.add(-comb(w - 1, 2 * m) * _half_power(w),
              [Symbol("zeta", w), Symbol("tbar", 2 * l + 1)])
    return e


def reduce_T_even_odd(j: int, m: int) -> SymbolicExpr:
    """T(2j, 2m+1) for j >= 1, m >= 0."""
    if j < 1 or m < 0:
        raise ReductionDomainError("T_even_odd requires j >= 1, m >= 0")
    e = SymbolicExpr()
    e.add(comb(2 * m + 2 * j, 2 * m), [Symbol("T", 2 * m + 2 * j + 1)])
    for k in range(1, m + 1):
        e.add(-comb(2 * m + 2 * j - 2 * k, 2 * j - 1),
              [Symbol("T", 2 * m + 2 * j - 2 * k + 1), Symbol("T", 2 * k)])
    for l in range(1, j):
        e.add(-comb(2 * m + 2 * j - 2 * l, 2 * m) * _half_power(2 * l - 1),
              [Symbol("zeta", 2 * l), Symbol("T", 2 * m + 2 * j - 2 * l + 1)])
    return e


def reduce_T_odd_even(j: int, m: int) -> SymbolicExpr:
    """T(2j+1, 2m) for j, m >= 1."""
    if j < 1 or m < 1:
        raise ReductionDomainError("T_odd_even requires j >= 1, m >= 1")
    e = SymbolicExpr()
    e.add(-comb(2 * m + 2 * j, 2 * j + 1), [Symbol("T", 2 * m + 2 * j + 1)])
    for k in range(1, m + 1):
        e.add(comb(2 * m + 2 * j - 2 * k, 2 * j),
              [Symbol("T", 2 * m + 2 * j - 2 * k + 1), Symbol("T", 2 * k)])
    for l in range(1, j + 1):
        e.add(comb(2 * m + 2 * j - 2 * l, 2 * m - 1) * _half_power(2 * l - 1),
              [Symbol("zeta", 2 * l), Symbol("T", 2 * m + 2 * j - 2 * l + 1)])
    return e


def reduce_T_bar_even(j: int, m: int) -> SymbolicExpr:
    """T(2j with bar, 2m+1) for j >= 1, m >= 0."""
    if j < 1 or m < 0:
        raise ReductionDomainError("T_bar_even requires j >= 1, m >= 0")
    e = SymbolicExpr()
    e.add(-comb(2 * m + 2 * j, 2 * m), [Symbol("T", 2 * m + 2 * j + 1)])
    for k in range(0, m + 1):
        e.add(comb(2 * m + 2 * j - 2 * k - 1, 2 * j - 1),
              [Symbol("Tbar", 2 * m + 2 * j - 2 * k), Symbol("Tbar", 2 * k + 1)])
    for l in range(1, j):
        e.add(-comb(2 * m + 2 * j - 2 * l, 2 * m) * _half_power(2 * l - 1),
              [Symbol("zetabar", 2 * l), Symbol("T", 2 * m + 2 * j - 2 * l + 1)])
    return e


def reduce_T_bar_odd(j: int, m: int) -> SymbolicExpr:
    """T(2j+1 with bar, 2m) for j >= 0, m >= 1."""
    if j < 0 or m < 1:
        raise ReductionDomainError("T_bar_odd requires j >= 0, m >= 1")
    e = SymbolicExpr()
    e.add(comb(2 * m + 2 * j, 2 * j + 1), [Symbol("T", 2 * m + 2 * j + 1)])
    for k in range(0, m):
        e.add(-comb(2 * m + 2 * j - 2 * k - 1, 2 * j),
              [Symbol("Tbar", 2 * m + 2 * j - 2 * k), Symbol("Tbar", 2 * k + 1)])
    for l in range(1, j + 1):
        e.add(comb(2 * m + 2 * j - 2 * l, 2 * m - 1) * _half_power(2 * l - 1),
              [Symbol("zetabar", 2 * l), Symbol("T", 2 * m + 2 * j - 2 * l + 1)])
    return e


# ---------------------------------------------------------------------------
# Family registry: domains, weights and series oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    name: str
    reduce: callable
    jmin: int
    mmin: int
    s1: callable  # (j, m) -> leading exponent
    s2: callable
    bar1: bool
    big: bool  # T family vs t family

    def weight(self, j: int, m: int) -> int:
        return self.s1(j, m) + self.s2(j, m)

    def oracle(self, j: int, m: int, prec: int) -> SeriesResult:
        s1, s2 = self.s1(j, m), self.s2(j, m)
        if self.big:
            return double_T(s1, s2, self.bar1, prec)
        return double_t(s1, s2, self.bar1, prec)

    def label(self, j: int, m: int) -> str:
        s1, s2 = self.s1(j, m), self.s2(j, m)
        name = "T" if self.big else "t"
        bar = "-" if self.bar1 else ""
        return f"{name}({s1}{bar},{s2})"

    def pairs_up_to_weight(self, weight_max: int) -> list[tuple[int, int]]:
        out = []
        j = self.jmin
        while self.weight(j, self.mmin) <= weight_max:
            m = self.mmin
            while self.weight(j, m) <= weight_max:
                out.append((j, m))
                m += 1
            j += 1
        return out


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in [
        Family("t_even_odd", reduce_t_even_odd, 1, 0,
               lambda j, m: 2 * j, lambda j, m: 2 * m + 1, False, False),
        Family("t_odd_even", reduce_t_odd_even, 1, 1,
               lambda j, m: 2 * j + 1, lambda j, m: 2 * m, False, False),
        Family("t_bar_even", reduce_t_bar_even, 1, 1,
               lambda j, m: 2 * j, lambda j, m: 2 * m, True, False),
        Family("t_bar_odd", reduce_t_bar_odd, 0, 0,
               lambda j, m: 2 * j + 1, lambda j, m: 2 * m + 1, True, False),
        Family("T_even_odd", reduce_T_even_odd, 1, 0,
               lambda j, m: 2 * j, lambda j, m: 2 * m + 1, False, True),
        Family("T_odd_even", reduce_T_odd_even, 1, 1,
               lambda j, m: 2 * j + 1, lambda j, m: 2 * m, False, True),
        Family("T_bar_even", reduce_T_bar_even, 1, 0,
               lambda j, m: 2 * j, lambda j, m: 2 * m + 1, True, True),
        Family("T_bar_odd", reduce_T_bar_odd, 0, 1,
               lambda j, m: 2 * j + 1, lambda j, m: 2 * m, True, True),
    ]
}
