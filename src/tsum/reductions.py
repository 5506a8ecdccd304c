"""Exact symbolic closed forms for double t/T values.

Expressions are finite Q-linear combinations of degree <= 2 monomials in the
basis constants zeta(k), zetabar(k), t(k), tbar(k), T(k), Tbar(k), log2 and
pi.  Divergent boundary symbols never survive construction: zeta(1) is
rewritten to -2*log2, zetabar(1) to log2, and any monomial containing t(1)
is dropped.  Every emitted reduction is weight-homogeneous of weight
s1 + s2 (log2 and pi count 1).

Two closed forms in (s1, s2) build all eight families: Hoffman's
(alternating) double t-values and Kaneko-Tsumura's (alternating) double
T-values.  A family fixes the slot parities, (s1, s2) = (2j + e1, 2m + e2),
and whether s1 carries the bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2, prod
from typing import Iterable, Optional

from mpmath import mpf

from .numeric import check_integer
from .series import SeriesResult, double_t, double_T
from .special import (
    Terms,
    alt_zeta,
    kernel_sums,
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


def _sym_value(s: Symbol) -> Terms:
    """The constant of ``s`` as one kernel term."""
    if s.kind == "zeta":
        return riemann_zeta(s.arg, None)
    if s.kind == "zetabar":
        return alt_zeta(s.arg, None)
    if s.kind == "t":
        return single_t(s.arg, None)
    if s.kind == "tbar":
        return single_t_bar(s.arg, None)
    if s.kind == "T":
        return single_T(s.arg, None)
    if s.kind == "Tbar":
        return single_T_bar(s.arg, None)
    if s.kind == "log2":
        return alt_zeta(1, None)
    return -4 * single_t_bar(1, None)


def eval_symbolic(expr: SymbolicExpr, prec: int) -> mpf:
    """Numeric value of ``expr`` with every symbol replaced by its constant:
    one sum of products of kernel values (``special.kernel_sums``), rounded
    once at ``prec``.

    Symbols that share a kernel value merge exactly, so T(3) - 2 t(3) is 0.
    The terms of a reduction cancel, by about 1.6 bits per unit of weight,
    so the guard starts at 16 + log2(3) bits per unit of weight, and rises
    from there only by the loss measured.  An expression whose value is 0
    but whose terms do not merge, such as zeta(2) - pi^2/6, raises
    ArithmeticError past 2048 guard bits.
    """
    terms = Terms()
    for mono, coeff in expr:
        terms += prod(map(_sym_value, mono), start=Terms([(coeff, ())]))
    weight = max(expr.weights(), default=0)
    return kernel_sums([terms], prec, 16 + int(log2(3) * weight))[0]


def normalize_to_zeta(expr: SymbolicExpr) -> SymbolicExpr:
    """Rewrite t(k) and T(k) symbols into zeta(k) with exact factors.

    tbar/Tbar symbols are left untouched; the pass is idempotent and
    value-preserving.
    """
    out = SymbolicExpr()
    for mono, coeff in expr:
        syms = []
        for s in mono:
            if s.kind in ("t", "T"):
                coeff *= (2 if s.kind == "T" else 1) * (1 - Fraction(1, 2 ** s.arg))
                s = Symbol("zeta", s.arg)
            syms.append(s)
        out.add(coeff, syms)
    return out


# ---------------------------------------------------------------------------
# The two closed forms and the eight reduction families
# ---------------------------------------------------------------------------

def _slot_range(s: int, bar: bool) -> range:
    """The even slots 2, 4, ... <= s, or the odd slots 1, 3, ... <= s when ``bar``."""
    return range(1 if bar else 2, s + 1, 2)


def _t_form(s1: int, s2: int, bar: bool) -> SymbolicExpr:
    """Hoffman's t(s1, s2), or t(s1 with bar, s2) when ``bar``."""
    w = s1 + s2
    x, z = ("tbar", "zetabar") if bar else ("t", "zeta")
    sign = (-1) ** (s1 - 1 + bar)
    e = SymbolicExpr()
    if s2 % 2:
        e.add(1, [Symbol(x, s1), Symbol("t", s2)])
    e.add(Fraction(-1, 2), [Symbol(x, w)])
    for i in _slot_range(s2, bar):
        e.add(sign * comb(w - i - 1, s1 - 1) * Fraction(2) ** (i - w),
              [Symbol(z, w - i), Symbol(x, i)])
    for i in _slot_range(s1, bar):
        e.add(sign * comb(w - i - 1, s2 - 1) * Fraction(2) ** (i - w),
              [Symbol("zeta", w - i), Symbol(x, i)])
    return e


def _T_form(s1: int, s2: int, bar: bool) -> SymbolicExpr:
    """Kaneko-Tsumura's T(s1, s2), or T(s1 with bar, s2) when ``bar``."""
    w = s1 + s2
    y, z = ("Tbar", "zetabar") if bar else ("T", "zeta")
    sign = (-1) ** (s1 - 1)
    phi = -1 if bar else 1
    e = SymbolicExpr()
    e.add(-sign * phi * comb(w - 1, s1), [Symbol("T", w)])
    for i in _slot_range(s2, bar):
        e.add(sign * phi * comb(w - i - 1, s1 - 1), [Symbol(y, w - i), Symbol(y, i)])
    for i in _slot_range(s1 - 1, False):
        e.add(sign * comb(w - i - 1, s2 - 1) * Fraction(2) ** (1 - i),
              [Symbol(z, i), Symbol("T", w - i)])
    return e


def _reduce(name: str, j: int, m: int) -> SymbolicExpr:
    fam = FAMILIES[name]
    j, m = (check_integer(j, name, ReductionDomainError),
            check_integer(m, name, ReductionDomainError))
    if j < fam.jmin or m < fam.mmin:
        raise ReductionDomainError(f"{name} requires j >= {fam.jmin}, m >= {fam.mmin}")
    return (_T_form if fam.big else _t_form)(*fam._slots(j, m), fam.bar1)


def reduce_t_even_odd(j: int, m: int) -> SymbolicExpr:
    """t(2j, 2m+1) for j >= 1, m >= 0."""
    return _reduce("t_even_odd", j, m)


def reduce_t_odd_even(j: int, m: int) -> SymbolicExpr:
    """t(2j+1, 2m) for j, m >= 1."""
    return _reduce("t_odd_even", j, m)


def reduce_t_bar_even(j: int, m: int) -> SymbolicExpr:
    """t(2j with bar, 2m) for j, m >= 1."""
    return _reduce("t_bar_even", j, m)


def reduce_t_bar_odd(j: int, m: int) -> SymbolicExpr:
    """t(2j+1 with bar, 2m+1) for j, m >= 0."""
    return _reduce("t_bar_odd", j, m)


def reduce_T_even_odd(j: int, m: int) -> SymbolicExpr:
    """T(2j, 2m+1) for j >= 1, m >= 0."""
    return _reduce("T_even_odd", j, m)


def reduce_T_odd_even(j: int, m: int) -> SymbolicExpr:
    """T(2j+1, 2m) for j, m >= 1."""
    return _reduce("T_odd_even", j, m)


def reduce_T_bar_even(j: int, m: int) -> SymbolicExpr:
    """T(2j with bar, 2m+1) for j >= 1, m >= 0."""
    return _reduce("T_bar_even", j, m)


def reduce_T_bar_odd(j: int, m: int) -> SymbolicExpr:
    """T(2j+1 with bar, 2m) for j >= 0, m >= 1."""
    return _reduce("T_bar_odd", j, m)


# ---------------------------------------------------------------------------
# Family registry: domains, slot parities and series oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    name: str
    reduce: callable
    jmin: int
    mmin: int
    e1: int  # (s1, s2) = (2j + e1, 2m + e2)
    e2: int
    bar1: bool
    big: bool  # T family vs t family

    def _slots(self, j: int, m: int) -> tuple[int, int]:
        return 2 * j + self.e1, 2 * m + self.e2

    def weight(self, j: int, m: int) -> int:
        return sum(self._slots(j, m))

    def oracle(self, j: int, m: int, prec: int) -> SeriesResult:
        return (double_T if self.big else double_t)(*self._slots(j, m), self.bar1, prec)

    def label(self, j: int, m: int) -> str:
        s1, s2 = self._slots(j, m)
        name = "T" if self.big else "t"
        bar = "-" if self.bar1 else ""
        return f"{name}({s1}{bar},{s2})"

    def pairs_up_to_weight(self, weight_max: int) -> list[tuple[int, int]]:
        top = weight_max - self.e1 - self.e2  # 2j + 2m <= top
        return [(j, m) for j in range(self.jmin, (top - 2 * self.mmin) // 2 + 1)
                for m in range(self.mmin, (top - 2 * j) // 2 + 1)]


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in [
        Family("t_even_odd", reduce_t_even_odd, 1, 0, 0, 1, False, False),
        Family("t_odd_even", reduce_t_odd_even, 1, 1, 1, 0, False, False),
        Family("t_bar_even", reduce_t_bar_even, 1, 1, 0, 0, True, False),
        Family("t_bar_odd", reduce_t_bar_odd, 0, 0, 1, 1, True, False),
        Family("T_even_odd", reduce_T_even_odd, 1, 0, 0, 1, False, True),
        Family("T_odd_even", reduce_T_odd_even, 1, 1, 1, 0, False, True),
        Family("T_bar_even", reduce_T_bar_even, 1, 0, 0, 1, True, True),
        Family("T_bar_odd", reduce_T_bar_odd, 0, 1, 1, 0, True, True),
    ]
}
