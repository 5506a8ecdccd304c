"""Seeded inputs of the benchmark workloads, as ``tsum`` command lines.

Every workload is a list of calls into ``tsum.cli.main``.  The seed picks
the inputs; seed 0 reproduces the defaults of the CLI (and the README
examples for ``eval``).  Inputs of other seeds keep the shape of the seed-0
inputs (same families and case counts, same exponents), so
the cost of a run moves little from seed to seed, and every drawn input
satisfies the hypotheses of the identities it feeds, so no check fails on
a correct program.

Left out on purpose (README.md gives the reasons at length):
``tsum eval --p 1,1 --q 3 --a 1/2`` (exits 1 after about five minutes;
it is the acceptance test of the r >= 2 acceleration, not a workload),
``--workers 2`` scaling (a shared 2-CPU machine gives no steady
wall-clock scaling figure) and the tier-1 pytest run (the test suite).

This module imports only the standard library, so loading it never
touches the import time of ``tsum`` that the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("verify-192", "pair-1024", "eval-direct")

# `tsum verify` with every default: 18 families, 192 bits, 1e-40, order 6,
# weight-max 9.  These three pairs give the 145 cases of the default suite.
DEFAULT_PAIRS = ((Fraction(1, 4), Fraction(1, 3)),
                 (Fraction(1, 5), Fraction(2, 5)),
                 (Fraction(1, 7), Fraction(-1, 7)))
VERIFY_CASES = 145
PAIR_CASES = 10  # thm3_1 and thm3_4 at p = 1..5 for one pair

# Shifts with 0 < |a| < 1/2 and denominator 3..9: any two distinct ones meet
# the hypotheses of the pair theorems (`_check_ab`).
SHIFT_POOL = tuple(sorted(
    {sign * Fraction(k, d) for d in range(3, 10) for k in range(1, d)
     if gcd(k, d) == 1 and Fraction(k, d) < Fraction(1, 2) for sign in (1, -1)}))

NAIVE_TERMS = 20000  # the forced-naive budget the tests use as an oracle


@dataclass(frozen=True)
class Call:
    """One ``tsum`` invocation of a workload and what its check needs."""

    argv: tuple[str, ...]
    kind: str  # "verify", "eval-r2" or "eval-naive"
    expected_cases: int = 0
    spec: tuple = ()  # (p, q, a, sigma, offset, precision_bits) for eval calls

    def cross_check_argv(self) -> tuple[str, ...]:
        """The accelerated evaluation of an ``eval-naive`` call's series."""
        p, q, a, sigma, offset, prec = self.spec
        return _eval_argv(p, q, a, sigma, offset, prec, ("--method", "accelerated"))


def _fmt_samples(pairs) -> str:
    # passed as --samples=..., since a leading minus would read as an option
    return ";".join(f"{a},{b}" for a, b in pairs)


def _eval_argv(p, q, a, sigma, offset, prec, extra=()) -> tuple[str, ...]:
    argv = ["eval", "--q", ",".join(map(str, q)), "--a=" + ",".join(map(str, a)),
            "--sigma", str(sigma), "--offset", offset, "--precision-bits", str(prec),
            "--format", "json", *extra]
    if p:
        argv[1:1] = ["--p", ",".join(map(str, p))]
    return tuple(argv)


def _eval_call(kind, p, q, a, sigma, offset, prec, extra=()) -> Call:
    spec = (tuple(p), tuple(q), tuple(Fraction(v) for v in a), sigma, offset, prec)
    return Call(_eval_argv(*spec, extra), kind, spec=spec)


def _verify_192(rng: random.Random | None) -> list[Call]:
    """The default suite; other seeds redraw the sign and numerator of each
    pair component but keep its denominator, so the suite keeps its 145
    cases and its cost (which follows the denominators) moves little."""
    if rng is None:
        pairs = DEFAULT_PAIRS
    else:
        pairs = tuple(_redraw_pair(rng, pair) for pair in DEFAULT_PAIRS)
    return [Call(("verify", "--samples=" + _fmt_samples(pairs)), "verify", VERIFY_CASES)]


def _redraw(rng: random.Random, d: int) -> Fraction:
    """A random sign and numerator k < d/2 over the denominator d."""
    sign = rng.choice((1, -1))
    return sign * Fraction(rng.choice([k for k in range(1, d) if gcd(k, d) == 1 and 2 * k < d]), d)


def _redraw_pair(rng: random.Random, pair) -> tuple[Fraction, Fraction]:
    """``pair`` redrawn over its denominators, with a != b as the pair
    theorems require."""
    while True:
        a, b = (_redraw(rng, v.denominator) for v in pair)
        if a != b:
            return a, b


def _pair_1024(rng: random.Random | None) -> list[Call]:
    pair = DEFAULT_PAIRS[0] if rng is None else tuple(rng.sample(SHIFT_POOL, 2))
    argv = ("verify", "--families", "thm3_1,thm3_4", "--precision-bits", "1024",
            "--tolerance", "1e-290", "--samples=" + _fmt_samples([pair]))
    return [Call(argv, "verify", PAIR_CASES)]


def _eval_direct(rng: random.Random | None) -> list[Call]:
    """Three r = 2 sums on the auto path and two forced-naive r = 1 sums.

    The r = 2 sums alternate (sigma = -1) with denominator weight >= 4, so
    the first 16384-term round of the direct summation meets the 64-bit
    target.  The r = 1 sums use the oracle settings of the tests.
    """
    naive = ("--method", "naive", "--max-terms", str(NAIVE_TERMS))
    # (p, q) of each call; the cost of a term follows the exponents, so
    # other seeds redraw only the shifts, the offsets and sigma
    r2_shapes = [((1, 1), (4,)), ((1, 2), (5,)), ((1, 1), (2, 2))]
    r1_shapes = [((2,), (2,)), ((1,), (1,))]
    if rng is None:
        r2_shifts = [(Fraction(1, 3),), (Fraction(1, 4),), (Fraction(1, 3), Fraction(2, 5))]
        r2_offsets = ["cur", "prev", "cur"]
        # the README's two `tsum eval` examples
        r1 = [((0,), 1, "prev"), ((0,), -1, "cur")]
    else:
        shifts = (Fraction(0),) + SHIFT_POOL
        # a >= 0 keeps n + a - 1/2 >= 1/2, so no early term is large enough
        # for its rounding error alone to miss the 64-bit target
        nonnegative = [v for v in shifts if v >= 0]
        r2_shifts = [tuple(rng.sample(nonnegative, len(q))) for _, q in r2_shapes]
        r2_offsets = [rng.choice(("cur", "prev")) for _ in r2_shapes]
        # sigma = +1 needs denominator weight >= 2
        r1 = [((rng.choice(shifts),), rng.choice((1, -1)) if sum(q) >= 2 else -1,
               rng.choice(("cur", "prev"))) for _, q in r1_shapes]
    calls = [_eval_call("eval-r2", p, q, a, -1, off, 64)
             for (p, q), a, off in zip(r2_shapes, r2_shifts, r2_offsets)]
    calls += [_eval_call("eval-naive", p, q, a, sigma, off, 128, naive)
              for (p, q), (a, sigma, off) in zip(r1_shapes, r1)]
    return calls


_INPUTS = {"verify-192": _verify_192, "pair-1024": _pair_1024, "eval-direct": _eval_direct}


def build(workload: str, seed: int) -> list[Call]:
    """The calls of ``workload`` for ``seed``; seed 0 gives the CLI defaults."""
    if workload not in _INPUTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    return _INPUTS[workload](rng)
