"""Output checks of the benchmark.

Every check adds one to ``Tally.attempted`` and, when it fails, one to
``Tally.failed`` with a message; nothing here raises on a wrong output.
Numbers in reports are parsed exactly as decimal strings (``Fraction``), so
a check never rounds a failing value into a passing one.  The only slack
allowed is the rounding of a printed value to its own number of digits.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


@dataclass
class Output:
    """What one ``tsum`` call returned: exit code (or crash text) and streams."""

    rc: int | str
    stdout: str
    stderr: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def pass_text(outputs: list[Output]) -> str:
    """A pass's outputs as one string, timestamps stripped, for comparisons."""
    return "\n".join(f"rc={o.rc}\n{_TIMESTAMP.sub('', o.stdout)}" for o in outputs)


def _print_slack(values: list[str]) -> Fraction:
    """A bound on the rounding of decimal strings to the digits they carry:
    |v| * 10^(1 - significant digits) is at least one unit in v's last place."""
    total = Fraction(0)
    for v in values:
        mantissa = v.lstrip("+-").split("e")[0].split("E")[0]
        digits = len(mantissa.replace(".", "").lstrip("0")) or 1
        total += abs(Fraction(v)) * Fraction(1, 10 ** (digits - 1))
    return total


def _parse_json(tally: Tally, out: Output, what: str):
    if not tally.check(out.rc == 0, f"{what}: exit {out.rc!r}: {out.stderr.strip()[:200]}"):
        return None
    try:
        return json.loads(out.stdout)
    except ValueError:
        tally.check(False, f"{what}: output is not JSON")
        return None


def check_verify(tally: Tally, out: Output, expected_cases: int) -> None:
    """A `verify` JSON report: the expected cases, each passed, each gap
    (as reported and as |lhs - rhs|) within its tolerance."""
    report = _parse_json(tally, out, "verify")
    if report is None:
        return
    try:
        cases = report["cases"]
        summary = report["summary"]
    except (KeyError, TypeError):
        tally.check(False, "verify: report lacks cases or summary")
        return
    tally.check(len(cases) == expected_cases
                and len({c.get("case_id") for c in cases}) == expected_cases,
                f"verify: {len(cases)} distinct cases, expected {expected_cases}")
    tally.check(summary == {"passed": len(cases), "failed": 0},
                f"verify: summary {summary}")
    for case in cases:
        tally.check(_case_ok(case), f"verify: case {case.get('case_id')} failed its check")


def _case_ok(case: dict) -> bool:
    try:
        lhs, rhs, gap, tol = (case[k] for k in ("lhs", "rhs", "gap", "tolerance"))
        tolerance = Fraction(tol)
        return (case["passed"] is True and Fraction(gap) <= tolerance
                and abs(Fraction(lhs) - Fraction(rhs)) <= tolerance + _print_slack([lhs, rhs]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


def _eval_values(tally: Tally, out: Output, what: str):
    payload = _parse_json(tally, out, what)
    if payload is None:
        return None
    try:
        return payload["value"], payload["tail_bound"]
    except (KeyError, TypeError):
        tally.check(False, f"{what}: payload lacks value or tail_bound")
        return None


def _within(value: str, bound: str, ref: Fraction, ref_err: Fraction) -> bool:
    try:
        return abs(Fraction(value) - ref) <= Fraction(bound) + ref_err + _print_slack([value])
    except (ValueError, ZeroDivisionError):
        return False


def check_eval_naive(tally: Tally, out: Output, accelerated: Output, label: str) -> None:
    """A forced-naive value against the accelerated value of the same series,
    within the sum of both tail bounds."""
    naive = _eval_values(tally, out, f"eval {label}")
    accel = _eval_values(tally, accelerated, f"eval {label} (accelerated)")
    if naive is None or accel is None:
        return
    try:
        ref = Fraction(accel[0])
        ref_err = Fraction(accel[1]) + _print_slack([accel[0]])
    except ValueError:
        tally.check(False, f"eval {label}: accelerated value unreadable")
        return
    tally.check(_within(naive[0], naive[1], ref, ref_err),
                f"eval {label}: naive {naive[0]} vs accelerated {accel[0]}")


def check_eval_reference(tally: Tally, out: Output, ref: Fraction, ref_err: Fraction,
                         label: str) -> None:
    """A value against an independent reference, within its tail bound."""
    got = _eval_values(tally, out, f"eval {label}")
    if got is not None:
        tally.check(_within(got[0], got[1], ref, ref_err),
                    f"eval {label}: {got[0]} vs reference {float(ref)!r}")


def alternating_reference(p, q, a, offset: str, terms: int = 512, rounds: int = 32,
                          prec: int = 224) -> tuple[Fraction, Fraction]:
    """Independent value of sum_{n>=1} (-1)^n prod_i h^(p_i) / prod_j (n + a_j - 1/2)^q_j.

    It sums ``terms + rounds`` terms directly and averages consecutive
    partial sums ``rounds`` times (the Euler transform of the alternating
    tail), which converges geometrically for these smooth terms.  Returns
    the value and an error estimate: the change made by the last round,
    plus rounding.  This route shares no code with ``tsum``.
    """
    with mp.workprec(prec):
        h = [mpf(0)] * len(p)
        shifts = [mpf(ai.numerator) / ai.denominator - mpf(1) / 2 for ai in a]
        total = mpf(0)
        partial = []
        for n in range(1, terms + rounds + 1):
            inc = [(n - mpf(1) / 2) ** (-pi) for pi in p]
            if offset == "cur":
                h = [hi + di for hi, di in zip(h, inc)]
            term = mpf(1)
            for hi in h:
                term *= hi
            for t, qj in zip(shifts, q):
                term /= (n + t) ** qj
            total += -term if n % 2 else term
            if offset == "prev":
                h = [hi + di for hi, di in zip(h, inc)]
            if n >= terms:
                partial.append(total)
        before = partial
        while len(partial) > 1:
            before, partial = partial, [(x + y) / 2 for x, y in zip(partial, partial[1:])]
        value = partial[0]
        err = abs(value - before[0]) + abs(value) * mpf(2) ** (8 - prec)
        return _mpf_fraction(value), _mpf_fraction(err)


def _mpf_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp
