"""Tests of the benchmark's own output checks: genuine outputs pass, and
every kind of corrupted output is counted as a failure.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Output, Tally  # noqa: E402

import tsum.cli  # noqa: E402


def cli(argv) -> Output:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tsum.cli.main(list(argv))
    return Output(rc, out.getvalue())


@pytest.fixture(scope="module")
def report() -> Output:
    out = cli(["verify", "--families", "thm3_1,lemma2_3", "--samples=1/4,1/3",
               "--precision-bits", "96", "--tolerance", "1e-20"])
    assert out.rc == 0
    return out


def verify_tally(out: Output, expected: int = 6) -> Tally:
    tally = Tally()
    checks.check_verify(tally, out, expected)
    return tally


def corrupt(out: Output, edit) -> Output:
    record = json.loads(out.stdout)
    edit(record)
    return Output(out.rc, json.dumps(record, indent=2))


def test_genuine_report_passes(report):
    tally = verify_tally(report)
    assert tally.failed == 0 and tally.attempted == 3 + 6


@pytest.mark.parametrize("edit", [
    lambda r: r["cases"][0].update(passed=False),
    lambda r: r["cases"][1].update(gap="1e-10"),
    lambda r: r["cases"][3].update(tolerance="nan"),
    lambda r: r["cases"].pop(),
    lambda r: r["cases"].append(dict(r["cases"][0])),
    lambda r: r["summary"].update(failed=1),
    lambda r: r.pop("cases"),
], ids=["passed-false", "gap-above-tol", "bad-tol", "missing-case",
        "duplicate-case", "summary", "no-cases"])
def test_corrupted_report_fails(report, edit):
    assert verify_tally(corrupt(report, edit)).failed >= 1


def test_lhs_far_from_rhs_fails(report):
    def edit(r):
        case = r["cases"][0]
        case["lhs"] = str(Fraction(case["rhs"]) + Fraction(1, 10 ** 15))
    assert verify_tally(corrupt(report, edit)).failed == 1


@pytest.mark.parametrize("out", [
    Output(1, ""), Output(2, "", "error: bad"), Output("ValueError: boom", ""),
    Output(0, "{ not json"), Output(0, ""),
])
def test_failed_call_counts(out):
    assert verify_tally(out).failed == 1
    tally = Tally()
    checks.check_eval_reference(tally, out, Fraction(1), Fraction(0), "x")
    assert tally.failed == 1


def test_r2_value_against_reference():
    call = workloads.build("eval-direct", 0)[0]
    out = cli(call.argv)
    ref, err = checks.alternating_reference(*call.spec[:3], call.spec[4])
    tally = Tally()
    checks.check_eval_reference(tally, out, ref, err, "genuine")
    assert tally.failed == 0
    payload = json.loads(out.stdout)
    bound = Fraction(payload["tail_bound"])
    payload["value"] = str(Fraction(payload["value"]) + 4 * bound)
    checks.check_eval_reference(tally, Output(0, json.dumps(payload)), ref, err, "corrupt")
    assert (tally.attempted, tally.failed) == (4, 1)


def test_naive_against_accelerated():
    def out(value, bound):
        return Output(0, json.dumps({"value": value, "tail_bound": bound}))

    naive = out("1.25000000000000000000", "1.0e-6")
    accel = out("1.25000090000000000000", "1.0e-30")
    far = out("1.25000110000000000000", "1.0e-30")
    tally = Tally()
    checks.check_eval_naive(tally, naive, accel, "near")
    assert tally.failed == 0
    checks.check_eval_naive(tally, naive, far, "far")
    checks.check_eval_naive(tally, naive, Output(1, ""), "accelerated crashed")
    assert tally.failed == 2


def test_pass_text_ignores_only_the_timestamp(report):
    other = report.stdout.replace('"timestamp": "', '"timestamp": "1999-')
    assert other != report.stdout
    assert checks.pass_text([report]) == checks.pass_text([Output(0, other)])
    changed = report.stdout.replace('"passed": true', '"passed": false', 1)
    assert checks.pass_text([report]) != checks.pass_text([Output(0, changed)])
    assert checks.pass_text([report]) != checks.pass_text([Output(1, report.stdout)])
