import concurrent.futures
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

import tsum.numeric
import tsum.reductions
import tsum.series
import tsum.special
import tsum.suite
from tsum.cli import main


def test_eval_depth_two_value(capsys):
    rc = main(["eval", "--p", "2", "--q", "2", "--a", "0", "--sigma", "1",
               "--offset", "prev", "--precision-bits", "128"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("value      = 4.058712126416768218")
    assert "terms_used" in out


def test_eval_alternating(capsys):
    rc = main(["eval", "--p", "1", "--q", "1", "--a", "0", "--sigma", "-1",
               "--offset", "cur", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"].startswith("-2.9207242335062390953")
    assert payload["precision_bits"] == 192


def test_eval_divergent_spec_is_config_error(capsys):
    rc = main(["eval", "--p", "1", "--q", "1", "--a", "0", "--sigma", "1",
               "--offset", "cur"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_reduce_prints_certificate(capsys):
    rc = main(["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0",
               "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "T(2,1) = 1 * T(3)"
    assert "passed = True" in out


def test_reduce_high_weight_value_matches_oracle(capsys):
    # the terms of t(200, 1) cancel about 320 bits; a 16-bit guard printed 0.0
    assert main(["reduce", "--family", "t_even_odd", "--j", "100", "--m", "0",
                 "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    with mp.workprec(256):
        value, oracle = mpf(rep["lhs"]), mpf(rep["rhs"])
        assert abs(value - oracle) <= abs(oracle) * mpf(2) ** -188


def test_reduce_weight_801_sums_once(monkeypatch, capsys):
    # the 401 terms of t(800, 1) cancel about 1,270 bits; the guard taken
    # from the weight covers that, so every kernel value of the reduction
    # comes from one precision
    precisions = set()
    zeta_batch, eval_symbolic = tsum.special._zeta_batch, tsum.suite.eval_symbolic

    def spy(sigma, ss, x, prec):
        precisions.add(prec)
        return zeta_batch(sigma, ss, x, prec)

    def spied(expr, prec):
        with monkeypatch.context() as m:
            m.setattr(tsum.special, "_zeta_batch", spy)
            return eval_symbolic(expr, prec)

    monkeypatch.setattr(tsum.suite, "eval_symbolic", spied)
    assert main(["reduce", "--family", "t_even_odd", "--j", "400", "--m", "0",
                 "--precision-bits", "64", "--format", "json"]) == 0
    assert len(precisions) == 1
    rep = json.loads(capsys.readouterr().out)
    with mp.workprec(128):
        value, oracle = mpf(rep["lhs"]), mpf(rep["rhs"])
        assert abs(value - oracle) <= abs(oracle) * mpf(2) ** -60


def test_arithmetic_error_exits_1(monkeypatch, capsys):
    def cancels(expr, prec):
        raise ArithmeticError("symbolic sum cancels every bit")
    monkeypatch.setattr(tsum.suite, "eval_symbolic", cancels)
    assert main(["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0"]) == 1
    assert capsys.readouterr().err == "error: symbolic sum cancels every bit\n"


def test_three_factor_eval_exits_0_within_its_bound(capsys):
    # the product that exited 1 after one 16384-term direct round: 132 head
    # terms and 26 stuffle terms of nested tails, within its bound of the
    # value 160 bits finer
    def value_and_bound(prec):
        assert main(["eval", "--p", "1,1,1", "--q", "3", "--a", "1/2", "--precision-bits",
                     str(prec), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        with mp.workprec(400):
            return mpf(payload["value"]), mpf(payload["tail_bound"]), payload["terms_used"]

    value, bound, terms = value_and_bound(192)
    ref, _, _ = value_and_bound(352)
    assert terms == 132 and bound < mpf(2) ** -180
    with mp.workprec(400):
        assert abs(value - ref) <= bound
        assert abs(ref - mpf("13.6411248800115094350391428")) < mpf("1e-25")


def test_accelerated_method_at_three_factors_gives_the_default_bytes(capsys):
    outs = []
    for method in ((), ("--method", "accelerated")):
        assert main(["eval", "--p", "1,1,2", "--q", "3", "--a", "1/3", "--sigma", "-1",
                     *method]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def _eval_json(capsys, *argv):
    assert main(["eval", *argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    with mp.workprec(256):
        return mpf(payload["value"]), mpf(payload["tail_bound"]), payload["terms_used"]


def test_two_factor_product_at_sigma_plus_one_is_accelerated(capsys):
    # the product that once exited 1 after its first direct round: 132 head
    # terms and the tail by nested summation steps, well within 5 s
    start = time.perf_counter()
    value, bound, terms = _eval_json(capsys, "--p", "1,1", "--q", "3", "--a", "1/2",
                                     "--precision-bits", "192")
    assert time.perf_counter() - start < 5
    assert terms == 132 and bound < mpf(2) ** -180
    with mp.workprec(256):  # the 25 digits of an independent prototype
        assert abs(value - mpf("5.804940349719955898311516")) < bound + mpf("1e-24")


def _alternating_reference(p, q, terms=512, rounds=48, prec=320):
    """sum_{n>=1} (-1)^n prod_i h_n^(p_i) / (n - 1/2)^q from ``terms + rounds``
    partial sums, averaged pairwise ``rounds`` times (the Euler transform of
    the alternating tail), and the change made by the last round."""
    with mp.workprec(prec):
        h, total, partial = [mpf(0)] * len(p), mpf(0), []
        for n in range(1, terms + rounds + 1):
            u = n - mpf(0.5)
            h = [hi + u ** -pi for hi, pi in zip(h, p)]
            term = mp.fprod(h) / u ** q
            total += -term if n % 2 else term
            if n >= terms:
                partial.append(total)
        while len(partial) > 1:
            before, partial = partial, [(x + y) / 2 for x, y in zip(partial, partial[1:])]
        return partial[0], abs(partial[0] - before[0]) + mpf(2) ** (16 - prec)


def test_two_factor_product_at_sigma_minus_one_is_accelerated(capsys):
    # sum (-1)^n (h_n^(2))^2 / (n - 1/2)^2 once exited 1 after its first round
    value, bound, terms = _eval_json(capsys, "--p", "2,2", "--q", "2", "--a", "0",
                                     "--sigma", "-1")
    ref, err = _alternating_reference((2, 2), 2)
    assert terms == 132 and err < mpf(2) ** -180
    with mp.workprec(256):
        assert abs(value - ref) <= bound + err


def test_reduce_out_of_domain(capsys):
    rc = main(["reduce", "--family", "t_odd_even", "--j", "0", "--m", "1"])
    assert rc == 2


def test_reduce_unknown_family(capsys):
    assert main(["reduce", "--family", "nope", "--j", "1", "--m", "1"]) == 2


def test_verify_small_suite_json_schema(capsys):
    rc = main(["verify", "--families", "cor3_2,lemma2_4", "--precision-bits", "128",
               "--tolerance", "1e-25", "--format", "json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"suite_id", "timestamp", "precision_bits", "tolerance",
                           "workers", "cases", "summary", "total_elapsed_ms"}
    assert record["summary"]["failed"] == 0
    assert record["summary"]["passed"] == len(record["cases"])
    case = record["cases"][0]
    assert set(case) == {"case_id", "family", "params", "lhs", "rhs", "gap",
                         "passed", "tolerance", "precision_bits", "terms_used",
                         "elapsed_ms"}
    assert case["elapsed_ms"] == 0  # timings suppressed for reproducibility
    ids = [c["case_id"] for c in record["cases"]]
    assert ids == sorted(ids)


def test_verify_rejects_equal_pair_sample(capsys):
    rc = main(["verify", "--families", "thm3_1", "--samples", "1/4,1/4"])
    assert rc == 2
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--families", "lemma2_4,lemma2_4"], "family lemma2_4 is given twice"),
    (["--families", "thm3_1", "--samples=1/4,1/3;1/4,1/3"], "pair sample 1/4,1/3 is given twice"),
    (["--families", "thm3_4", "--samples=1/4,1/3;2/8,1/3"], "pair sample 1/4,1/3 is given twice"),
])
def test_verify_rejects_a_repeat_that_would_print_a_case_id_twice(argv, message, capsys):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_pairs_may_share_a_component(capsys):
    # singletons skip a repeated component, so every case id is distinct
    rc = main(["verify", "--families", "thm3_1,cor3_2", "--samples=1/4,1/3;1/4,1/5",
               "--precision-bits", "64", "--tolerance", "1e-10", "--format", "json"])
    assert rc == 0
    ids = [c["case_id"] for c in json.loads(capsys.readouterr().out)["cases"]]
    assert len(ids) == 10 + 3 * 3 == len(set(ids))


def test_verify_stops_on_a_closed_form_that_cancels_past_its_guard(capsys):
    # at a = 10^-200, zeta(s; a) ~ a^-s cancels against its products with the
    # kernels far beyond 2048 guard bits at p = 4 and 5: no report, exit 1
    rc = main(["verify", "--families", "thm3_1,thm3_4", f"--samples=1/{10 ** 200},1/3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: a sum of kernel values cancels past 2048 guard bits\n"


def test_verify_unknown_family(capsys):
    assert main(["verify", "--families", "thm9_9"]) == 2


@pytest.mark.parametrize("order, prec, tol", [("6", "128", "1e-25"), ("1", "32", "1e-5")])
def test_verify_lemma_family_with_order(order, prec, tol, capsys):
    # verify shares the 16-bit floor of the other subcommands
    rc = main(["verify", "--families", "lemma2_4", "--order", order,
               "--precision-bits", prec, "--tolerance", tol,
               "--format", "text"])
    assert rc == 0
    assert f"lemma2_4[order={order}]" in capsys.readouterr().out


def test_table_csv_rows(capsys):
    rc = main(["table", "--family", "t_bar_odd", "--weight-max", "6",
               "--format", "csv", "--precision-bits", "128",
               "--tolerance", "1e-25"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("case_id,family,value_label,expr")
    assert len(lines) > 3


def test_verify_csv_columns(capsys):
    rc = main(["verify", "--families", "lemma2_3", "--format", "csv",
               "--precision-bits", "128", "--tolerance", "1e-20"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "case_id,family,params,lhs,rhs,gap,passed,elapsed_ms"


def test_verify_deterministic_modulo_timestamp(capsys):
    argv = ["verify", "--families", "cor3_3", "--precision-bits", "128",
            "--tolerance", "1e-25", "--format", "json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second


def test_table_guard_and_output(tmp_path, capsys):
    assert main(["table", "--family", "all", "--weight-max", "99"]) == 2
    out = tmp_path / "table.json"
    rc = main(["table", "--family", "t_bar_odd", "--weight-max", "6",
               "--format", "json", "--out", str(out), "--precision-bits", "128",
               "--tolerance", "1e-25"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["weight_max"] == 6
    assert all(row["passed"] for row in payload["rows"])
    labels = [row["params"]["value_label"] for row in payload["rows"]]
    assert "t(1-,1)" in labels


def test_table_io_failure(capsys):
    rc = main(["table", "--family", "t_bar_odd", "--weight-max", "4",
               "--precision-bits", "128", "--tolerance", "1e-20",
               "--out", "/nonexistent-dir/t.json"])
    assert rc == 3


def test_verify_with_workers_matches_serial(capsys):
    argv = ["verify", "--families", "cor3_5", "--precision-bits", "128",
            "--tolerance", "1e-25", "--format", "json"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial["cases"] == parallel["cases"]


def test_verify_pool_starts_no_more_workers_than_cases(capsys, monkeypatch):
    # a fake pool records its size and maps serially, so no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(tsum.suite.os, "cpu_count", lambda: 8)
    argv = ["verify", "--families", "lemma2_3,lemma2_4", "--order", "1", "--precision-bits", "64",
            "--tolerance", "1e-10", "--format", "json"]
    assert main(argv + ["--workers", "100000"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert sizes == [2] and record["workers"] == 100000 and len(record["cases"]) == 2


def test_import_loads_no_process_pool():
    # only verify --workers > 1 needs concurrent.futures (and multiprocessing)
    src = os.path.dirname(os.path.dirname(tsum.suite.__file__))
    out = subprocess.run([sys.executable, "-c", "import sys, tsum.cli; "
                          "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["eval", "--p", "1", "--q", "2", "--a", "1/2", "--precision-bits", "0"],
    ["eval", "--p", "1", "--q", "2", "--a", "1/2", "--precision-bits", "-5"],
    ["eval", "--p", "1", "--q", "2", "--a", "1/2", "--precision-bits", "8"],
    ["eval", "--p", "1", "--q", "2", "--a", "1/2", "--method", "naive", "--max-terms", "0"],
    ["eval", "--p", "1", "--q", "2", "--a", "1/2", "--method", "naive", "--max-terms=-4"],
    ["verify", "--families", "lemma2_4", "--tolerance", "inf"],
    ["table", "--family", "t_bar_odd", "--tolerance", "inf"],
    ["table", "--family", "t_bar_odd", "--tolerance=-1"],
    ["table", "--family", "t_bar_odd", "--tolerance", "nan"],
    ["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0", "--tolerance", "nan"],
    *(["verify", "--families", "lemma2_4", "--order", "1", "--tolerance=" + tol]
      for tol in ("0", "-1e-3", "nan", "inf", "", "1e", "0x10")),
    ["table", "--family", "t_bar_odd", "--weight-max=-3"],
    ["verify", "--families", "t_bar_odd", "--weight-max", "1"],
    ["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0", "--precision-bits", "8"],
    ["table", "--family", "t_bar_odd", "--weight-max", "2", "--precision-bits", "8"],
    ["eval", "--p", "1", "--q", "2", "--a", "1/2", "--precision-bits", "15"],
    ["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0", "--precision-bits", "15"],
    ["table", "--family", "t_bar_odd", "--weight-max", "2", "--precision-bits", "15"],
    ["verify", "--families", "lemma2_4", "--precision-bits", "15"],
    ["table", "--family", "thm3_1"],
])
def test_out_of_domain_budgets_and_tolerances_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["eval", "--q", "2", "--a", "1/2", "--tolerance", "1e-3"], "unrecognized arguments"),
    (["eval", "--q", "2", "--a", "1/2", "--timings"], "unrecognized arguments"),
    (["eval", "--q", "2", "--a", "1/2", "--format", "csv"], "invalid choice: 'csv'"),
    (["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0", "--format", "csv"],
     "invalid choice: 'csv'"),
    (["eval", "--q", "2", "--a", "1/2", "--method", "auto"], "invalid choice: 'auto'"),
    (["eval", "--q", "2", "--a", "1/2", "--offset", "n-1"], "invalid choice: 'n-1'"),
    (["eval", "--q", "2", "--a", "1/2", "--offset", "n"], "invalid choice: 'n'"),
])
def test_options_a_subcommand_does_not_read_are_usage_errors(argv, message, capsys):
    # argparse stops at the command line, before any subcommand runs
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_max_terms_is_exact_with_naive_and_refused_by_the_accelerated_path(monkeypatch, capsys):
    # --method naive sums exactly --max-terms terms (16384 if not given), for
    # any number of factors; the accelerated path picks its own head length,
    # refuses --max-terms and never calls naive_sum, three factors included
    rounds = []
    naive_sum = tsum.series.naive_sum

    def counted(spec, prec, max_terms):
        rounds.append(max_terms)
        return naive_sum(spec, prec, max_terms)

    monkeypatch.setattr(tsum.series, "naive_sum", counted)
    monkeypatch.setattr(tsum.cli, "naive_sum", counted)

    def terms_used(*argv):
        assert main(["eval", *argv, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["terms_used"]

    r3 = ("--p", "1,1,1", "--q", "4", "--a", "1/3", "--sigma", "-1", "--precision-bits", "64")
    assert main(["eval", *r3, "--max-terms", "1"]) == 2
    assert "--method naive" in capsys.readouterr().err
    assert terms_used(*r3) == terms_used(*r3, "--method", "accelerated") == 128
    assert terms_used("--p", "1,1", "--q", "4", "--a", "1/3", "--sigma", "-1",
                      "--precision-bits", "64") == 128
    assert rounds == []
    assert terms_used(*r3, "--max-terms", "3", "--method", "naive") == 3
    assert rounds == [3]
    assert terms_used("--q", "2", "--a=-3") == 132
    assert terms_used("--q", "2", "--a=-3", "--max-terms", "3", "--method", "naive") == 3
    assert terms_used("--q", "2", "--a=-3", "--method", "naive") == 16384
    assert rounds == [3, 3, 16384]


@pytest.mark.parametrize("argv", [
    ["--max-terms", "3"],
    ["--max-terms", "0"],
    ["--max-terms", "20000", "--method", "accelerated"],
])
def test_max_terms_without_the_naive_method_exits_2_and_names_it(argv, capsys):
    # it was checked and then ignored
    assert main(["eval", "--q", "2", "--a", "1/2", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--method naive" in err


@pytest.mark.parametrize("tol", ["1e-999999999", "1e999999999"])
def test_a_tolerance_exponent_out_of_range_exits_2_within_a_second(tol, capsys):
    # as an exact Fraction, 1e-999999999 would build an integer of a billion
    # digits; the exponent is read first and refused
    def late(signum, frame):
        raise AssertionError(f"--tolerance {tol} still running after a second")
    old = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        rc = main(["verify", "--families", "lemma2_4", "--order", "1", "--tolerance", tol])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert rc == 2
    assert "exponent below 10^5" in capsys.readouterr().err


VERIFY_96_STRICT = ["verify", "--precision-bits", "96", "--tolerance", "1e-60", "--format", "text"]


def test_96_bits_certify_no_case_to_1e_60(capsys):
    # one unit in the last place of a 96-bit value near 1 is about 1e-29:
    # each row's gap + bound exceeds 1e-60, though the gaps print 0.0
    assert main(VERIFY_96_STRICT) == 1
    out = capsys.readouterr().out
    assert out.endswith("passed=0 failed=145\n")
    assert out.count(" gap=0.0\n") > 100


def test_96_bits_with_the_radii_taken_to_0_pass_cases_again(monkeypatch, capsys):
    # negative control: the radii, and not the gaps, fail the cases above
    monkeypatch.setattr(tsum.numeric.Ball, "rad", property(lambda self: 0, lambda self, v: None))
    main(VERIFY_96_STRICT)
    assert int(re.search(r"passed=(\d+)", capsys.readouterr().out)[1]) > 100
