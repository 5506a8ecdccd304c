import json

import pytest
from mpmath import mp, mpf

import tsum.reductions
import tsum.series
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


def test_reduce_weight_801_sums_twice(monkeypatch, capsys):
    # the 401 terms of t(800, 1) cancel about 1,270 bits: a first pass at
    # 80 bits keeps none, and the second takes its guard from the weight
    precisions = set()
    sym_value = tsum.reductions._sym_value

    def spy(s, prec):
        precisions.add(prec)
        return sym_value(s, prec)

    monkeypatch.setattr(tsum.reductions, "_sym_value", spy)
    assert main(["reduce", "--family", "t_even_odd", "--j", "400", "--m", "0",
                 "--precision-bits", "64", "--format", "json"]) == 0
    assert len(precisions) <= 2
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


def test_unreachable_product_budget_exits_1_after_one_round(monkeypatch, capsys):
    # r = 2 with q = 3: the first 16384-term bound, extrapolated to the term
    # cap, still misses 2^(16 - prec) by far, so eval stops without doubling
    rounds = []
    naive_sum = tsum.series.naive_sum

    def counted(spec, prec, max_terms):
        rounds.append(max_terms)
        return naive_sum(spec, prec, max_terms)

    monkeypatch.setattr(tsum.series, "naive_sum", counted)
    assert main(["eval", "--p", "1,1", "--q", "3", "--a", "1/2"]) == 1
    assert "above target after 16384 terms" in capsys.readouterr().err
    assert rounds == [tsum.series.NAIVE_START_TERMS]


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


def test_verify_unknown_family(capsys):
    assert main(["verify", "--families", "thm9_9"]) == 2


def test_verify_lemma_family_with_order(capsys):
    rc = main(["verify", "--families", "lemma2_4", "--order", "6",
               "--precision-bits", "128", "--tolerance", "1e-25",
               "--format", "text"])
    assert rc == 0
    assert "lemma2_4[order=6]" in capsys.readouterr().out


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
    ["table", "--family", "t_bar_odd", "--weight-max=-3"],
    ["verify", "--families", "t_bar_odd", "--weight-max", "1"],
    ["reduce", "--family", "T_even_odd", "--j", "1", "--m", "0", "--precision-bits", "8"],
    ["table", "--family", "t_bar_odd", "--weight-max", "2", "--precision-bits", "8"],
])
def test_out_of_domain_budgets_and_tolerances_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
