"""Tests of the traced run: wrapping changes no output, internal calls are
caught, self times add up, and the harness emits the metrics that
BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import tsum.cli  # noqa: E402
import tsum.reductions  # noqa: E402
import tsum.series  # noqa: E402
import tsum.special  # noqa: E402

ARGV = [
    ["verify", "--families", "thm3_1,thm3_7,lemma2_4,t_even_odd,T_bar_odd",
     "--samples=1/5,-2/7", "--precision-bits", "80", "--tolerance", "1e-18", "--weight-max", "5"],
    ["eval", "--p", "1,1", "--q", "4", "--a=1/3", "--sigma", "-1", "--max-terms", "256",
     "--precision-bits", "32", "--method", "naive", "--format", "json"],
]


def run_all() -> str:
    outputs = []
    for argv in ARGV:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = tsum.cli.main(argv)
        outputs.append(checks.Output(rc, out.getvalue()))
    return checks.pass_text(outputs)


def test_traced_outputs_equal_untraced_and_spans_add_up():
    untraced = run_all()
    originals = (tsum.series.hurwitz_zeta, tsum.reductions.FAMILIES["t_even_odd"].reduce,
                 tsum.cli.main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tsum.series.hurwitz_zeta is not originals[0]
        t0 = spans.time.perf_counter()
        traced = run_all()
        cold_s = spans.time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert (tsum.series.hurwitz_zeta, tsum.reductions.FAMILIES["t_even_odd"].reduce,
            tsum.cli.main) == originals

    names = {s[spans.NAME] for s in tracer.spans}
    parents = {(tracer.spans[s[spans.PARENT]][spans.NAME], s[spans.NAME])
               for s in tracer.spans if s[spans.PARENT] >= 0}
    # calls through names bound by `from .x import y` and through the registry
    assert ("identities.verify_thm3_1", "series.accel_linear_sum") in parents
    assert ("reductions.eval_symbolic", "special.single_T_bar") in parents
    assert {"reductions.reduce_t_even_odd", "reductions.reduce_T_bar_odd",
            "series.naive_sum", "jets.jet_mul", "special.psi_jet"} <= names

    m = spans.layer_metrics(tracer.spans, cold_s)
    assert abs(spans.self_time_residual(m)) < 1e-9
    assert 0 <= m["trace.unattributed_s"] < cold_s
    assert m["series.naive.terms"] == 256
    assert m["series.accel.calls"] > 0 and m["series.accel.terms"] > 0
    assert m["suite.cases"] == 5 + 6 + 1 + 3 + 3 and m["identities.calls"] == 5 + 6 + 1
    assert 0 < m["special.hurwitz_zeta.repeat_ratio"] < 1


def test_harness_emits_the_declared_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_workload_inputs_meet_the_hypotheses():
    from tsum.cli import _parse_samples
    from tsum.suite import SuiteConfig, build_cases

    for seed in range(40):
        for name in ("verify-192", "pair-1024"):
            call, = workloads.build(name, seed)
            argv = dict(a.split("=", 1) for a in call.argv if a.startswith("--samples="))
            config = SuiteConfig(samples=_parse_samples(argv["--samples"]),
                                 families=("thm3_1", "thm3_4") if name == "pair-1024"
                                 else tsum.suite.ALL_FAMILIES)
            assert len(build_cases(config)) == call.expected_cases
        calls = workloads.build("eval-direct", seed)
        assert [c.kind for c in calls] == ["eval-r2"] * 3 + ["eval-naive"] * 2
        assert all(a >= 0 for c in calls[:3] for a in c.spec[2])
    assert workloads.build("verify-192", 0)[0].argv == (
        "verify", "--samples=1/4,1/3;1/5,2/5;1/7,-1/7")
