"""One fresh benchmark process (started by run.py, one at a time).

    python3 perfbench/child.py MODE WORKLOAD SEED WARM_SECONDS [SPANS_FILE]

MODE is ``import`` (time ``import tsum`` only), ``measure`` (a cold pass
with empty caches, then warm passes in the same process: one if
WARM_SECONDS > 0, and more while they fit in WARM_SECONDS) or
``trace`` (one cold pass with every layer wrapped by spans.Tracer).  Every
output is checked after the timed passes.  The last stdout line is one JSON
object for run.py.

Only ``signal``, ``sys`` and ``time`` are imported before ``import tsum``
(none of them loads a module that ``tsum`` needs), so the import time it
reports is the whole cost of loading the package.

Times are reported twice: as wall time, and scaled to the reference speed
of the CPU (see SpeedProbe).  The benchmark's metrics are the scaled ones.
"""

import signal
import sys
import time

PROBE_PERIOD_S = 0.01
# What the probe loop takes on an unloaded CPU of the machine the baseline
# was measured on (2 vCPUs, Python 3.11.7): the reference speed.
REFERENCE_PROBE_S = 25e-6


def _spin() -> int:
    s = 0
    for i in range(400):
        s += i * i % 7
    return s


class SpeedProbe:
    """The speed of this CPU, sampled while a pass runs.

    On a shared machine the speed of a CPU drifts by up to 1.7x for seconds
    at a time, so a wall time alone does not repeat from run to run.  Every
    10 ms a SIGALRM handler times a fixed loop of interpreted bytecode.  A
    pass's scaled time is its wall time, less the probes' own time, times the
    mean relative speed REFERENCE_PROBE_S / probe time during the pass: the
    time the pass would take at the reference speed.  The probes cost about
    0.3% of a pass; in a traced pass that time is self time of the spans
    they interrupt.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last_probes_s = 0.0  # probe time inside the last timed call
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _spin()
        self.samples.append(time.perf_counter() - t)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def time(self, fn):
        """Run ``fn()``; return its result, own wall time and scaled time."""
        self.samples.clear()
        t = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t
        probes = list(self.samples)
        self.last_probes_s = sum(probes)
        own = wall - self.last_probes_s
        if not probes:
            return result, own, own
        speed = sum(REFERENCE_PROBE_S / d for d in probes) / len(probes)
        return result, own, own * speed


def main() -> int:
    mode, workload = sys.argv[1], sys.argv[2]
    seed, warm_seconds = int(sys.argv[3]), float(sys.argv[4])
    probe = SpeedProbe()
    _, setup_wall, setup_s = probe.time(lambda: __import__("tsum.cli"))
    import tsum.cli  # noqa: F401  (loaded above; tsum/__init__ imports every module)

    # run_cli's modules too, so that no import happens inside a timed pass
    import contextlib  # noqa: F401
    import hashlib
    import io  # noqa: F401
    import json
    import resource

    import checks
    import workloads

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall,
              "tsum_file": sys.modules["tsum"].__file__}
    if mode == "import":
        probe.stop()
        print(json.dumps(result))
        return 0

    calls = workloads.build(workload, seed)
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()

    cold, cold_wall, cold_s = probe.time(lambda: run_pass(calls))
    if tracer is not None:
        tracer.uninstall()
    warm, warm_wall, warm_s = [], [], []
    while warm_seconds > 0 and (not warm_wall or sum(warm_wall) + warm_wall[-1] <= warm_seconds):
        outputs, wall, scaled = probe.time(lambda: run_pass(calls))
        warm.append(outputs)
        warm_wall.append(wall)
        warm_s.append(scaled)
    probe.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(cold_s=cold_s, cold_wall_s=cold_wall, warm_s=warm_s, warm_wall_s=warm_wall)

    tally = checks.Tally()
    check_pass(tally, calls, cold)
    cold_text = checks.pass_text(cold)
    for outputs in warm:
        tally.check(checks.pass_text(outputs) == cold_text,
                    "warm pass output differs from the cold pass")
    result["digest"] = hashlib.sha256(cold_text.encode()).hexdigest()

    if tracer is not None:
        # the probes' time lies inside the spans they interrupted
        pass_wall = cold_wall + probe.last_probes_s
        metrics = spans.layer_metrics(tracer.spans, pass_wall)
        residual = spans.self_time_residual(metrics)
        tally.check(abs(residual) <= 1e-6 * max(1.0, pass_wall),
                    f"layer self times miss the traced cold time by {residual:.3g} s")
        result["layers"] = metrics
        if len(sys.argv) > 5:
            tracer.dump(sys.argv[5], tracer.spans[0][spans.START] if tracer.spans else 0.0)
    result.update(attempted=tally.attempted, failed=tally.failed, messages=tally.messages)
    print(json.dumps(result))
    return 0


def run_cli(argv):
    """One call of ``tsum.cli.main`` with its streams captured.  A crash is
    an output like any other; the checks count it as a failure."""
    import contextlib
    import io

    import tsum.cli
    from checks import Output

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tsum.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects an argument
        rc = exc.code
    except Exception as exc:  # the program under test crashed
        rc = f"{type(exc).__name__}: {exc}"
    return Output(rc, out.getvalue(), err.getvalue())


def run_pass(calls):
    return [run_cli(c.argv) for c in calls]


def check_pass(tally, calls, outputs) -> None:
    """Check one pass; references and cross-checks are computed here,
    after the timed passes."""
    import checks

    for i, (call, out) in enumerate(zip(calls, outputs)):
        label = f"#{i} {' '.join(call.argv[1:])}"
        if call.kind == "verify":
            checks.check_verify(tally, out, call.expected_cases)
        elif call.kind == "eval-r2":
            p, q, a, _, offset, _ = call.spec
            ref, err = checks.alternating_reference(p, q, a, offset)
            checks.check_eval_reference(tally, out, ref, err, label)
        else:
            checks.check_eval_naive(tally, out, run_cli(call.cross_check_argv()), label)


if __name__ == "__main__":
    sys.exit(main())
