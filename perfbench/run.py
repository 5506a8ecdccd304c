"""tsum benchmark: time to a certified result, cold and warm, and where it goes.

    python3 perfbench/run.py --workload verify-192 --seed 0 --seconds 40 --trace 0

Run from the root of a tsum checkout; ``tsum`` is imported from ``src/``.
Load is one closed loop: a single caller, one child process at a time, each
single-threaded, so the machine's second CPU stays free for the system.

``--trace 0`` measures the end-to-end metrics.  Each child is a fresh
process that imports ``tsum`` (``setup_s``), runs the workload once with
empty caches (``cold_s``), then again in the same process (``warm_s``),
and checks every output.  Children start one after another until the next
would end after ``--seconds``; extra import-only children give ``setup_s``
enough samples.  Every metric is the median over the run, and every time
is scaled to a reference CPU speed (child.SpeedProbe), because the speed
of a shared machine's CPU drifts too much for raw wall times to repeat.

``--trace 1`` runs one untraced child and one child whose layers are
wrapped by spans.Tracer, and reports per-layer self times and counts, and
the tracing overhead.  The traced outputs must equal the untraced ones.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (output checks) and ``metrics``; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WARM_SECONDS = 4.0  # warm passes per child, by time: one pass takes 1 to 4 s
IMPORT_CHILDREN = 5
HARD_CAP_S = 165  # the whole run, whatever --seconds says

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END_UNITS, **spans.PER_LAYER_UNITS}


class ChildError(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.attempted = self.failed = 0
        self.messages: list[str] = []
        self.wall: dict[str, float] = {}  # unscaled medians, for the summary

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def count(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def spawn(self, mode: str, warm: float = 0.0, spans_file: Path | None = None) -> dict | None:
        """Run one child to completion; None (counted as a failed check) if it
        crashed, timed out or imported ``tsum`` from elsewhere."""
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload, str(self.seed),
               str(warm)] + ([str(spans_file)] if spans_file else [])
        env = {k: v for k, v in os.environ.items()
               if k not in ("TSUM_DEFAULT_PRECISION_BITS", "PYTHONPATH")}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, HARD_CAP_S - self.elapsed()))
            if proc.returncode != 0:
                raise ChildError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not Path(result["tsum_file"]).resolve().is_relative_to(SRC.resolve()):
                raise ChildError(f"imported tsum from {result['tsum_file']}")
        except subprocess.TimeoutExpired:
            self.count(False, f"{mode} child timed out")
            return None
        except (ChildError, ValueError, IndexError, KeyError) as exc:
            self.count(False, f"{mode} child: {exc}")
            return None
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.messages.extend(result.get("messages", []))
        return result

    def measure(self, seconds: float) -> dict[str, float]:
        importers = [r for r in (self.spawn("import") for _ in range(IMPORT_CHILDREN)) if r]
        children = []
        warm = WARM_SECONDS
        while True:
            t = time.perf_counter()
            r = self.spawn("measure", warm)
            if r is None:
                break
            children.append(r)
            # the next child as this one, with the warm passes that still fit
            fixed_s = time.perf_counter() - t - sum(r["warm_wall_s"])
            room = seconds - self.elapsed() - fixed_s
            if room < min(r["warm_wall_s"]):
                break
            warm = min(WARM_SECONDS, room)
        if not children:
            raise ChildError("no child completed a measured pass")
        self.count(len({c["digest"] for c in children}) == 1,
                   "children of one run printed different reports")
        samples = {
            "setup_s": [r["setup_s"] for r in importers + children],
            "cold_s": [c["cold_s"] for c in children],
            "warm_s": [w for c in children for w in c["warm_s"]],
            "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        }
        self.wall = {
            "setup_s": statistics.median(r["setup_wall_s"] for r in importers + children),
            "cold_s": statistics.median(c["cold_wall_s"] for c in children),
            "warm_s": statistics.median(w for c in children for w in c["warm_wall_s"]),
        }
        return {name: statistics.median(values) for name, values in samples.items()}

    def trace(self) -> dict[str, float]:
        plain = self.spawn("measure")
        OUT.mkdir(exist_ok=True)
        traced = self.spawn("trace", spans_file=OUT / f"spans-{self.workload}.json")
        if plain is None or traced is None:
            raise ChildError("no traced pass with its untraced twin")
        self.count(traced["digest"] == plain["digest"],
                   "traced outputs differ from untraced outputs")
        metrics = traced["layers"]
        metrics["trace.overhead_ratio"] = traced["cold_s"] / plain["cold_s"] - 1.0
        return {name: metrics[name] for name in spans.PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "tsum" / "__init__.py").is_file():
        print(f"error: no tsum package under {SRC}; run from a tsum checkout", file=sys.stderr)
        return 2
    # a termination signal unwinds through subprocess.run, which kills and
    # reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir(SRC / "tsum", quiet=1)  # bytecode, as an installed package has

    run = Run(args.workload, args.seed)
    try:
        metrics = run.trace() if args.trace else run.measure(args.seconds)
    except ChildError as exc:
        print(f"error: {exc}", *run.messages[:5], sep="\n", file=sys.stderr)
        return 1
    for message in dict.fromkeys(run.messages[:20]):
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"checks {run.attempted - run.failed}/{run.attempted} passed, "
          f"fail_ratio={run.failed / max(1, run.attempted):.4g}, "
          f"{run.elapsed():.1f} s", file=sys.stderr)
    for name, value in metrics.items():
        wall = f"  (wall {run.wall[name]:.6g})" if name in run.wall else ""
        print(f"  {name:40s} {value:14.6g} {UNITS[name]}{wall}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
