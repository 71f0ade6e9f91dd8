"""rsklab benchmark: seeded workloads, correctness gates, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table|search|check --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The library is imported from the checkout's ``src`` directory. With
``--trace 0`` the run times whole passes over the workload's fixed input
set with tracing off and prints the end-to-end metrics. With ``--trace 1``
it replays the workload's inner loop through public functions under
spans (see ``spans.py``) and prints the per-layer metrics, together with
the tracing overhead. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every output passed its gate and every pass produced
the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 9


def _use_checkout() -> None:
    if not (SRC / "rsklab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rsklab sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _workdir(tag: str) -> Path:
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=STATE / "work"))


def _warm_up(workload) -> None:
    """Run the first operation of each kind once, untimed and ungated."""
    seen = set()
    for op in workload.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def setup_probe(name: str, seed: int) -> None:
    """One fresh-process set-up: import, generate and write inputs, warm up."""
    started = time.perf_counter()
    _use_checkout()
    import workloads

    workdir = _workdir(f"probe-{name}")
    try:
        _warm_up(workloads.BUILDERS[name](seed, workdir))
        print(time.perf_counter() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Passes:
    """Timed passes over one workload, with gates and byte fingerprints."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: list[tuple[int, str]] | None = None
        self.pass_s: list[float] = []
        self.op_s: list[list[float]] = [[] for _ in workload.ops]
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> None:
        outputs = []
        op_s = []
        started = time.perf_counter()
        for op in self.workload.ops:
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op
                result = (None, f"{type(exc).__name__}: {exc}")
            op_s.append(time.perf_counter() - t0)
            outputs.append(result)
        self.pass_s.append(time.perf_counter() - started)
        for samples, seconds in zip(self.op_s, op_s):
            samples.append(seconds)
        self.digests.append(
            hashlib.sha256("".join(out for _, out in outputs).encode()).hexdigest())
        self._judge(outputs)

    def _judge(self, outputs: list[tuple[int, str]]) -> None:
        first_pass = self.first is None
        if first_pass:
            self.first = outputs
        for op, result, reference in zip(self.workload.ops, outputs, self.first):
            self.attempted += 1
            if result[0] is None:
                problem = result[1]
            elif first_pass:
                try:
                    problem = op.gate(*result)
                except Exception as exc:  # malformed output fails the gate
                    problem = f"gate raised {type(exc).__name__}: {exc}"
            else:
                problem = None if result == reference else "output differs from pass 1"
            if problem:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{op.kind}: {problem}")

    @property
    def consistent(self) -> bool:
        return len(set(self.digests)) == 1


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Nearest rank; returns (percentile, value, samples beyond). With fewer
    than 14 samples no rung qualifies and the maximum is returned.
    """
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1], len(ordered) - rank
    return 100.0, ordered[-1], 0


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, Passes]:
    setup_s = measure_setup(name, seed)
    import workloads

    workdir = _workdir(name)
    try:
        workload = workloads.BUILDERS[name](seed, workdir)
        _warm_up(workload)
        passes = Passes(workload)
        started = time.perf_counter()
        while len(passes.pass_s) < 2 or time.perf_counter() - started < seconds:
            passes.run_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Neighbours on a shared box slow whole stretches of a run by up to a
    # third, so each op is timed by its fastest pass (the uncontended cost).
    best = [min(samples) for samples in passes.op_s]
    pct, tail_s, beyond = tail(best)
    print(f"{name}: {len(passes.pass_s)} passes of {len(best)} ops, wall pass"
          f" median {statistics.median(passes.pass_s):.6g} s; op_tail_ms is"
          f" p{pct:g} of {len(best)} ops, {beyond} beyond it")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(best), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, Passes]:
    import spans
    import workloads

    workdir = _workdir(name)
    try:
        workload = workloads.BUILDERS[name](seed, workdir)
        passes = Passes(workload)
        passes.run_pass()
        passes.run_pass()
        replay = spans.REPLAYS[name]
        traced: list[spans.Tracer] = []
        untraced_s, traced_s = [], []
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            for enabled, times in ((False, untraced_s), (True, traced_s)):
                tracer = spans.Tracer(enabled)
                t0 = time.perf_counter()
                replay(workload.files, tracer)
                times.append(time.perf_counter() - t0)
                if enabled:
                    traced.append(tracer)
        reps = [spans.layer_metrics(tr) for tr in traced]
        metrics = {
            key: (statistics.median(rep[key][0] for rep in reps), unit)
            for key, (_, unit) in reps[0].items()
        }
        # layers this workload never calls are measured on the other replays
        sides, filled = [], {}
        for other, other_replay in spans.REPLAYS.items():
            if other != name:
                sides.append(spans.Tracer())
                other_replay(workloads.BUILDERS[other](seed, workdir).files, sides[-1])
                for key, value in spans.layer_metrics(sides[-1]).items():
                    if key not in metrics:
                        metrics[key] = value
                        filled[key] = other
        untraced = statistics.median(untraced_s)
        metrics["trace.untraced_pass_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_s) - untraced, "s")
        for tracer in (traced[-1], *sides):
            for problem in tracer.problems:
                passes.failed += 1
                passes.problems.append(problem)
        _write_spans(name, seed, traced[-1], *sides)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name}: {len(traced)} traced replays; measured on another workload's"
          f" replay: {', '.join(f'{k} ({w})' for k, w in filled.items()) or 'none'}")
    return metrics, passes


def _write_spans(name: str, seed: int, *tracers) -> None:
    out = STATE / "out"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"spans-{name}-{seed}.jsonl", "w") as fh:
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def smoke() -> dict[str, tuple[int, int]]:
    """Tiny inputs per workload, plus a pinned verdict that is deliberately wrong.

    Returns ``name -> (attempted, failed)``; every entry but
    ``table-wrong-verdict`` should have no failures.
    """
    import workloads

    workdir = _workdir("smoke")
    cells = [(15, "dual-succ", "Rt"), (6, "dual-succ", "Rt"), (21, "nondual", "Rst")]
    try:
        cases = {
            "table": workloads.table_workload(0, workdir),
            "search": workloads.search_workload(0, workdir, cells=cells),
            "check": workloads.check_workload(0, workdir, relations=1, coverings=1,
                                              frames=1),
            "table-wrong-verdict": workloads.table_workload(
                0, workdir, flagged=workloads.FLAGGED["dual-succ"] - {(21, "Rst")}),
        }
        results = {}
        for name, workload in cases.items():
            passes = Passes(workload)
            passes.run_pass()
            passes.run_pass()
            results[name] = (passes.attempted, passes.failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["table", "search", "check"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _use_checkout()
    if args.smoke:
        results = smoke()
        print(json.dumps(results))
        expected_bad = results.pop("table-wrong-verdict")[1] > 0
        return 0 if expected_bad and not any(f for _, f in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required")
    measure = per_layer if args.trace else end_to_end
    metrics, passes = measure(args.workload, args.seed, args.seconds)
    correct = passes.failed == 0 and passes.consistent
    for problem in passes.problems:
        print(f"FAILED {problem}")
    if not passes.consistent:
        print(f"FAILED passes disagree: {sorted(set(passes.digests))}")
    print(f"sha256 {passes.digests[0]} (seed {args.seed})")
    if "table_json_sha256" in passes.workload.notes:
        print(f"table json sha256 {passes.workload.notes['table_json_sha256']}")
    print(f"failed_frac {passes.failed / passes.attempted:.6f}"
          f" ({passes.failed}/{passes.attempted})")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
