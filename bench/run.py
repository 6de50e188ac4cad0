"""sclab benchmark: closed-loop experiment cases with drift-corrected timing.

Run from the root of a checkout:

    python3 bench/run.py --workload seq-model --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

One client process runs the workload's cases back to back (a closed loop)
for ``--seconds`` seconds, in whole rounds, and checks every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
a fixed number of rounds untraced and then traced, and reports per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("seq-model", "grid-maps", "germ-cert")
# One BLAS thread: with the default pool of two, CPU time ran 35 % above wall
# time on grid work whose matrices are at most 33x33.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 7  # fresh interpreters per run; setup_s is their median
TRACE_SETUP_STARTS = 3


# ---------------------------------------------------------------------------
# cold start


def _cold_start(workload: str, importtime: bool = False) -> Tuple[float, dict, str]:
    """Start a fresh interpreter for the workload's set-up; returns its wall
    time in seconds, its own timings and its standard error."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH_DIR / "cold_start.py"), workload]
    env = {**os.environ, **BLAS_ENV}
    # an installed CLI starts from cached bytecode; let the first start write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _import_ms(importtime_log: str, package: str) -> float:
    """Cumulative import time of ``package`` from a ``-X importtime`` log:
    the sum over its entries that no entry of the package encloses."""
    entries = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4)))
    total = 0
    ancestors: List[Tuple[int, bool]] = []  # (depth, belongs to the package)
    # the log lists children before their parent; walk it backwards
    for depth, cumulative_us, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(a[1] for a in ancestors):
            total += cumulative_us
        ancestors.append((depth, mine))
    return total / 1e3


def measure_setup(workload: str, starts: int) -> float:
    _cold_start(workload)  # writes the bytecode caches, so every timed start finds them
    return statistics.median(_cold_start(workload)[0] for _ in range(starts))


def setup_layers(workload: str) -> Dict[str, Tuple[float, str]]:
    _cold_start(workload)
    scipy_ms, sclab_ms, bump_ms = [], [], []
    for _ in range(TRACE_SETUP_STARTS):
        _, own, log = _cold_start(workload, importtime=True)
        scipy_ms.append(_import_ms(log, "scipy"))
        sclab_ms.append(_import_ms(log, "sclab"))
        bump_ms.append(own["make_bump_ms"])
    return {
        "setup.import_ms.scipy": (statistics.median(scipy_ms), "ms"),
        "setup.import_ms.sclab": (statistics.median(sclab_ms), "ms"),
        "setup.make_bump_ms": (statistics.median(bump_ms), "ms"),
    }


# ---------------------------------------------------------------------------
# the reference kernel


class ReferenceKernel:
    """Fixed work timed right before and after every experiment run, and
    every 50 ms during the timed phase.

    It mixes the program's three kinds of work: a Python float loop, 0-d
    numpy calls under ``np.errstate``, and ``np.gradient`` over 4001 nodes.
    Case times are divided by the mean kernel time of the run, which moves
    with the machine's speed as the case times do.  Single kernel times
    jump between two levels (about 0.8 and 1.25 ms here), so dividing each
    run by its adjacent kernel time added noise.  The mean over hundreds of
    timings does not, and the timer spreads them through runs that last a
    second, which boundary samples alone leave unsampled.
    """

    TIMINGS_PER_SAMPLE = 3
    TIMER_INTERVAL_S = 0.05

    def __init__(self, np) -> None:
        self.np = np
        self.grid = np.sin(np.linspace(-2.0, 2.0, 4001))
        self.times: List[float] = []
        self.timer_s = 0.0  # time spent in timer samples, to subtract from runs
        self._busy = False

    def work(self) -> float:
        np = self.np
        x, acc = 0.5, 0.0
        for _ in range(1200):
            x = math.log1p(math.exp(-x)) + 0.25
            acc += 0.5 * x if x > 0.3 else -x
        for i in range(200):
            with np.errstate(over="ignore", under="ignore"):
                acc += float(np.exp(-1.0 / np.asarray(0.5 + 1e-3 * i)))
        v = self.grid
        for _ in range(8):
            v = np.gradient(v, 1e-3, edge_order=2)
        return acc + float(v[2000])

    def _timed(self) -> float:
        t0 = time.perf_counter()
        self.work()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def sample(self) -> None:
        self._busy = True
        for _ in range(self.TIMINGS_PER_SAMPLE):
            self._timed()
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self.timer_s += self._timed()
            self._busy = False

    @contextlib.contextmanager
    def timer(self):
        """Take one timing every TIMER_INTERVAL_S, between bytecodes of
        whatever runs; the handler's time is counted in ``timer_s``."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.TIMER_INTERVAL_S, self.TIMER_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> List[float]:
        """The timings since the last take."""
        times, self.times = self.times, []
        return times


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    independent_checks: int = 0
    case_size: List[str] = field(default_factory=list)
    case_wall: List[float] = field(default_factory=list)
    case_cpu: List[float] = field(default_factory=list)
    kernel: List[float] = field(default_factory=list)
    failures: Dict[str, int] = field(default_factory=dict)
    wrong: List[str] = field(default_factory=list)

    def case_ref(self) -> float:
        """Mean over input sizes of the median case time at that size, in
        units of the run's mean reference-kernel time."""
        by_size: Dict[str, List[float]] = {}
        for size, wall in zip(self.case_size, self.case_wall):
            by_size.setdefault(size, []).append(wall)
        per_size = statistics.fmean(statistics.median(v) for v in by_size.values())
        return per_size / statistics.fmean(self.kernel)


class Loop:
    def __init__(self, workload, kernel: ReferenceKernel, experiments, workloads, tracer=None):
        self.workload = workload
        self.kernel = kernel
        self.experiments = experiments
        self.workloads = workloads
        self.tracer = tracer

    def run_case(self, case, tally: Tally) -> None:
        exps = self.experiments
        wall = cpu = 0.0
        done = []
        self.kernel.sample()
        for eid in self.workload.experiments:
            tally.attempted += 1
            error = None
            timer0 = self.kernel.timer_s
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                report = exps.run(eid, case.config)
                rendered = exps.emit(report, "json")
            except Exception as exc:  # a raising operation counts as failed
                report, error = None, f"{type(exc).__name__}: {exc}"
            in_timer = self.kernel.timer_s - timer0
            wall += time.perf_counter() - t0 - in_timer
            cpu += time.process_time() - c0 - in_timer
            self.kernel.sample()
            if report is None or not report.passed:
                tally.failed += 1
                why = error or "; ".join(c.name for c in report.checks if not c.passed)
                key = f"{eid} seed={case.config.seed}: {why}"
                tally.failures[key] = tally.failures.get(key, 0) + 1
            else:
                done.append((report, rendered))
        tally.kernel += self.kernel.take()
        tally.case_size.append(case.size)
        tally.case_wall.append(wall)
        tally.case_cpu.append(cpu)
        self.verify(case, done, tally)

    def verify(self, case, done, tally: Tally) -> None:
        """Independent checks of the case's outputs, outside timing and tracing."""
        paused = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with paused:
            try:
                for report, rendered in done:
                    tally.independent_checks += self.workloads.check_report(report, rendered)
                tally.independent_checks += self.workload.verify(case)
            except Exception as exc:  # record every wrong output, keep measuring
                tally.wrong.append(f"{case.label}: {type(exc).__name__}: {exc}")

    def run_rounds(self, rounds, tally: Tally, max_cases: int = 0) -> None:
        for cases in rounds:
            for case in cases:
                if max_cases and len(tally.case_wall) >= max_cases:
                    return
                self.run_case(case, tally)


def timed_phase(loop: Loop, seed: int, seconds: float, max_cases: int) -> Tally:
    """Whole rounds until ``seconds`` have passed."""
    tally = Tally()
    rng = random.Random(seed)
    start = time.perf_counter()
    while True:
        loop.run_rounds([loop.workload.make_round(rng)], tally, max_cases)
        if time.perf_counter() - start >= seconds or (
            max_cases and len(tally.case_wall) >= max_cases
        ):
            return tally


def warm_up(loop: Loop, seed: int) -> None:
    """One untimed, unchecked case: lazy imports and caches fill here."""
    case = loop.workload.make_round(random.Random(seed ^ 0x5EED))[0]
    for eid in loop.workload.experiments:
        loop.experiments.emit(loop.experiments.run(eid, case.config), "json")


# ---------------------------------------------------------------------------
# entry points


def _result(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _summary(args, tallies: List[Tally], extra: Dict[str, float]) -> None:
    fields = " ".join(f"{k}={v:.6g}" for k, v in extra.items())
    print(
        f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"cases={sum(len(t.case_wall) for t in tallies)} "
        f"attempted={sum(t.attempted for t in tallies)} "
        f"failed={sum(t.failed for t in tallies)} "
        f"independent_checks={sum(t.independent_checks for t in tallies)} {fields}"
    )
    failures: Dict[str, int] = {}
    for t in tallies:
        for key, n in t.failures.items():
            failures[key] = failures.get(key, 0) + n
    for key, n in sorted(failures.items()):
        print(f"bench: failed x{n}: {key}")
    for t in tallies:
        for msg in t.wrong:
            print(f"bench: WRONG OUTPUT: {msg}")


def run_benchmark(args) -> int:
    if not (ROOT / "src" / "sclab" / "__init__.py").is_file():
        print(f"bench: no sclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))

    if args.trace:
        setup_metrics = setup_layers(args.workload)
    else:
        setup_s = measure_setup(args.workload, SETUP_STARTS)

    import numpy as np

    import workloads
    from sclab import experiments

    workload = workloads.WORKLOADS[args.workload]
    kernel = ReferenceKernel(np)
    if not args.trace:
        loop = Loop(workload, kernel, experiments, workloads)
        warm_up(loop, args.seed)
        with kernel.timer():
            tally = timed_phase(loop, args.seed, args.seconds, args.cases)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "case_ref.p50": (tally.case_ref(), "ref"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        _summary(
            args,
            [tally],
            {
                "case_ms.p50": 1e3 * statistics.median(tally.case_wall),
                "case_cpu_ms.p50": 1e3 * statistics.median(tally.case_cpu),
                "cases_per_s": len(tally.case_wall) / sum(tally.case_wall),
                "kernel_ms.mean": 1e3 * statistics.fmean(tally.kernel),
            },
        )
        print(_result(not tally.wrong, tally.attempted, tally.failed, metrics))
        return 0

    import tracing

    tracer = tracing.Tracer()
    loop = Loop(workload, kernel, experiments, workloads, tracer)
    warm_up(loop, args.seed)
    rng = random.Random(args.seed)
    rounds = [workload.make_round(rng) for _ in range(workload.trace_rounds)]
    plain, traced = Tally(), Tally()
    loop.run_rounds(rounds, plain, args.cases)
    tracing.install(tracer)
    tracer.active = True
    try:
        loop.run_rounds(rounds, traced, args.cases)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
    metrics = {**setup_metrics, **tracing.layer_metrics(tracer)}
    # both passes ran the same cases, so their drift-corrected totals compare
    corrected = [sum(t.case_wall) / statistics.fmean(t.kernel) for t in (plain, traced)]
    metrics["trace.overhead_pct"] = (100.0 * (corrected[1] / corrected[0] - 1.0), "%")
    _summary(
        args,
        [plain, traced],
        {
            "untraced_case_ms.p50": 1e3 * statistics.median(plain.case_wall),
            "traced_case_ms.p50": 1e3 * statistics.median(traced.case_wall),
            "spans": len(tracer.span_start),
        },
    )
    wrong = plain.wrong or traced.wrong
    print(_result(not wrong, plain.attempted + traced.attempted, plain.failed + traced.failed, metrics))
    return 0


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Run a few cases of every workload, traced and untraced, and check the
    output against BENCHMARK.json; then check that a directory without the
    program makes the benchmark fail without a result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--cases", "2"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
            tag = f"{wl['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} attempted={result['attempted']}")
            ran = [re.search(r"independent_checks=(\d+)", ln) for ln in lines]
            if not any(m and int(m.group(1)) > 0 for m in ran):
                problems.append(f"{tag}: no independent checks ran")
            print(f"self-test: {tag}: attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(got)}")
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "grid-maps", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("a directory without the program still gave a result")
    else:
        print(f"self-test: directory without the program: exit {proc.returncode}")
    for p in problems:
        print(f"self-test: FAIL: {p}")
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cases", type=int, default=0,
        help="stop after this many cases, even inside a round (self-test only)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
