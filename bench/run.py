"""qbench's benchmark: four seeded workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload qv_noisy --seed 2026 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --workload all --smoke  # tiny sizes, schema only

Every workload is a closed loop: one client in one process, and the next item
starts only when the previous one returns. A pass runs the workload's fixed,
seeded set of items once; the run repeats whole passes until ``--seconds``
have elapsed. All times are host time.

With ``--trace 0`` the timed passes run unpatched code and give the
end-to-end metrics. One traced pass follows, outside the timed section, to
count the simulated gate-shots and check every sampled set. With
``--trace 1`` the run spends half its time untraced and half traced, and
reports per-layer metrics per pass (see ``tracing.py``) plus the tracing
overhead; spans are written to ``bench/out/*.spans.jsonl``.

Correctness checks run outside the timed section. Every item's output record
must be identical on every pass; each workload adds its own checks
(``workloads.py``). ``failed`` counts the items that raised or failed a check.
The outputs digest is compared with ``bench/baseline/digests.json``; a change
is reported, not counted as a failure (``--record-digest`` stores it).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run, stamped
with the host and library versions, is written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "baseline" / "digests.json"
NAMES = ("qv_noisy", "collision_wide", "mirror_noisy", "suite_peak")
DEFAULT_SEED = 2026
#: set-ups per run: this process plus fresh-interpreter probes; the median is reported
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one pass per section, for the self-test")
    ap.add_argument("--record-digest", action="store_true",
                    help="store this run's outputs digest as the baseline for its seed")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(name: str, seed: int, smoke: bool):
    """Cold import, inputs, lazy tables and one untimed warm-up item; returns
    (workload, warm-up result, seconds)."""
    start = perf_counter()
    if not (SRC / "qbench" / "__init__.py").is_file():
        sys.exit(f"error: qbench sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[name](seed, smoke, OUT / f"work-{name}-{seed}-{os.getpid()}")
    warm = workload.run_item(0)
    return workload, warm, perf_counter() - start


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Set-up time of a fresh interpreter running the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--setup-probe"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Runner:
    """Runs passes of one workload and keeps what the checks and metrics need."""

    def __init__(self, workload, warm, digest):
        self.workload = workload
        self.tracer = None
        self._digest = digest
        self.digests: dict[int, str] = {}
        self.records: dict[int, dict] = {}
        self.latencies: list[float] = []
        self.attempts: list[int] = []  # item index of every timed attempt
        self.problems: list[tuple[int | None, str]] = []
        self._keep(0, warm)

    def _keep(self, i: int, result) -> None:
        try:
            record = self.workload.record(i, result)
        except Exception:
            self.problems.append((i, traceback.format_exc(limit=3)))
            return
        d = self._digest(record)
        if i not in self.digests:
            self.digests[i], self.records[i] = d, record
        elif d != self.digests[i]:
            self.problems.append((i, "output differs from an earlier run of the same item"))

    def one_pass(self, timed: bool) -> float:
        """Run every item once; returns the pass's wall time. Records are built after
        the pass so the bench's own bookkeeping stays out of it."""
        results = []
        start = perf_counter()
        for i in range(self.workload.items):
            if self.tracer is not None:
                self.tracer.item = i
            t0 = perf_counter()
            try:
                result = self.workload.run_item(i)
            except Exception:
                result = None
                self.problems.append((i, traceback.format_exc(limit=3)))
            if timed:
                self.latencies.append(perf_counter() - t0)
                self.attempts.append(i)
            results.append(result)
        wall = perf_counter() - start
        for i, result in enumerate(results):
            if result is not None:
                self._keep(i, result)
        return wall

    def passes(self, seconds: float, timed: bool, once: bool = False) -> list[float]:
        """Whole passes until `seconds` have elapsed, or exactly one pass."""
        walls = []
        start = perf_counter()
        while not walls or (not once and perf_counter() - start < seconds):
            walls.append(self.one_pass(timed))
        return walls

    def failed(self) -> int:
        if any(i is None for i, _ in self.problems):
            return len(self.attempts)
        bad = {i for i, _ in self.problems}
        return sum(1 for i in self.attempts if i in bad)


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten items beyond it, and its name."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n} (fewer than 11 items)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def environment() -> dict:
    import numpy as np
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "openblas": "unknown", "blas_threads": None}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                env["openblas"] = get_config().decode()
                env["blas_threads"] = int(get_threads())
                return env
    return env


def check_digest(name: str, seed: int, digest: str, headlines: list, record: bool) -> str:
    book = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = book.get(name, {}).get(str(seed))
    if record:
        book.setdefault(name, {})[str(seed)] = {"digest": digest, "headlines": headlines}
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
        return "recorded as the baseline"
    if entry is None:
        return "no baseline for this seed"
    if entry["digest"] == digest:
        return "unchanged from the baseline"
    return f"CHANGED from the baseline {entry['digest'][:12]} (reported, not a failure)"


def run_workload(args) -> int:
    workload, warm, setup_s = set_up(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import qbench.cliffords
    import tracing
    import workloads
    OUT.mkdir(exist_ok=True)
    runner = Runner(workload, warm, workloads.digest)
    try:
        untimed_s = args.seconds / 2 if args.trace else args.seconds
        walls = runner.passes(untimed_s, timed=True, once=args.smoke)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            # Rebuild lazy tables inside the traced section so their cost is seen.
            qbench.cliffords.clifford_group.cache_clear()
        tracer = runner.tracer = tracing.Tracer(qbench)
        with tracer:
            traced_walls = runner.passes(args.seconds / 2, timed=False,
                                         once=args.smoke or not args.trace)
        runner.problems.extend(tracer.problems)
        try:
            runner.problems.extend(workload.checks(runner.records))
        except Exception:
            runner.problems.append((None, traceback.format_exc(limit=3)))
    finally:
        workload.close()
    setups = [setup_s] + [probe_setup(args.workload, args.seed, args.smoke)
                          for _ in range(SETUP_SAMPLES - 1)]

    wall_s = statistics.median(walls)
    gate_shots = tracer.gate_shots() / len(traced_walls)
    tail_s, tail_name = tail(runner.latencies)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (wall_s, "s", f"median of {len(walls)} passes of {workload.items} items"),
        "item_p50_ms": (1e3 * statistics.median(runner.latencies), "ms",
                        f"median of {len(runner.latencies)} items"),
        "item_tail_ms": (1e3 * tail_s, "ms", tail_name),
        "gate_shots_per_s": (gate_shots / wall_s, "1/s", f"{gate_shots:.0f} gate-shots per pass"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
    }
    attempted, failed = len(runner.attempts), runner.failed()
    per_layer = tracing.layer_metrics(tracer.spans, len(traced_walls))
    per_layer.update({"trace.wall_s": statistics.median(traced_walls),
                      "trace.untraced_wall_s": wall_s,
                      "trace.overhead_s": statistics.median(traced_walls) - wall_s,
                      "trace.spans": len(tracer.spans) / len(traced_walls)})
    layer_values = {name: (per_layer.get(name, 0.0), unit) for name, unit in tracing.PER_LAYER}

    item_digests = [runner.digests[i] for i in sorted(runner.digests)]
    headlines = [workload.headlines(runner.records[i]) for i in sorted(runner.records)]
    outputs = workloads.digest({"items": item_digests})
    status = "smoke sizes, not compared" if args.smoke else \
        check_digest(args.workload, args.seed, outputs, headlines, args.record_digest)
    env = environment()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if args.trace:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in end_to_end.items()},
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": [{"item": i, "problem": p} for i, p in runner.problems],
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer_values.items()},
        "setups_s": setups, "pass_walls_s": walls, "traced_pass_walls_s": traced_walls,
        "item_latencies_s": runner.latencies, "item_digests": item_digests,
        "outputs_digest": outputs, "outputs_status": status, "headlines": headlines,
    }, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client  "
          f"({'traced' if args.trace else 'untraced'} timing)")
    for name, (value, unit, samples) in end_to_end.items():
        print(f"  {name:<18} {value:>14.6g} {unit:<4} {samples}")
    print(f"  {'failed_frac':<18} {failed / attempted:>14.6g} {'ratio':<4} {failed} of {attempted} items")
    if args.trace:
        for name, (value, unit) in layer_values.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
    for item, problem in runner.problems:
        print(f"  FAILED item {item}: {problem.strip().splitlines()[-1]}")
    print(f"  outputs {outputs[:16]}: {status}")
    print(f"  nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['openblas']}, BLAS threads {env['blas_threads']}")
    metrics = layer_values if args.trace else {k: (v, u) for k, (v, u, _) in end_to_end.items()}
    print(json.dumps({"correct": not runner.problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory are its own."""
    summary = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "workloads": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
