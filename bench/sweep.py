"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py --runs 10 --out bench/out/sweep.json
    python3 bench/sweep.py --runs 10 --against bench/baseline/metrics.json

For every workload and metric it prints the median of the runs, the spread
(distance between the first and third quartile as a share of the median)
and the metric's bound from BENCHMARK.json. With ``--against`` it also
prints how far each median moved from a stored summary, as a share of the
stored median, signed so that positive is worse.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--record-digest", action="store_true",
                    help="store each run's outputs digest as the baseline for its seed")
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    stored = json.loads(args.against.read_text()) if args.against else {}
    summary = {}
    statuses: list[str] = []
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            cmd += ["--record-digest"] if args.record_digest else []
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            if not result.get("correct"):
                print(f"{name} seed {seed}: run failed\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                return 1
            for m in metrics:
                values[m].append(result["metrics"][m]["value"])
            for line in proc.stdout.splitlines():
                if line.startswith("  outputs "):
                    statuses.append(f"seed {seed}: {line.strip()}")
        summary[name] = {m: summarise(v) for m, v in values.items()}
        record = ROOT / "bench" / "out" / f"{name}-seed{args.first_seed}-trace0.json"
        summary["environment"] = json.loads(record.read_text())["environment"]
        print(f"{name}: {args.runs} runs of {args.seconds:g} s")
        for m, s in summary[name].items():
            bound = metrics[m]["bound"]
            line = (f"  {m:<18} median {s['median']:<12.6g} spread {s['spread']:6.3f} "
                    f"(bound {bound}{', over a third' if s['spread'] > bound / 3 else ''})")
            old = stored.get(name, {}).get(m)
            if old:
                sign = 1 if metrics[m]["better"] == "lower" else -1
                moved = sign * (s["median"] - old["median"]) / old["median"]
                ok &= moved <= bound
                line += f"  moved {moved:+.3f}{' WORSE THAN BOUND' if moved > bound else ''}"
            print(line)
    print("\n".join(statuses))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
