"""Run the benchmark once per seed and report each metric's median and
run-to-run spread (interquartile distance over median, as
`statistics.quantiles(values, n=4)` gives the quartiles).

    python3 perfbench/spread.py --workloads ladder stream --seeds 1-10 --out .bench_out/runs.json

Runs are sequential; each is `bench.py --workload W --seed S --seconds T
--trace 0`. The JSON written to --out holds every run's result line, so
a later commit can be compared with the same seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "seconds": args.seconds, "runs": {}}
    for w in args.workloads:
        runs = []
        for s in seeds(args.seeds):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", w,
                 "--seed", str(s), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            ).stdout
            line = json.loads(out.strip().splitlines()[-1])
            runs.append({"seed": s, "run_s": round(time.perf_counter() - t0, 2), **line})
            print(w, s, f"{runs[-1]['run_s']}s",
                  {k: round(v["value"], 5) for k, v in line["metrics"].items()},
                  "correct" if line["correct"] else f"FAILED {line['failed']}", flush=True)
        doc["runs"][w] = runs
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name]["value"] for r in runs])
            flag = "" if sp < bound / 3 else ("  (> bound/3)" if sp <= bound else "  (> bound)")
            print(f"  {w:7s} {name:12s} median {med:.6g}  spread {sp:.3f}  bound {bound}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
