"""glkit benchmark: one workload, timed passes, every output checked.

    python3 perfbench/bench.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the repository root; glkit is imported from `src/` next to this
directory and nowhere else. The run

1. builds the workload's items from `--seed`,
2. times `setup_s` in fresh interpreters (import glkit, finish lazy
   set-up) at points spread over the run, and reports their median,
3. runs passes over the items until `--seconds` would be exceeded, and at
   least MIN_PASSES of them; passes do equal work (see workloads.py), and
   each item's time is its best over the untraced passes,
4. prints a report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
odd passes record spans around every call into glkit and the metrics are
per-layer self times and counts, medians over the traced passes, plus
the tracing overhead (traced minus untraced `pass_s`). Spans and counts are
also written to .bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "glkit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no glkit sources at {SRC / 'glkit'}")
sys.path.insert(0, str(SRC))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_REPS = 25
TAIL_PERCENTILE = 90  # of the per-item best times

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: self time per traced pass of each span name (unit s),
# and counts per traced pass taken at the same call boundaries.
LAYER_SPANS = (
    "syntax.parse",
    "completeness.decide_theorem",
    "completeness.decide_refute",
    "completeness.certificate_to_json",
    "completeness.certificate_from_json",
    "completeness.verify_certificate",
    "kripke.itf_valid_small",
    "kripke.frame_report",
    "kripke.holds",
    "kripke.model_from_json",
    "calculus.lemma",
    "calculus.proof_to_json",
    "calculus.proof_from_json",
    "calculus.check_proof",
    "bisim.largest_bisimulation",
    "io.json",
    "bench.item",
)
LAYER_COUNTS = (
    "syntax.parse_chars",
    "completeness.cert_worlds",
    "completeness.cert_edges",
    "completeness.cert_bytes",
    "kripke.valuations",
    "kripke.model_worlds",
    "kripke.model_edges",
    "calculus.proof_steps",
    "calculus.proof_bytes",
    "bisim.candidate_pairs",
    "bisim.pairs",
)
INPUT_PROPS = ("decision_bits.max", "decision_bits.sum", "repeat_share")
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "completeness.witness_reach_ratio": "ratio",
    **{f"completeness.{k}": "count" for k in INPUT_PROPS[:2]},
    "completeness.repeat_share": "ratio",
    "trace.overhead_s": "s",
}

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import glkit
glkit.itf_valid_small(glkit.TRUE, 3)  # builds the 3-world ITF frame table
t = time.perf_counter() - t
print(t, glkit.__file__)
"""


def setup_once() -> float:
    """Seconds a fresh interpreter takes to import glkit and finish its
    lazy set-up. Interpreter start-up itself is not counted."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported glkit from {out[1]}")
    return float(out[0])


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def run_pass(wl, index: int, tr, tamper=None):
    """One pass over every item. Returns (wall seconds, per-item
    [(item index, seconds, label)], failure messages). A failed check, a
    size-guard rejection or any other exception fails that item and the
    pass goes on."""
    tag = f"{index:04d}"
    samples, failures = [], []
    t0 = time.perf_counter()
    for i, item in enumerate(wl.items):
        tr.item = i
        try:
            with tr.span("bench.item"):
                samples.append((i, *item.run(item.data, tag, tr, tamper)))
        except Exception as e:  # counted against the run, never aborts it
            failures.append(f"pass {index} item {i}: {type(e).__name__}: {e}")
    return time.perf_counter() - t0, samples, failures


def best_times(passes) -> dict[int, tuple[float, str]]:
    """Each item's best (lowest) user-path time over the given passes,
    with its outcome label. The host's slow spells come and go within
    seconds, so the best of several repetitions spread over the run
    reads the program's own cost; a median still carries the slow spells
    a run happened to meet."""
    best: dict[int, tuple[float, str]] = {}
    for _, samples, _ in passes:
        for i, dt, label in samples:
            if i not in best or dt < best[i][0]:
                best[i] = (dt, label)
    return best


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, tamper=None, setup_reps: int = SETUP_REPS) -> dict:
    wl = WORKLOADS[workload](seed, tiny)
    passes, failures, tracers, setups = [], [], [], [setup_once()]
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        tr = Tracer() if traced else NullTracer()
        wall, samples, failed = run_pass(wl, index, tr, tamper)
        passes.append((wall, samples, traced))
        failures += failed
        if traced:
            tracers.append(tr)
        if index + 1 == MIN_PASSES:
            # Fixed point in the run, so the reading does not depend on speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        # Set-up is timed at points spread over the run, between passes,
        # so that its median does not rest on one moment of the host.
        while len(setups) < min(setup_reps, setup_reps * elapsed / max(seconds, 1e-9)):
            setups.append(setup_once())
        if index + 1 >= MIN_PASSES and elapsed + wall > seconds:
            break
    setups += [setup_once() for _ in range(setup_reps - len(setups))]
    setup_s = statistics.median(setups)

    attempted = len(passes) * len(wl.items)
    untraced = [p for p in passes if not p[2]]
    best = best_times(untraced)
    items = [dt for dt, _ in best.values()]
    q = TAIL_PERCENTILE
    result = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "traced_passes": len(tracers), "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "pass_walls": [round(p[0], 4) for p in passes],
        "tail_percentile": q, "item_samples": len(items),
        "inputs": dict(wl.props),
        "end_to_end": {
            "setup_s": setup_s,
            "pass_s": math.fsum(items),
            "item_s.p50": statistics.median(items) if items else math.nan,
            "item_s.tail": percentile(items, q) if items else math.nan,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    labels = defaultdict(list)  # best item seconds by outcome label
    for dt, label in best.values():
        labels[label].append(dt)
    result["by_label_s"] = {
        label: (math.fsum(xs), statistics.median(xs), percentile(xs, q), len(xs))
        for label, xs in sorted(labels.items())
    }
    result["inputs"]["outcomes"] = dict(Counter(label for _, label in best.values()))
    if trace:
        result["per_layer"] = _per_layer(tracers, passes, wl.props)
        _write_trace(workload, seed, tracers, result)
    return result


def _per_layer(tracers, passes, props) -> dict:
    """Median over the traced passes of each span's self time and of each
    count per pass."""
    def median_of(per_pass: list[dict], name: str) -> float:
        return statistics.median(d.get(name, 0.0) for d in per_pass)

    self_s = [tr.self_times() for tr in tracers]
    counts = [tr.counts for tr in tracers]
    out = {f"{name}_s": median_of(self_s, name) for name in LAYER_SPANS}
    out.update({name: median_of(counts, name) for name in LAYER_COUNTS})
    worlds = median_of(counts, "completeness.cert_worlds")
    out["completeness.witness_reach_ratio"] = (
        median_of(counts, "completeness.witness_reach") / worlds if worlds else 0.0
    )
    out.update({f"completeness.{k}": props.get(k, 0) for k in INPUT_PROPS})
    traced = math.fsum(dt for dt, _ in best_times([p for p in passes if p[2]]).values())
    untraced = math.fsum(dt for dt, _ in best_times([p for p in passes if not p[2]]).values())
    out["trace.overhead_s"] = traced - untraced
    return out


def _write_trace(workload, seed, tracers, result) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    doc = {
        "result": result,
        "passes": [{"spans": tr.spans, "counts": dict(tr.counts)} for tr in tracers],
    }
    (out / f"trace-{workload}-{seed}.json").write_text(json.dumps(doc))


def report(result: dict, trace: bool) -> str:
    """Human-readable lines, then the one-line JSON result."""
    lines = [
        f"# workload {result['workload']}  seed {result['seed']}  "
        f"passes {result['passes']} (traced {result['traced_passes']})  "
        f"attempted {result['attempted']}  failed {result['failed']}",
        f"# pass walls (s) {result['pass_walls']}",
        f"# failed_ratio {result['failed'] / result['attempted']:.4g} (1)",
    ]
    e2e = result["end_to_end"]
    for name, unit in END_TO_END.items():
        lines.append(f"# {name} {e2e[name]:.6g} {unit}")
    lines.append(
        f"# item_s.* are over the best times of {result['item_samples']} items; "
        f"item_s.tail is p{result['tail_percentile']:g}"
    )
    if result["workload"] == "stream":  # the per-item times under their user-facing name
        lines.append(f"# verdict_s.p50 {e2e['item_s.p50']:.6g} s")
        lines.append(f"# verdict_s.tail {e2e['item_s.tail']:.6g} s")
    for label, (total, p50, tail, n) in result["by_label_s"].items():
        lines.append(f"# {label}_s {total:.6g} s (per pass), {label}_s.p50 {p50:.6g} s, "
                     f"{label}_s.tail {tail:.6g} s (over {n} items)")
    lines.append(f"# inputs {json.dumps(result['inputs'])}")
    lines += [f"# FAILED {f}" for f in result["failures"]]
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
