#!/usr/bin/env python3
"""Run one foamlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: foamlab is imported from ``src/``.  One
caller, one thread, closed loop: each item starts when the previous one
returns.  A pass runs every item of the workload once; passes repeat while
another one fits in ``--seconds`` (at least one always runs).  Times are in
reference seconds (see ``speed.py``); raw seconds are printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, and prints the per-layer metrics (times
are medians over traced passes, counts must repeat exactly between them)
and the tracing overhead; the spans of the first traced pass are written to
``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every item output is digested and
compared with ``perfbench/digests.json``; an unexpected failure or a digest
mismatch makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SETUP_PER_PASS = 3  # set-up is timed again after every untraced pass
WORKLOADS = ("eval", "rank", "induced", "operators")

END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
TAIL_PERCENTILES = (99, 95, 90, 75, 50, 25, 10)


def _ours(module: str) -> bool:
    return module in ("foamlab", "gen", "workloads") or module.startswith("foamlab.")


def setup(name: str, seed: int, size: str):
    """Import foamlab and the workload module anew, as a new process would, and
    build the workload's inputs: (workload, start, end)."""
    for module in [m for m in sys.modules if _ours(m)]:
        del sys.modules[module]
    gc.collect()  # garbage of earlier set-ups is not this one's cost
    t0 = time.perf_counter()
    wl = importlib.import_module("workloads").build(name, seed, size)
    return wl, t0, time.perf_counter()


def time_setup_again(name: str, seed: int, size: str) -> tuple[float, float]:
    """Time one more set-up, then restore the modules the running workload uses."""
    saved = {m: mod for m, mod in sys.modules.items() if _ours(m)}
    _, t0, t1 = setup(name, seed, size)
    for module in [m for m in sys.modules if _ours(m)]:
        del sys.modules[module]
    sys.modules.update(saved)
    return t0, t1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(outputs: dict[str, str]) -> str:
    return digest("".join(f"{label}\t{outputs[label]}\n" for label in sorted(outputs)))


def run_pass(wl):
    """Run every item once: ({label: (start, end)}, {label: (output text, check ok)})."""
    spans, outputs = {}, {}
    for item in wl.items:
        a = time.perf_counter()
        try:
            text, ok = item.call()
        except Exception as exc:  # a failing item is counted, not fatal
            text, ok = f"raised {type(exc).__name__}: {exc}", False
        spans[item.label] = (a, time.perf_counter())
        outputs[item.label] = (text, ok)
    return spans, outputs


class Verdict:
    """Checks every pass against the fixed digests and counts failures."""

    def __init__(self, wl, expected: dict):
        self.wl = wl
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        known = set(expected["broken"])
        for label, error in wl.broken:
            if label not in known:
                self.problems.append(f"{label}: unexpected build failure: {error}")

    def check(self, outputs: dict) -> None:
        want = self.expected["items"]
        self.attempted += len(outputs) + len(self.wl.broken)
        self.failed += len(self.wl.broken)
        for label, (text, ok) in outputs.items():
            # a label missing from the digests is an input that failed to
            # build when they were recorded and builds now: only its check counts
            matches = label not in want or digest(text)[:16] == want[label]
            if not (ok and matches):
                self.failed += 1
                why = "check failed" if not ok else "digest mismatch"
                self.problems.append(f"{label}: {why}: {text[:200]}")
        texts = {label: text for label, (text, _) in outputs.items() if label in want}
        if len(texts) == len(want) and workload_digest(texts) != self.expected["sha256"]:
            self.problems.append("workload digest mismatch")

    @property
    def correct(self) -> bool:
        return not self.problems


def tail(values: list[float]) -> tuple[float, int]:
    """Highest listed percentile with at least ten values beyond it (nearest rank).

    With fewer than eleven values no percentile qualifies, and the maximum
    (reported as percentile 100) is used.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        k = max(0, -(-p * n // 100) - 1)
        if n - k - 1 >= 10:
            return xs[k], p
    return xs[-1], 100


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            out_dir: Path | None = None):
    """Run one workload; return (result dict, human-readable report lines)."""
    speed = importlib.import_module("speed")
    tracer_mod = importlib.import_module("tracer")
    with speed.SpeedProbe() as probe:
        wl, *first = setup(name, seed, size)
        setups = [tuple(first)]
        verdict = Verdict(wl, json.loads(DIGESTS.read_text())[name][size])
        start = time.perf_counter()
        passes, traced, durations, summaries = [], [], [], []
        tracer = None
        while True:
            if trace and passes:
                if tracer is None:
                    tracer = tracer_mod.Tracer()
                    tracer.install()
                tracer.reset()
            t0 = time.perf_counter()
            spans, outputs = run_pass(wl)
            verdict.check(outputs)
            if tracer is None:
                passes.append(spans)
                if not trace:
                    setups += [time_setup_again(name, seed, size) for _ in range(SETUP_PER_PASS)]
            else:
                traced.append(spans)
                summaries.append(tracer.summary())
                if len(summaries) == 1:
                    first_spans = list(tracer.spans)
            durations.append(time.perf_counter() - t0)
            if trace and tracer is None:
                continue  # the traced passes are still to come
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                break
        if tracer is not None:
            tracer.uninstall()
            if out_dir is not None:
                tracer_mod.write_spans(out_dir / f"trace-{name}-{size}-seed{seed}.json", first_spans)

    def convert(spans):  # {label: (raw seconds, reference seconds)}
        return {label: probe.reference(a, b) for label, (a, b) in spans.items()}

    def pass_s(runs, which):
        return statistics.median(sum(t[which] for t in run.values()) for run in runs)

    passes = [convert(p) for p in passes]
    if trace:
        # span times include the probe's ticks: scale them by reference
        # seconds per second of the items' whole intervals
        scales = [sum(probe.reference(a, b)[1] for a, b in run.values())
                  / sum(b - a for a, b in run.values()) for run in traced]
        traced = [convert(p) for p in traced]
        metrics = {}
        for key in summaries[0]:
            vals = [summary[key] * scale if key.endswith("_s") else summary[key]
                    for summary, scale in zip(summaries, scales)]
            if key.endswith("_s"):
                metrics[key] = statistics.median(vals)
            else:
                metrics[key] = vals[0]
                if any(v != vals[0] for v in vals):
                    verdict.problems.append(f"count {key} differs between traced passes: {vals}")
        metrics["trace.overhead_s"] = pass_s(traced, 1) - pass_s(passes, 1)
        units = tracer_mod.PER_LAYER
        notes = [f"pass time, traced {pass_s(traced, 1):.4f} s, untraced {pass_s(passes, 1):.4f} s"
                 f" (raw {pass_s(traced, 0):.4f} s and {pass_s(passes, 0):.4f} s)"]
    else:
        labels = list(passes[0])
        per_item = [statistics.median(run[label][1] for run in passes) for label in labels]
        raw_item = [statistics.median(run[label][0] for run in passes) for label in labels]
        setup_times = [probe.reference(a, b) for a, b in setups]
        tail_v, tail_p = tail(per_item)
        metrics = {
            "wall_s": sum(per_item),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": tail_v * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "ok_frac": (verdict.attempted - verdict.failed) / verdict.attempted,
        }
        units = END_TO_END
        notes = [
            f"wall_s sums each item's median over {len(passes)} passes; item_tail_ms is"
            f" p{tail_p} of {len(per_item)} items; setup_s is the median of {len(setups)} set-ups",
            f"raw seconds: pass {pass_s(passes, 0):.4f}, item p50 {statistics.median(raw_item):.6f},"
            f" set-up {statistics.median(raw for raw, _ in setup_times):.6f}",
            f"fail_frac {verdict.failed}/{verdict.attempted} = {verdict.failed / verdict.attempted:.4f}",
        ]
    lines = [f"workload {name} ({size}), seed {seed}: {len(passes)} untraced and "
             f"{len(traced)} traced passes of {len(wl.items)} items + {len(wl.broken)} unbuilt"]
    lines += [f"  known failure {label}: {error}" for label, error in wl.broken]
    lines += [f"  FAIL {problem}" for problem in verdict.problems[:20]]
    lines += [f"  {note}" for note in notes]
    lines += [f"  {key:32s} {value:.6g} {units[key]}" for key, value in metrics.items()]
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "foamlab" / "__init__.py").is_file():
        print(f"perfbench: no foamlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            out_dir=HERE / "out")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
