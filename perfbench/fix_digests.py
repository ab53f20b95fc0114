#!/usr/bin/env python3
"""Record the exact outputs of every workload in ``perfbench/digests.json``.

    python3 perfbench/fix_digests.py

Run once when the benchmark's inputs change; a change that claims a speed-up
leaves the file alone.  Every item must pass its independent check, and the
outputs must not depend on the seed (seeds 0 and 1 are compared).
"""

from __future__ import annotations

import json
import sys

import run


def record(name: str, size: str) -> dict:
    texts = []
    for seed in (0, 1):
        wl, _, _ = run.setup(name, seed, size)
        _, outputs = run.run_pass(wl)
        bad = [label for label, (_, ok) in outputs.items() if not ok]
        if bad:
            raise SystemExit(f"{name}/{size}: independent checks failed on {bad}")
        texts.append({label: text for label, (text, _) in outputs.items()})
    if texts[0] != texts[1]:
        raise SystemExit(f"{name}/{size}: outputs depend on the seed")
    return {
        "sha256": run.workload_digest(texts[0]),
        "items": {label: run.digest(text)[:16] for label, text in sorted(texts[0].items())},
        "broken": sorted(label for label, _ in wl.broken),
    }


def main() -> None:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    out = {}
    for name in run.WORKLOADS:
        out[name] = {size: record(name, size) for size in ("tiny", "full")}
        print(name, {size: out[name][size]["sha256"][:16] for size in out[name]}, flush=True)
    run.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
