"""Summarise run records written by ``run.py`` under ``perfbench/out/``.

    python3 perfbench/summarize.py [record.json ...]

For every workload, prints each end-to-end metric's median and quartiles
over the untraced runs, normalised and raw side by side, with the
spread (Q3 - Q1) as a share of the median; checks that the exact work
counters are identical across runs of one seed; and prints the
per-layer split of the traced runs.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

OUT = Path(__file__).resolve().parent / "out"

#: end-to-end metric -> per-repetition field holding its raw value.
RAW_FIELDS = {
    "setup_s": "setup_raw_s",
    "verdict_s": "verdict_raw_s",
    "requests_per_s": "requests_per_s_raw",
}


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def _load(paths: list[str]) -> list[dict]:
    files = [Path(p) for p in paths] or sorted(OUT.glob("run-*.json"))
    return [json.loads(f.read_text()) for f in files]


def main(argv: list[str]) -> int:
    records = _load(argv)
    by_workload = defaultdict(list)
    for record in records:
        by_workload[record["workload"]].append(record)
    ok = True
    for workload, runs in sorted(by_workload.items()):
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        print(f"## {workload}: {len(plain)} untraced, {len(traced)} traced runs")
        print(f"correct: {all(r['correct'] for r in runs)}; "
              f"failed: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations")
        if plain:
            print()
            print("| metric | median | Q1 | Q3 | spread | raw median | raw spread |")
            print("|---|---|---|---|---|---|---|")
            for name in plain[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in plain]
                mid, q1, q3, share = _spread(values)
                row = f"| {name} | {mid:.5g} | {q1:.5g} | {q3:.5g} | {share:.1%} |"
                field = RAW_FIELDS.get(name)
                if field:
                    raw = [median(rep[field] for rep in r["reps"][1:]) for r in plain]
                    raw_mid, _, _, raw_share = _spread(raw)
                    row += f" {raw_mid:.5g} | {raw_share:.1%} |"
                else:
                    row += " (not a timing) | |"
                print(row)
            refs = [median(r["host_ref_ms"]) for r in plain]
            mid, q1, q3, _ = _spread(refs)
            print(f"\nhost.ref_ms per run: median {mid:.3f}, Q1 {q1:.3f}, Q3 {q3:.3f}")
        seeds = defaultdict(set)
        for r in runs:
            for rep in r["reps"]:
                if rep.get("counters"):
                    seeds[r["seed"]].add(json.dumps(rep["counters"], sort_keys=True))
        repeat = all(len(v) == 1 for v in seeds.values())
        ok = ok and repeat and all(r["correct"] for r in runs)
        print(f"exact counters repeat within every seed ({len(seeds)} seeds): {repeat}")
        if traced:
            print()
            print("| per-layer metric | " + " | ".join(f"seed {r['seed']}" for r in traced) + " |")
            print("|---|" + "---|" * len(traced))
            for name in traced[0]["metrics"]:
                cells = " | ".join(f"{r['metrics'][name]['value']:.4g}" for r in traced)
                print(f"| {name} ({traced[0]['metrics'][name]['unit']}) | {cells} |")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
