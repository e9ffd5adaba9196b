"""Run the benchmark over several seeds and report medians and spreads.

    python3 bench/spread.py [--seeds 1-10] [--save FILE] [--against FILE]

Runs ``bench/run.py --trace 0`` once per workload of ``BENCHMARK.json``
and seed, one at a time, for ``run_seconds`` each, then prints one row
per workload with every end-to-end metric's median over the seeds, by
name and unit. It also prints each metric's spread, the distance
between the first and third quartile as a share of the median, next to
its bound in ``BENCHMARK.json``, and the output hashes of each seed. ``--save`` writes the collected runs as JSON;
``--against`` compares medians and hashes with runs saved earlier.
With one seed this is the single command that prints every metric of
every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def run_one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((REPO / ".bench_work" / "results" /
                          f"{workload}-seed{seed}-trace0.json").read_text())
    result["sha256"] = details["sha256"]
    return result


def main(argv=None) -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, dict[str, dict]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = {}
        for seed in _seeds(args.seeds):
            result = run_one(workload, seed, bench["run_seconds"])
            runs[workload][str(seed)] = result
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n")
    earlier = json.loads(args.against.read_text()) if args.against else None

    worst_share = 0.0
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        print(f"\n{workload}: {len(results)} run(s), seeds {','.join(by_seed)}")
        for name, entry in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            row = f"  {name:34s} {median:>16.6g} {entry['unit']:6s}"
            if len(values) > 1:
                spread = _spread(values)
                bound = bounds[name]
                row += f"  spread {spread:7.4f}  bound {bound:.3f}"
                worst_share = max(worst_share, spread / bound)
            if earlier and workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload].values())
                if before:
                    row += f"  vs saved {median / before - 1:+.4f}"
            print(row)
        for seed, result in by_seed.items():
            same = ""
            if earlier and seed in earlier.get(workload, {}):
                same = "  same as saved" if (
                    earlier[workload][seed]["sha256"] == result["sha256"]) else "  DIFFERS from saved"
            hashes = " ".join(f"{k}:{v[:12]}" for k, v in sorted(result["sha256"].items()))
            print(f"  seed {seed} sha256 {hashes}{same}")
    if len(_seeds(args.seeds)) > 1:
        print(f"\nlargest spread / bound: {worst_share:.3f}")

    # One row per workload: the median of each metric over the seeds.
    first = next(iter(runs.values()))
    columns = [(name, entry["unit"])
               for name, entry in next(iter(first.values()))["metrics"].items()]
    print("\nworkload       " + " ".join(f"{f'{n} [{u}]':>24s}" for n, u in columns))
    for workload, by_seed in runs.items():
        cells = [statistics.median(r["metrics"][n]["value"] for r in by_seed.values())
                 for n, _ in columns]
        print(f"{workload:14s} " + " ".join(f"{c:>24.6g}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
