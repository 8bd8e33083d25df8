"""Run-to-run spread of the benchmark, and the baseline it records.

Run from the repository root:

    python3 bench/spread.py [--runs 10] [--first-seed 0] [--workload W ...] [--out FILE]

For every workload it runs bench/run.py in a fresh process once per seed
with tracing off, then twice on the first seed with tracing on. It prints, per
end-to-end metric, the median, the quartiles of statistics.quantiles(n=4)
and their distance as a share of the median, next to the metric's bound;
and it checks that every count of the traced runs repeats exactly. With
--out it writes all figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    """The run's result, with the environment it printed under "env"."""
    try:
        result, lines = run.run_workload(workload, seed, bench["run_seconds"], trace)
    except run.BenchError as exc:
        raise SystemExit(str(exc)) from exc
    result["env"] = next(json.loads(line[len("# env "):]) for line in lines
                         if line.startswith("# env "))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = run.load_definition()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    ok = True
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workload:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(bench, workload, seed, 0) for seed in seeds]
        traced = [run_once(bench, workload, args.first_seed, 1) for _ in range(2)]
        report["environment"] = runs[0]["env"]
        entry = {"seeds": seeds,
                 "attempted": sum(r["attempted"] for r in runs + traced),
                 "failed": sum(r["failed"] for r in runs + traced),
                 "correct": all(r["correct"] for r in runs + traced),
                 "end_to_end": {}, "per_layer": traced[0]["metrics"]}
        ok &= entry["correct"]
        print(f"== {workload}: {entry['failed']} failed of {entry['attempted']} "
              f"attempted, correct={entry['correct']}")
        for metric in bench["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["unit"], stats["bound"] = metric["unit"], metric["bound"]
            entry["end_to_end"][metric["name"]] = stats
            steady = stats["spread"] < metric["bound"] / 3
            ok &= steady
            print(f"{metric['name']:<20} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"bound {metric['bound']} {'ok' if steady else 'WIDE'} "
                  f"[{' '.join(f'{v:.4g}' for v in stats['values'])}]")
        for name, value in traced[0]["metrics"].items():
            if value["unit"] == "count" and value != traced[1]["metrics"][name]:
                ok = False
                print(f"count {name} differs between traced runs: "
                      f"{value['value']} vs {traced[1]['metrics'][name]['value']}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
