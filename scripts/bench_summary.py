"""Summarise paired benchmark runs of a parent and a changed checkout into
one BENCH file.

    python3 scripts/bench_summary.py --parent LOGDIR --change LOGDIR -o BENCH_N.json

Each LOGDIR holds the standard output of `python3 perfbench/run.py ...`
runs with `--trace 0`, one file per run, named *.out.  The line before the
last of each is the run record that perfbench also writes to perfbench/out/;
the last is the result line, which alone carries the end-to-end metrics.
Runs pair up by workload, seed and run length; runs without a partner on
the other side (such as short reference checks) count only towards
`matches_reference`.

For every workload and every end-to-end metric in BENCHMARK.json, the file
gives each side's median and quartiles over the paired runs, how many
pairs the change won (ties count for neither side), and whether a gain
would hold by the rule that the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(logdir):
    """(workload, seed, seconds) -> (record, result) for each run log."""
    runs = {}
    for path in sorted(Path(logdir).glob("*.out")):
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            sys.exit("bench_summary: %s is not a complete run log" % path)
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        key = (record["workload"], record["seed_offset"], record["run_seconds"])
        runs[key] = (record, result)
    return runs


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(parent, change, metric_specs):
    out = {}
    for workload in sorted({k[0] for k in change}):
        pairs = sorted(k for k in change if k[0] == workload and k in parent)
        checked = [r for k, (r, _) in change.items() if k[0] == workload]
        entry = {
            "pairs": len(pairs),
            "seeds": [k[1] for k in pairs],
            "run_seconds": sorted({k[2] for k in pairs}),
            "all_correct": all(side[k][1]["correct"] for side in (parent, change) for k in pairs),
            "failed": {name: sum(side[k][1]["failed"] for k in pairs)
                       for name, side in (("parent", parent), ("change", change))},
            # every run of the change, paired or not, on seeds with a
            # recorded reference
            "matches_reference": {str(r["seed_offset"]): r["checks"]["matches_reference"]
                                  for r in sorted(checked, key=lambda r: r["seed_offset"])},
            "segments_per_rep": {name: sorted({rep["segments"] for k in pairs
                                               for rep in side[k][0]["reps"]})
                                 for name, side in (("parent", parent), ("change", change))},
            "reps_per_run": {name: [len(side[k][0]["reps"]) for k in pairs]
                             for name, side in (("parent", parent), ("change", change))},
            "metrics": {},
        }
        if len(pairs) < 2:
            out[workload] = entry
            continue
        for spec in metric_specs:
            name = spec["name"]
            a = [parent[k][1]["metrics"][name]["value"] for k in pairs]
            b = [change[k][1]["metrics"][name]["value"] for k in pairs]
            higher = spec["better"] == "higher"
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            losses = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
            pa, pb = spread(a), spread(b)
            gap = pb["median"] - pa["median"]
            entry["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": pa, "change": pb,
                "change_over_parent": pb["median"] / pa["median"] if pa["median"] else None,
                "change_wins": wins, "change_losses": losses,
                "gain_holds": (wins >= 0.9 * len(pairs)
                               and (gap if higher else -gap) > pa["q3"] - pa["q1"]),
                "within_bound": ((pa["median"] - pb["median"] if higher
                                  else pb["median"] - pa["median"])
                                 <= spec["bound"] * abs(pa["median"])),
            }
        out[workload] = entry
    return out


def provenance(runs):
    records = [r for r, _ in runs.values()]
    # git_commit is null for a checkout that is not a git work tree
    return {"git_commit": sorted({r["git_commit"] for r in records}, key=str),
            "source_sha256": sorted({r["source_sha256"] for r in records})}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="directory of the parent's run logs")
    ap.add_argument("--change", required=True, help="directory of the change's run logs")
    ap.add_argument("--parent-commit", help="commit the parent's checkout was made from")
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args(argv)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not parent or not change:
        sys.exit("bench_summary: no run logs found")
    first = next(iter(change.values()))[0]
    summary = {
        "benchmark": "perfbench/run.py, BENCHMARK.json end-to-end metrics",
        "statistics": "median and inclusive quartiles over paired runs of one seed each",
        "host": first["host"],
        "parent": dict(provenance(parent), commit=args.parent_commit),
        "change": provenance(change),
        "workloads": summarise(parent, change, specs),
    }
    Path(args.output).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
