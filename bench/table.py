"""Print every end-to-end and per-layer metric of every workload.

    python3 bench/table.py [--seed N] [--seconds S] [--workloads a,b]

Makes one untraced and one traced run per workload (the same runs as
``bench/run.py --trace 0`` and ``--trace 1``) and prints one row per
metric, with its unit, one column per workload, plus the failed share of
operations, the sample counts and the machine facts. Rows read 0 where a
workload makes no call into that layer.
"""

from __future__ import annotations

import argparse
import json

from run import WORKLOADS, load_spec, run


def fmt(value):
    if isinstance(value, str):
        return value
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    names = [w for w in args.workloads.split(",") if w]

    columns, notes, machine = {}, [], None
    for name in names:
        col = {}
        for trace in (0, 1):
            summary, final = run(name, args.seed, args.seconds, trace, spec)
            col.update({k: v["value"] for k, v in final["metrics"].items()})
            col[f"failed_frac.trace{trace}"] = (
                final["failed"] / max(final["attempted"], 1))
            notes.append(f"{name} trace {trace}: {summary['passes']} passes, "
                         f"{summary['setup_samples']} set-up samples, "
                         f"{final['failed']}/{final['attempted']} failed, "
                         f"correct {final['correct']}")
            notes += [f"  FAILED {op['name']}: {op['detail'][:200]}"
                      for op in summary["failed_ops"]]
            machine = machine or summary["machine"]
        columns[name] = col

    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    rows += [("failed_frac.trace0", "fraction"),
             ("failed_frac.trace1", "fraction")]
    rows += [(m["name"], m["unit"]) for m in spec["per_layer"]]
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'unit':<8}  "
          + "  ".join(f"{n:>10}" for n in names))
    for metric, unit in rows:
        print(f"{metric:<{width}}  {unit:<8}  " + "  ".join(
            f"{fmt(columns[n].get(metric, '-')):>10}" for n in names))
    print()
    print("\n".join(notes))
    print("machine " + json.dumps(machine, sort_keys=True))


if __name__ == "__main__":
    main()
