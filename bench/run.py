"""loxokit benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a loxokit checkout. A run starts fresh child
processes (``bench/child.py``), one pass each, until ``--seconds`` have
passed, so every pass pays set-up and peak memory the way a command-line
user does. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json as medians over the passes; set-up is also measured in
set-up-only children until there are at least five samples. With
``--trace 1`` it runs one untraced pass, then traced passes, reports the
per-layer metrics (medians over the traced passes) and the tracing
overhead, and checks that traced and untraced outputs are byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, and ``.bench_work/<workload>/run.json``, carry the sample counts, the
failed operations and the machine facts.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wave", "ladder", "orbits_zpoints")
MIN_SETUPS = 5
# a run must end within 180 s: start no pass that could end after
# LAST_START_S and kill any child still running at RUN_LIMIT_S
LAST_START_S = 150.0
RUN_LIMIT_S = 170.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(workload, seed, work, timeout, trace=0, setup_only=False):
    """One child pass; returns its result, or a crash record."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--work", work,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # LOXOKIT_* variables would override the CLI defaults being measured
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LOXOKIT_")}
    log = os.path.join(work, "child.log")
    spawned = time.monotonic()
    with open(log, "w") as handle:
        try:
            proc = subprocess.run(cmd, stdout=handle, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT, timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0:
        with open(log) as handle:
            tail = handle.read()[-2000:]
        return {"crashed": f"child exit {code}: {tail}", "work": work}
    with open(os.path.join(work, "result.json")) as handle:
        result = json.load(handle)
    result["setup_s"] = result.pop("ready") - spawned
    result["work"] = work
    return result


def same_outputs(a, b):
    """True when the two pass output directories match byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    return not mismatch and not errors


def run(workload, seed, seconds, trace, spec):
    base = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(base, ignore_errors=True)
    start = time.monotonic()
    count = 0

    def next_pass(**kwargs):
        nonlocal count
        count += 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        return spawn(workload, seed, os.path.join(base, f"pass-{count}"),
                     max(remaining, 1.0), **kwargs)

    def keep_going(passes):
        # start another pass if it should end within half a pass of the
        # run's time, so a run overshoots --seconds by half a pass at most
        if not passes:
            return True
        elapsed = time.monotonic() - start
        last = elapsed - passes[-1]["started"]
        return elapsed + last / 2 < seconds and elapsed + last < LAST_START_S

    reference = next_pass() if trace else None
    passes = []
    while keep_going(passes):
        started = time.monotonic() - start
        passes.append(next_pass(trace=trace))
        passes[-1]["started"] = started
        if "crashed" in passes[-1]:
            break
    setups = [p["setup_s"] for p in passes if "setup_s" in p]
    if not trace:
        while (len(setups) < MIN_SETUPS
               and time.monotonic() - start < LAST_START_S):
            probe = next_pass(setup_only=True)
            if "crashed" in probe:
                passes.append(probe)
                break
            setups.append(probe["setup_s"])

    ran = passes + ([reference] if reference else [])
    ops = []
    for p in ran:
        if "crashed" in p:
            ops.append({"name": "pass", "ok": False, "detail": p["crashed"]})
        else:
            ops += p["ops"]
    if reference is not None and "crashed" not in reference:
        for p in passes:
            if "crashed" not in p:
                ops.append({"name": "traced-outputs-identical",
                            "ok": same_outputs(
                                os.path.join(reference["work"], "out"),
                                os.path.join(p["work"], "out")),
                            "detail": p["work"]})
    failed = [op for op in ops if not op["ok"]]
    good = [p for p in passes if "crashed" not in p]
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "passes": len(good), "setup_samples":
               len(setups), "attempted": len(ops), "failed": len(failed),
               "failed_ops": failed[:20],
               "machine": good[0]["machine"] if good else None}

    metrics = {}
    if good and not trace:
        samples = {"wall_s": [p["wall_s"] for p in good],
                   "cpu_s": [p["cpu_s"] for p in good],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in good],
                   "setup_s": setups}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(
                samples[m["name"]]), "unit": m["unit"]}
        summary["samples"] = samples
    elif good:
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = (statistics.median(p["wall_s"] for p in good)
                         - reference.get("wall_s", 0.0))
            else:
                value = statistics.median(p["layers"].get(m["name"], 0.0)
                                          for p in good)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    summary["metrics"] = metrics
    with open(os.path.join(base, "run.json"), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    final = {"correct": not failed and bool(good) and bool(metrics),
             "attempted": len(ops), "failed": len(failed),
             "metrics": metrics}
    return summary, final


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one loxokit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "loxokit", "__init__.py")):
        print(f"error: no loxokit sources under {ROOT}/src; run from the "
              "root of a loxokit checkout", file=sys.stderr)
        return 2
    summary, final = run(args.workload, args.seed, args.seconds, args.trace,
                         load_spec())
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{summary['passes']} passes, {summary['setup_samples']} set-up "
          f"samples, {final['failed']}/{final['attempted']} operations "
          f"failed")
    for op in summary["failed_ops"]:
        print(f"# FAILED {op['name']}: {op['detail'][:300]}")
    print("# machine " + json.dumps(summary["machine"], sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
