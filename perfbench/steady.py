#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S] [--seed 1]

Run it from the repository root. For each workload it makes --runs runs
with distinct seeds, then a second set of --runs runs with other seeds,
and prints for every end-to-end metric each set's median and quartiles,
the quartile spread as a share of the median, and whether the two sets
agree within the metric's bound from BENCHMARK.json: the spread (except
setup_s's) within the bound, the second median no worse than the first
by more than the bound, and the same share of failed operations. The
header records the host the figures come from.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    heaps = os.path.join(ROOT, ".bench_build", "heaps")
    os.makedirs(heaps, exist_ok=True)
    fs = subprocess.run(["stat", "-f", "-c", "%T", heaps], capture_output=True, text=True).stdout.strip()
    return {
        "cpu": model,
        "nproc": nproc,
        "gomaxprocs": 1,  # a workload run sets it
        "go": go,
        "heap_dir_fs": fs or "unknown",
    }


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({out.returncode}): {out.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="first seed; every run gets its own")
    args = ap.parse_args()

    print("host:", json.dumps(host()))
    print(f"runs per set: {args.runs}, seconds per run: {args.seconds}")
    metrics = bench["end_to_end"]
    all_ok = True
    seed = args.seed
    for w in args.workloads.split(","):
        sets = []
        for _ in range(2):
            results = []
            for _ in range(args.runs):
                results.append(run_once(w, seed, args.seconds))
                seed += 1
            sets.append(results)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        per_run = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        share_ok = len(per_run[0] | per_run[1]) == 1
        correct = all(r["correct"] for s in sets for r in s)
        all_ok &= share_ok and correct
        print(f"\n{w}: correct {correct}, failed share per set {shares[0]:.6f} / {shares[1]:.6f}, "
              f"same in every run: {share_ok}")
        print(f"  {'metric':<18} {'unit':<5} {'set1 median [q1, q3] spread':<44} "
              f"{'set2 median [q1, q3] spread':<44} {'bound':>5} agree")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            s1 = summary([r["metrics"][name]["value"] for r in sets[0]])
            s2 = summary([r["metrics"][name]["value"] for r in sets[1]])
            change = (s2[0] - s1[0]) / s1[0] if s1[0] else float("inf")
            worse = change if m["better"] == "lower" else -change
            ok = worse <= bound and (name == "setup_s" or (s1[3] <= bound and s2[3] <= bound))
            all_ok &= ok
            fmt = lambda s: f"{s[0]:<11.5g} [{s[1]:.5g}, {s[2]:.5g}] {100 * s[3]:5.1f}%"
            print(f"  {name:<18} {m['unit']:<5} {fmt(s1):<44} {fmt(s2):<44} {bound:>5} "
                  f"{'yes' if ok else 'NO'} ({100 * change:+.1f}%)")
    print("\nsteady:", "yes" if all_ok else "NO")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
