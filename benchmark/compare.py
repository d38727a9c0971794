#!/usr/bin/env python3
"""Compares two sets of benchmark result files.

Usage: compare.py BASE... -- NEW... [--bench BENCHMARK.json]

Each side is a list of result files (or directories holding them) that
harness.py wrote, e.g. build-bench/results/ copied aside after each set of
runs. For every (workload, metric) pair it prints each side's median and
quartiles, the change of the median, the bound from BENCHMARK.json and a
verdict:

  ok          within the bound, or every new run beats every base run
  regressed   the new median is worse than the base median by more than
              the bound
  unresolved  a side's spread (quartile distance over median) is wider than
              the bound, so the runs cannot tell a change from noise

Per-layer metrics (traced runs) have no bound and get no verdict. It also
lists every per-layer count that is deterministic (equal across the runs of
one seed on each side) and differs between the sides, and warns when the
sides' host fingerprints differ. Exits 1 unless every verdict is ok.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = {"count", "bytes"}
HOST_KEYS = ("cpu", "nproc", "isa", "simd_available", "build_type")


def load(paths):
    results = []
    for path in paths:
        files = (sorted(glob.glob(os.path.join(path, "*.json")))
                 if os.path.isdir(path) else [path])
        for f in files:
            with open(f) as fh:
                r = json.load(fh)
            # Smoke runs use tables 1/20 the size; they check, not measure.
            if r.get("smoke"):
                continue
            r["_file"] = f
            results.append(r)
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def worse_by(base, new, better):
    """Relative change of the median in the 'worse' direction."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def values_of(results, workload, trace, metric):
    return [r["metrics"][metric]["value"] for r in results
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def fingerprint_warnings(base, new):
    def hosts(results):
        return {tuple((k, json.dumps(r.get("fingerprint", {}).get(k)))
                      for k in HOST_KEYS) for r in results}
    warnings = []
    b, n = hosts(base), hosts(new)
    if len(b | n) > 1:
        warnings.append("host fingerprints differ between or within the "
                        "sides: " + "; ".join(
                            ", ".join(f"{k}={v}" for k, v in fp)
                            for fp in sorted(b | n)))
    for side, results in (("base", base), ("new", new)):
        shas = sorted({r.get("fingerprint", {}).get("git_sha", "?")
                       for r in results})
        print(f"{side}: {len(results)} runs, git {', '.join(shas)}")
        invalid = [r["_file"] for r in results if not r.get("valid", True)]
        if invalid:
            warnings.append(f"{side}: generator ran late (invalid load) in "
                            f"{', '.join(invalid)}")
        wrong = [r["_file"] for r in results if not r.get("correct", True)]
        if wrong:
            warnings.append(f"{side}: correctness checks failed in "
                            f"{', '.join(wrong)}")
    return warnings


def changed_counts(base, new, spec):
    """Deterministic per-layer counts whose value differs between sides."""
    lines = []
    for m in spec["per_layer"]:
        if m["unit"] not in COUNT_UNITS:
            continue
        by_key = {}
        for side, results in (("base", base), ("new", new)):
            for r in results:
                if r["trace"] != 1 or m["name"] not in r["metrics"]:
                    continue
                key = (r["workload"], r["seed"])
                by_key.setdefault(key, {}).setdefault(side, set()).add(
                    r["metrics"][m["name"]]["value"])
        for (workload, seed), sides in sorted(by_key.items()):
            b, n = sides.get("base", set()), sides.get("new", set())
            if len(b) == 1 and len(n) == 1 and b != n:
                lines.append(f"  {workload} seed {seed} {m['name']}: "
                             f"{b.pop():g} -> {n.pop():g} {m['unit']}")
    return lines


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("new", nargs="+")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv[cut + 1:])
    with open(args.bench) as f:
        spec = json.load(f)
    base, new = load(argv[:cut]), load(args.new)
    if not base or not new:
        print("compare: a side has no result files", file=sys.stderr)
        return 2

    for w in fingerprint_warnings(base, new):
        print(f"WARNING: {w}")
    all_ok = True
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        workloads = sorted({r["workload"] for r in base if r["trace"] == trace}
                           & {r["workload"] for r in new
                              if r["trace"] == trace})
        if not workloads:
            continue
        print(f"\n{section}:")
        print(f"{'workload':<12} {'metric':<36} {'base median [q1, q3]':>30} "
              f"{'new median [q1, q3]':>30} {'worse':>8} {'bound':>6}  verdict")
        for workload in workloads:
            for m in spec[section]:
                b = values_of(base, workload, trace, m["name"])
                n = values_of(new, workload, trace, m["name"])
                if not b or not n:
                    continue
                bq, nq = quartiles(b), quartiles(n)
                worse = worse_by(bq[1], nq[1], m["better"])
                bound = m.get("bound")
                if bound is None:
                    verdict, bound_text = "-", "-"
                else:
                    bound_text = f"{bound:.0%}"
                    if m["better"] == "lower":
                        all_better = max(n) < min(b)
                    else:
                        all_better = min(n) > max(b)
                    if all_better:
                        verdict = "ok"
                    elif max(spread(b), spread(n)) > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "regressed"
                    else:
                        verdict = "ok"
                    all_ok = all_ok and verdict == "ok"
                fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
                print(f"{workload:<12} {m['name']:<36} {fmt(bq):>30} "
                      f"{fmt(nq):>30} {worse:>+8.1%} {bound_text:>6}  {verdict}")
    counts = changed_counts(base, new, spec)
    if counts:
        print("\ndeterministic per-layer counts that changed:")
        print("\n".join(counts))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
