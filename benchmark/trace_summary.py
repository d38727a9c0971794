#!/usr/bin/env python3
"""Self time per span name in a benchmark trace, plus the session ledger check.

A span's self time is its duration minus the part of it that its child spans
cover. A session is a root span (nothing open on its tid when it begins);
its layers are the spans nested inside it. The check: for every session
with child spans, the layers' self times add up to within 10% of the
session span, i.e. at most a tenth of a session's time is unattributed.

Reads the Chrome trace JSON that loadgen and layers write (B/E events,
nested per tid). tools/validate_trace.py checks the event format itself.

Usage: trace_summary.py TRACE.json [TRACE.json ...]
Prints one table per file; exits 1 when any session fails the check.
"""

import json
import sys

# Largest share of a session span its layers may leave unattributed.
MAX_UNATTRIBUTED = 0.10


def summarize(path):
    """Returns {"self_us", "count", "sessions", "problems"} for one trace."""
    with open(path) as f:
        events = json.load(f)
    self_us, count, problems = {}, {}, []
    sessions = 0
    stacks = {}  # tid -> [[name, start_ts, child_us], ...]
    for ev in events:
        stack = stacks.setdefault(ev["tid"], [])
        if ev["ph"] == "B":
            stack.append([ev["name"], ev["ts"], 0.0])
            continue
        name, start, child_us = stack.pop()
        duration = ev["ts"] - start
        own = duration - child_us
        self_us[name] = self_us.get(name, 0.0) + own
        count[name] = count.get(name, 0) + 1
        if stack:
            stack[-1][2] += duration
        elif child_us > 0 and duration > 0:
            sessions += 1
            if own > MAX_UNATTRIBUTED * duration:
                session = ev.get("args", {}).get("session")
                problems.append(
                    f"session {session} ({name}): layers cover "
                    f"{child_us:.0f} of {duration:.0f} us "
                    f"({100 * child_us / duration:.1f}%, want >= "
                    f"{100 * (1 - MAX_UNATTRIBUTED):.0f}%)")
    return {"self_us": self_us, "count": count, "sessions": sessions,
            "problems": problems}


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        s = summarize(path)
        total = sum(s["self_us"].values()) or 1.0
        print(f"{path}: {s['sessions']} sessions")
        print(f"  {'span':<32} {'count':>8} {'self ms':>12} {'mean ms':>10}"
              f" {'share':>7}")
        for name, us in sorted(s["self_us"].items(), key=lambda kv: -kv[1]):
            n = s["count"][name]
            print(f"  {name:<32} {n:>8} {us / 1e3:>12.3f} {us / 1e3 / n:>10.4f}"
                  f" {100 * us / total:>6.1f}%")
        for problem in s["problems"]:
            print(f"  FAIL {problem}")
        failed = failed or bool(s["problems"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
