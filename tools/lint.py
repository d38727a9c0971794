#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Run from anywhere: paths resolve relative to the repo root (the parent of
this script's directory). Exit 0 = clean, 1 = violations (printed as
file:line: message, one per line, like a compiler).

Rules:
  R1  No naked synchronization primitives (std::mutex, std::lock_guard,
      std::unique_lock, std::scoped_lock, std::condition_variable) anywhere
      under src/ except src/base/ itself. Shared state must use the
      annotated wrappers (base::Mutex / base::MutexLock / base::CondVar from
      src/base/mutex.h) so clang's -Wthread-safety analysis sees every lock.
  R2  printf-family float conversions in wire-facing code (src/server/) must
      be exactly %.17g: the protocol promises bit-identical doubles across
      the wire, and a stray %g or %f silently truncates utilities.
  R3  No std::map / std::multimap in the shared-scan hot path
      (src/db/shared_scan.cc, src/db/vec/): the inner loop is engineered for
      contiguous access, and a node-based container on that path is almost
      always an accident. Deliberate node-stable caches carry a
      "lint: allow-map" marker on the declaration line.
  R4  No std::chrono::system_clock on wire or trace paths (src/server/,
      src/obs/): push-frame ts_us stamps and trace-event timestamps promise
      steady-clock time — frame-delivery latency is computed by subtracting
      them, and a wall-clock stamp makes latency jump with NTP steps.
      Deliberate wall-clock use (log line timestamps) carries a
      "lint: allow-system-clock" marker.
  R5  Every metric name passed as a string literal to GetCounter /
      GetGauge / GetHistogram under src/ has a row in README.md's
      Observability metrics table ("{a,b}" groups in a row expand to one
      name each), so operators can look up what each `metrics` entry means.

Suppression: append "lint: allow-<rule>" in a comment on the offending line
(allow-mutex, allow-float-format, allow-map, allow-system-clock,
allow-metric). Use sparingly and say why.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

NAKED_SYNC = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable)\b"
)
# %[flags][width][.precision]conversion for float conversions.
FLOAT_FORMAT = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[efgEFG]")
STD_MAP = re.compile(r"std::(?:multi)?map\s*<")
SYSTEM_CLOCK = re.compile(r"std::chrono::system_clock\b")
METRIC_CALL = re.compile(r"Get(?:Counter|Gauge|Histogram)\(\s*\"([^\"]+)\"")
BRACE_GROUP = re.compile(r"\{([^{}]*)\}")
LINE_COMMENT = re.compile(r"//.*$")


def source_files(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted(
        p for p in root.rglob("*") if p.suffix in (".h", ".cc", ".inc")
    )


def strip_comment(line: str) -> str:
    return LINE_COMMENT.sub("", line)


def expand_braces(name: str) -> list[str]:
    """`a.{b,c}_us` -> [`a.b_us`, `a.c_us`], recursively."""
    group = BRACE_GROUP.search(name)
    if group is None:
        return [name]
    return [
        expanded
        for alt in group.group(1).split(",")
        for expanded in expand_braces(
            name[: group.start()] + alt + name[group.end() :]
        )
    ]


def documented_metrics() -> set[str]:
    """Names in the first column of README's Observability metrics table."""
    names: set[str] = set()
    in_metrics = False
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith("#"):
            in_metrics = line.strip() == "### Metrics"
            continue
        if in_metrics and line.startswith("|"):
            first_cell = line.split("|")[1]
            for name in re.findall(r"`([^`]+)`", first_cell):
                names.update(expand_braces(name))
    return names


def check() -> list[str]:
    errors: list[str] = []

    # R1: naked sync primitives outside src/base/.
    for path in source_files(REPO / "src"):
        if (REPO / "src" / "base") in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "lint: allow-mutex" in line:
                continue
            if NAKED_SYNC.search(strip_comment(line)):
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: naked std "
                    "synchronization primitive; use base::Mutex / "
                    "base::MutexLock / base::CondVar (src/base/mutex.h) so "
                    "-Wthread-safety sees the lock [allow-mutex]"
                )

    # R2: float formats in the serving layer must be %.17g.
    for path in source_files(REPO / "src" / "server"):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "lint: allow-float-format" in line:
                continue
            for fmt in FLOAT_FORMAT.findall(strip_comment(line)):
                if fmt != "%.17g":
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: float format "
                        f"'{fmt}' in wire-facing code; the protocol "
                        "round-trips doubles via %.17g only "
                        "[allow-float-format]"
                    )

    # R3: node-based maps on the shared-scan hot path.
    hot = [REPO / "src" / "db" / "shared_scan.cc"]
    hot += source_files(REPO / "src" / "db" / "vec")
    for path in hot:
        if not path.exists():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "lint: allow-map" in line:
                continue
            if STD_MAP.search(strip_comment(line)):
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: std::map on the "
                    "shared-scan hot path; use a vector/flat layout, or mark "
                    "a deliberate node-stable cache [allow-map]"
                )

    # R4: wall-clock timestamps on wire/trace paths.
    for root in (REPO / "src" / "server", REPO / "src" / "obs"):
        for path in source_files(root):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if "lint: allow-system-clock" in line:
                    continue
                if SYSTEM_CLOCK.search(strip_comment(line)):
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        "std::chrono::system_clock on a wire/trace path; "
                        "ts_us stamps and trace timestamps must be "
                        "steady_clock [allow-system-clock]"
                    )

    # R5: every registered metric name is documented.
    documented = documented_metrics()
    for path in source_files(REPO / "src"):
        text = path.read_text()
        lines = text.splitlines()
        for match in METRIC_CALL.finditer(text):
            lineno = text.count("\n", 0, match.start()) + 1
            if "lint: allow-metric" in lines[lineno - 1]:
                continue
            if match.group(1) not in documented:
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: metric "
                    f"'{match.group(1)}' has no row in README.md's "
                    "Observability metrics table [allow-metric]"
                )

    return errors


def main() -> int:
    errors = check()
    for err in errors:
        print(err)
    if errors:
        print(f"lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
