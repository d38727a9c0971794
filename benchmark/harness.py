#!/usr/bin/env python3
"""Runs the end-to-end benchmark's workloads against seedb_server.

run.sh builds the binaries and then runs this script; see README.md. For
each workload it starts three servers in turn. Each is timed through set-up
(spawn -> table generation -> catalog statistics -> one warm-up session),
then the load generator drives it for a third of the window, and it is
stopped. Latency percentiles pool the three windows. A traced run
(--trace 1) sets up once, drives a fixed number of sessions with every
other one traced, re-sends a few of them as cache hits, then replays the
same requests in-process (layers) and checks both traces.

Prints one line per metric, `<workload> <metric> <value> <unit>`, writes a
JSON result file per workload under build-bench/results/, and ends stdout
with one JSON object: {"correct", "attempted", "failed", "metrics"}. Exits
non-zero when a correctness check fails.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402

WORKLOADS = ["scan_heavy", "many_small", "zipf_repeat", "pruned_wide"]
SETUPS = 3
SMOKE_SCALE = 1 / 20
SMOKE_SECONDS = 2
# Generator lag above this makes an open-loop run invalid: the load it
# offered was not the load it meant to offer.
MAX_GEN_LAG_MS = 5.0
# The server runs below the load generator's priority, so the generator
# wakes on time when the server keeps every core busy.
SERVER_NICE = 5
# Longest a single load generator or replay call may take.
CALL_TIMEOUT_S = 120
# Units of the informational figures that have one. topk_recall and
# error_frac are end-to-end figures checked absolutely, not against a
# bound, so they are printed here rather than listed in BENCHMARK.json.
INFO_UNITS = {"topk_recall": "fraction", "error_frac": "fraction",
              "gen_lag_ms_p99": "ms"}


def log(msg):
    print(f"harness: {msg}", file=sys.stderr, flush=True)


class Server:
    """One seedb_server process; stopped (and waited for) on exit."""

    def __init__(self, binary, socket_path, synthetic, log_path):
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self.socket_path = socket_path
        self.log = open(log_path, "ab")
        self.started_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [binary, "--unix", socket_path, "--synthetic", synthetic],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.nice(SERVER_NICE))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def run_json(cmd):
    """Runs a benchmark binary and parses the JSON object it prints."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(cmd[0])} failed "
                           f"({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def num(v):
    """JSON null (a failed session's latency) reads as +inf."""
    return float("inf") if v is None else float(v)


def quantile(values, q):
    """Nearest-rank quantile, as the load generator takes them; a failed
    session (+inf) sorts last."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


class Bench:
    def __init__(self, args, spec):
        self.args = args
        self.spec = spec
        build = os.path.abspath(args.build_dir)
        self.server_bin = os.path.join(build, "seedb", "tools", "seedb_server")
        self.loadgen = os.path.join(build, "loadgen")
        self.layers = os.path.join(build, "layers")
        rel = os.path.relpath(build, ROOT)
        # Relative to ROOT (both processes run there): unix socket paths are
        # limited to 108 bytes and the checkout may live deep.
        self.run_dir = os.path.join(rel, "run")
        self.results_dir = os.path.join(build, "results")
        self.traces_dir = os.path.join(build, "traces")
        for d in (os.path.join(ROOT, self.run_dir), self.results_dir,
                  self.traces_dir):
            os.makedirs(d, exist_ok=True)
        self.scale = SMOKE_SCALE if args.smoke else 1.0
        self.seconds = SMOKE_SECONDS if args.smoke else args.seconds

    def gen(self, mode, workload, *extra):
        return run_json([self.loadgen, f"--{mode}", "--workload", workload,
                         "--seed", str(self.args.seed), "--scale",
                         repr(self.scale), *extra])

    def server(self, workload, synthetic):
        sock = os.path.join(self.run_dir, f"{workload}.{os.getpid()}.sock")
        return Server(self.server_bin, sock, synthetic,
                      os.path.join(ROOT, self.run_dir, f"{workload}.log"))

    def setup(self, workload, synthetic):
        """Starts a server and runs the warm-up (planted) session on it.

        Returns the server, the set-up time and whether the planted view
        came out on top."""
        srv = self.server(workload, synthetic)
        try:
            warm = self.gen("warmup", workload, "--socket", srv.socket_path)
        except BaseException:
            srv.stop()
            raise
        setup_s = (warm["ready_ns"] - srv.started_ns) / 1e9
        if not warm["planted_ok"]:
            log(f"{workload}: planted predicate ranked "
                f"'{warm['planted_top']}' first, want a dim1/m0 view")
        return srv, setup_s, warm["planted_ok"]

    def run_workload(self, workload):
        describe = self.gen("describe", workload)
        synthetic = describe["synthetic"]
        if self.args.trace:
            return self.traced(workload, synthetic)
        # SETUPS fresh servers, each timed through set-up and then driven
        # for its share of the window with the same request stream. Latency
        # percentiles pool the sessions of all windows; set-up time and
        # peak RSS, which vary from process to process, are medians.
        windows = []
        for _ in range(SETUPS):
            srv, setup_s, planted = self.setup(workload, synthetic)
            with srv:
                window = self.gen("window", workload, "--socket",
                                  srv.socket_path, "--seconds",
                                  repr(self.seconds / SETUPS), "--server-pid",
                                  str(srv.proc.pid))
            window.update(setup_s=setup_s, planted=planted)
            windows.append(window)
            verify = window["verify"]
            if not verify["ok"] and verify["first_mismatch"]:
                log(f"{workload}: window top-k differs from the exhaustive "
                    f"answer for: {verify['first_mismatch']}")

        def pooled(key):
            return [num(v) for w in windows for v in w[key]]

        session_ms = pooled("session_ms")
        tail_q = describe["tail_quantile"]
        metrics = {
            "session_ms_p50": quantile(session_ms, 0.5),
            "session_ms_tail": quantile(session_ms, tail_q),
            "first_frame_ms_p50": quantile(pooled("first_frame_ms"), 0.5),
            "sessions_per_s": sum(w["closed_completed"] for w in windows)
            / sum(w["closed_seconds"] for w in windows),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in windows),
            "setup_s": statistics.median(w["setup_s"] for w in windows),
        }
        attempted = sum(w["attempted"] for w in windows)
        failed = sum(w["failed_total"] for w in windows)
        checked = sum(w["verify"]["checked"] for w in windows)
        info = {
            "topk_recall": sum(w["verify"]["recall"] * w["verify"]["checked"]
                               for w in windows) / max(1, checked),
            "error_frac": failed / max(1, attempted),
            "tail_quantile": tail_q,
            "tail_samples": len(session_ms),
            "gen_lag_ms_p99": max(num(w["gen_lag_ms_p99"]) for w in windows),
            "setups_s": [w["setup_s"] for w in windows],
            "peak_rss_mbs": [w["peak_rss_mb"] for w in windows],
            "verified_predicates": checked,
            "exact_mismatches": sum(w["verify"]["mismatches"] for w in windows),
        }
        checks = {"planted_top1": all(w["planted"] for w in windows),
                  "verify": all(w["verify"]["ok"] for w in windows)}
        return self.report(workload, metrics, info, checks, attempted, failed)

    def traced(self, workload, synthetic):
        stem = f"{workload}-seed{self.args.seed}"
        wire_trace = os.path.join(self.traces_dir, f"{stem}-wire.json")
        layers_trace = os.path.join(self.traces_dir, f"{stem}-layers.json")
        srv, _, planted = self.setup(workload, synthetic)
        with srv:
            wire = self.gen("traced", workload, "--socket", srv.socket_path,
                            "--trace-out", wire_trace)
        layers = run_json([self.layers, "--workload", workload, "--seed",
                           str(self.args.seed), "--scale", repr(self.scale),
                           "--trace-out", layers_trace])
        traces_ok = True
        for path in (wire_trace, layers_trace):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py"),
                 path], capture_output=True, text=True)
            if proc.returncode != 0:
                log(proc.stderr.strip())
            traces_ok = traces_ok and proc.returncode == 0
            summary = trace_summary.summarize(path)
            for problem in summary["problems"]:
                log(f"{os.path.basename(path)}: {problem}")
            traces_ok = traces_ok and not summary["problems"]
        lm = layers["metrics"]
        untraced = num(wire["untraced_session_ms_p50"])
        metrics = {
            "server.open_ack_ms_p50": wire["open_ack_ms_p50"],
            "server.result_ms_p50": wire["result_ms_p50"],
            "server.result_bytes_mean": wire["result_bytes_mean"],
            "server.overhead_ms_p50":
                untraced - lm["core.session.total_ms_p50"],
            "server.outbox_flush_us_p99": wire["outbox_flush_us_p99"],
            "server.tick_lag_us_p99": wire["tick_lag_us_p99"],
            "server.open_dispatch_us_p99": wire["open_dispatch_us_p99"],
            "gen.lag_ms_p99": wire["gen_lag_ms_p99"],
            "db.scan_cache.hit_ratio": wire["cache_hit_ratio"],
            "db.scan_cache.hit_session_ms_p50": wire["hit_session_ms_p50"],
            "db.scan_cache.miss_session_ms_p50": wire["miss_session_ms_p50"],
            "db.scan_cache.bytes": wire["cache_bytes"],
            "db.scan_cache.evictions": wire["cache_evictions"],
            "core.executor.topk_recall": wire["verify"]["recall"],
            "trace.overhead_frac":
                num(wire["traced_session_ms_p50"]) / untraced - 1.0,
        }
        metrics.update(lm)
        info = {
            "wire_sessions": wire["attempted"],
            "error_frac": wire["failed_total"] / max(1, wire["attempted"]),
            "isa": layers["isa"],
            "traces": [os.path.relpath(p, ROOT)
                       for p in (wire_trace, layers_trace)],
        }
        checks = {"planted_top1": planted, "verify": wire["verify"]["ok"],
                  "traces": traces_ok}
        return self.report(workload, metrics, info, checks, wire["attempted"],
                           wire["failed_total"])

    def report(self, workload, metrics, info, checks, attempted, failed):
        section = "per_layer" if self.args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in self.spec[section]}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise RuntimeError(f"metrics not produced: {missing}")
        metrics = {name: num(metrics[name]) for name in units}
        lag = info.get("gen_lag_ms_p99", metrics.get("gen.lag_ms_p99", 0.0))
        valid = lag <= MAX_GEN_LAG_MS
        if not valid:
            log(f"{workload}: generator lag p99 {lag:.2f} ms > "
                f"{MAX_GEN_LAG_MS} ms; this run's open-loop load is invalid")
        for name, unit in units.items():
            extra = ""
            if name == "session_ms_tail":
                extra = (f" (p{round(100 * info['tail_quantile'])} of "
                         f"{info['tail_samples']} sessions)")
            print(f"{workload} {name} {metrics[name]:.6g} {unit}{extra}")
        # A percentile that lands on a failed session is infinite, which
        # JSON cannot hold; it is written as null.
        metrics = {name: {"value": metrics[name]
                          if math.isfinite(metrics[name]) else None,
                          "unit": unit}
                   for name, unit in units.items()}
        for name, value in info.items():
            if isinstance(value, (int, float)):
                unit = INFO_UNITS.get(name)
                print(f"{workload} {name} {value:.6g}"
                      + (f" {unit}" if unit else ""))
        for name, ok in checks.items():
            print(f"{workload} check.{name} {'ok' if ok else 'FAILED'}")
        result = {
            "workload": workload,
            "seed": self.args.seed,
            "trace": int(self.args.trace),
            "smoke": self.args.smoke,
            "seconds": self.seconds,
            "fingerprint": self.fingerprint,
            "valid": valid,
            "correct": all(checks.values()),
            "attempted": int(attempted),
            "failed": int(failed),
            "checks": checks,
            "info": info,
            "metrics": metrics,
        }
        suffix = ("-trace" if self.args.trace else "") + (
            "-smoke" if self.args.smoke else "")
        path = os.path.join(self.results_dir,
                            f"{workload}-seed{self.args.seed}{suffix}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
        return result


def fingerprint(describe):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    # Only a checkout's own .git: git would otherwise search the parent
    # directories and could report an unrelated repository.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "isa": describe["isa"],
            "simd_available": describe["simd_available"],
            "build_type": describe["build_type"], "git_sha": sha}


def main():
    # A terminated run still stops its server: SystemExit unwinds through
    # the Server context managers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, 2 s each, tables 1/20 the size")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bench = Bench(args, spec)
    workloads = [args.workload] if args.workload else WORKLOADS
    bench.fingerprint = fingerprint(bench.gen("describe", workloads[0]))
    results = [bench.run_workload(w) for w in workloads]

    single = len(results) == 1
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics[name if single else f"{r['workload']}.{name}"] = m
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
