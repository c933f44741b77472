#!/usr/bin/env python3
"""Repository benchmark: concurrent-ranging rounds, end to end and per layer.

    python3 perfbench/run.py --workload hallway_fig4 --seed 1 --seconds 10 --trace 0

Builds the simulator and the perfbench binary from source (first run only;
later runs rebuild incrementally), runs one workload for --seconds in a
closed loop, checks its outputs, and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and prints the layer table). The full record of every run, with its
metadata, is written to <build>/perfbench-results/. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import layer_table  # noqa: E402

WORKLOADS = ("hallway_fig4", "building_n200", "cir_replay")

# name -> unit; reported in this order.
END_TO_END = {
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_ok_pct": "%",
    "responders_ok_pct": "%",
    "range_err_cm_p90": "cm",
}

PER_LAYER = {
    "runner.busy_ms": "ms",
    "runner.idle_pct": "%",
    "runner.trial_ms_max": "ms",
    "round.wall_ms": "ms",
    "session.construct_ms": "ms",
    "sim.self_ms": "ms",
    "sim.frames_transmitted": "count",
    "sim.frames_delivered": "count",
    "sim.channels_realized": "count",
    "sim.receivers_culled": "count",
    "sim.delivered_per_realized": "ratio",
    "channel.realize_ms": "ms",
    "channel.realize_us_per_call": "us",
    "channel.taps_per_realization": "count",
    "cir.synthesize_ms": "ms",
    "cir.synthesized": "count",
    "cir.read_ratio": "ratio",
    "detect.ms": "ms",
    "detect.responses_per_call": "count",
    "detect.spurious_per_round": "count",
    "detect.missed_per_round": "count",
    "protocol.ms": "ms",
    "obs.trace_overhead_pct": "%",
    "cache.pulse_hit_rate": "ratio",
    "cache.bank_hit_rate": "ratio",
    "cache.fft_plan_hit_rate": "ratio",
}

# Processes that only set up: with the timed run's own set-up they give
# setup_s as a median of three.
SETUP_REPEATS = 2
RUN_TIMEOUT_S = 150


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(bdir):
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    tree = bdir / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    log = bdir / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")
    return tree / "perfbench"


def run_binary(binary, args):
    """Run the perfbench binary; returns (exit code, parsed last stdout line)."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as the binary reads it
    proc = subprocess.run([str(binary), *args, "--t0-ns", str(t0)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"perfbench printed no result (exit {proc.returncode})")


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = ap.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    bdir = build_dir()
    binary = build(bdir)
    results = bdir / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--out-dir", str(results)]

    setups = []
    for _ in range(SETUP_REPEATS):
        code, rec = run_binary(binary, common + ["--setup-only"])
        if code != 0:
            fail(f"set-up failed (exit {code})")
        setups.append(rec["setup_s"])
    code, rec = run_binary(binary, common + ["--seconds", repr(opts.seconds),
                                             "--trace", str(opts.trace)])
    if "metrics" not in rec:
        fail(f"perfbench failed (exit {code})")
    setups.append(rec["setup_s"])

    raw = rec["metrics"]
    if opts.trace == 0:
        raw["setup_s"] = statistics.median(setups)
        wanted = END_TO_END
    else:
        wanted = PER_LAYER
    missing = [name for name in wanted if name not in raw]
    if missing:
        fail(f"perfbench did not report {', '.join(missing)}")
    metrics = {name: {"value": raw[name], "unit": unit} for name, unit in wanted.items()}

    info = rec["info"]
    meta = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": info.get("build_type"),
        "simd_level": info.get("simd_level"),
        "workers": info.get("workers"),
        "nproc": os.cpu_count(),
        "outcome_digest": rec["outcome_digest"],
        "setup_s_runs": setups,
    }
    print("meta " + json.dumps(meta))
    print("info " + json.dumps(info))
    if opts.trace == 1:
        print(layer_table.format_table(opts.workload, raw, info))
    name = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    (results / name).write_text(json.dumps(
        {"meta": meta, "info": info, "metrics": metrics}, indent=1) + "\n")

    result = {"correct": bool(rec["correct"]), "attempted": int(rec["attempted"]),
              "failed": int(rec["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
