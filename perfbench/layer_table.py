#!/usr/bin/env python3
"""Print the per-layer table of traced benchmark runs.

    python3 perfbench/layer_table.py [RESULT.json ...]

Without arguments, reads the newest traced result of each workload from
.bench_build/perfbench-results/ (written by `run.py --trace 1`). For each
workload it prints the self ms per round of every layer and its share of the
round, the sum against the round's wall time, and beside the rows the
simulator's own in-program span totals (cir_synthesis, detect, sim_dispatch)
as a cross-check on the replay attribution.
"""

import json
import sys
from pathlib import Path

# (row label, metric with the layer's self ms per round, in-program span
# metric that measures the same work, or None)
ROWS = (
    ("ranging.session construct", "session.construct_ms", None),
    ("sim (self)", "sim.self_ms", None),
    ("channel realize", "channel.realize_ms", None),
    ("dw1000 cir synthesis", "cir.synthesize_ms", "span.cir_synthesis_ms"),
    ("ranging detect", "detect.ms", "span.detect_ms"),
    ("ranging protocol", "protocol.ms", None),
)


def format_table(workload, metrics, info):
    """The layer table of one traced run. `metrics` and `info` map names to
    numbers; the in-program span totals (span.*) are in `info`."""
    numbers = {**info, **metrics}
    value = lambda name: float(numbers.get(name, 0.0))  # noqa: E731
    wall = value("round.wall_ms")
    lines = [f"layer table: {workload} ({int(value('traced_rounds'))} traced rounds)",
             f"  {'layer':<28}{'ms/round':>10}{'share':>9}{'in-program span':>18}"]
    total = 0.0
    for label, name, span in ROWS:
        ms = value(name)
        total += ms
        share = 100.0 * ms / wall if wall > 0 else 0.0
        cross = f"{value(span):>18.4f}" if span else ""
        lines.append(f"  {label:<28}{ms:>10.4f}{share:>8.1f}%{cross}")
    lines.append(f"  {'sum of layers':<28}{total:>10.4f}")
    lines.append(f"  {'round wall time':<28}{wall:>10.4f}")
    lines.append(f"  in-program sim_dispatch {value('span.sim_dispatch_ms'):.4f} ms/round, "
                 f"session_round {value('span.session_round_ms'):.4f} ms/round; "
                 f"tracing overhead {value('obs.trace_overhead_pct'):.1f}%")
    return "\n".join(lines)


def _numbers(metrics):
    return {k: (v["value"] if isinstance(v, dict) else v) for k, v in metrics.items()}


def main(argv):
    paths = [Path(p) for p in argv]
    if not paths:
        results = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench-results"
        newest = {}
        for p in sorted(results.glob("*-trace1.json"), key=lambda p: p.stat().st_mtime):
            newest[p.name.split("-seed")[0]] = p
        paths = list(newest.values())
    if not paths:
        print("no traced results found; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 1
    for path in paths:
        rec = json.loads(path.read_text())
        print(format_table(rec["meta"]["workload"], _numbers(rec["metrics"]), rec["info"]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
