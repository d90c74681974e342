#!/usr/bin/env python3
"""Simulated-clock numbers repeat to the digit, so any drift is a behaviour change.

Runs the two simulated workloads of the repo benchmark at a fixed seed and
compares five end-to-end metrics, character for character, with the committed
.github/sim_golden.json. A PR that means to change behaviour regenerates the
file in its own diff:  python3 .github/sim_golden.py --write
(which prints old → new for every number).
"""
import json
import pathlib
import re
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).with_name("sim_golden.json")
WORKLOADS = ("sim40_quorum", "sim13_faults")
METRICS = (
    "cmd_throughput",
    "cmd_latency_p50_ms",
    "cmd_latency_p90_ms",
    "round_p50_ms",
    "wire_kb_per_round",
)


def measure(workload):
    cmd = ["bash", "benchmark/run", "--workload", workload]
    cmd += ["--seed", "31", "--seconds", "3", "--trace", "0"]
    last = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()[-1]
    assert json.loads(last)["correct"], last
    # The digits as printed, not a float that was parsed and printed again.
    return {m: re.search(rf'"{m}": {{"value": ([^,}}]+)', last).group(1) for m in METRICS}


now = {w: measure(w) for w in WORKLOADS}
golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
if "--write" in sys.argv:
    # The table for the description of the PR that meant to move them.
    for w in WORKLOADS:
        for m in METRICS:
            print(f"{w}.{m}: {golden.get(w, {}).get(m, '-')} → {now[w][m]}")
    GOLDEN.write_text(json.dumps(now, indent=2) + "\n")
    sys.exit(0)
diff = [
    f"{w}.{m}: golden {golden[w][m]}  now {now[w][m]}"
    for w in WORKLOADS
    for m in METRICS
    if golden[w][m] != now[w][m]
]
print("\n".join(diff) if diff else f"sim golden OK: {len(WORKLOADS) * len(METRICS)} numbers identical")
sys.exit(1 if diff else 0)
