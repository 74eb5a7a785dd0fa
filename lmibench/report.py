#!/usr/bin/env python3
"""Per-layer self time of a traced lmibench run.

    python3 lmibench/report.py TRACE.json

TRACE.json is the Chrome trace-event file lmibench_driver --trace
writes (Perfetto opens the same file). Every span is a complete event
("ph": "X") whose category is its layer and whose args carry its id,
its parent id and its worker capacity `threads`. A span's self time is
threads x duration minus the durations of its child spans, so a sweep
span's self time is the runner workers' idle time. For each root span
the report prints self time per layer, which sums to the root's thread
time, and trace.overhead_frac: the traced pass over the untraced pass,
minus 1.
"""

import json
import sys
from collections import defaultdict


def self_times(events):
    """{root span id: (root event, {layer: self ms})}."""
    spans = {e["args"]["id"]: e for e in events if e.get("ph") == "X"}
    child_us = defaultdict(float)
    for e in spans.values():
        child_us[e["args"]["parent"]] += e["dur"]

    def root_of(span_id):
        while spans[span_id]["args"]["parent"] in spans:
            span_id = spans[span_id]["args"]["parent"]
        return span_id

    roots = {}
    for span_id, e in spans.items():
        root = root_of(span_id)
        layers = roots.setdefault(root, (spans[root], defaultdict(float)))[1]
        own = e["dur"] * e["args"].get("threads", 1) - child_us[span_id]
        layers[e["cat"]] += own / 1000.0
    return roots


def pass_self_ms(trace):
    """{layer: self ms} of the traced pass (the root span "pass ...")."""
    for root, layers in self_times(trace["traceEvents"]).values():
        if root["name"].startswith("pass "):
            return dict(layers)
    raise ValueError("trace has no traced pass span")


def render(trace):
    other = trace.get("otherData", {})
    lines = [f"per-layer self time, workload {other.get('workload', '?')}"]
    roots = self_times(trace["traceEvents"])
    for _, (root, layers) in sorted(roots.items(),
                                    key=lambda kv: kv[1][0]["ts"]):
        total = sum(layers.values())
        lines.append(f"  {root['name']}: wall {root['dur'] / 1000.0:.1f} ms,"
                     f" thread time {total:.1f} ms")
        for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = ms / total if total else 0.0
            lines.append(f"    {layer:<10} {ms:12.2f} ms  {share:7.2%}")
    traced = other.get("traced_wall_ms")
    untraced = other.get("untraced_wall_ms")
    if traced and untraced:
        lines.append(f"  trace.overhead_frac {traced / untraced - 1.0:+.4f}"
                     f" (traced {traced:.1f} ms vs untraced"
                     f" {untraced:.1f} ms)")
    return "\n".join(lines)


def main(argv):
    usage = __doc__.strip().split("\n\n")[1]
    if argv in (["-h"], ["--help"]):
        print(usage)
        return 0
    if len(argv) != 1:
        print(usage, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        print(render(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
