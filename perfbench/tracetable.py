#!/usr/bin/env python3
"""Per-layer table from the benchmark's Chrome-trace files.

A traced benchmark run writes one Chrome trace_event JSON file per
process it traces (run.py for the figure binaries, the driver for
in-process layer calls). Each span is an "X" event whose ``cat`` is the
layer it entered and whose ``args`` carry ``id``, ``parent``, an
optional request id ``req``, and counts measured at the boundary
(``instrs``, ``ops``, ``bytes``, ...).

Self time attributes every instant of a root span's wall time to the
innermost spans open at that instant, split evenly when several are
open at once (two client threads). On a single thread this is the span
minus its children; summed over layers it equals the traced wall time.

    python3 perfbench/tracetable.py TRACE.json [TRACE.json ...]
"""

import json
import sys
from collections import defaultdict


def load(paths):
    """All complete events of the given trace files, one list per file."""
    out = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        out.append([e for e in doc["traceEvents"] if e.get("ph") == "X"])
    return out


def self_times(events):
    """Per-layer self seconds and the root wall seconds of one file."""
    spans = {}
    for e in events:
        a = e.get("args", {})
        spans[a["id"]] = (e["ts"], e["ts"] + e["dur"], e["cat"],
                          a.get("parent", 0))
    parents = {sid: p for sid, (_, _, _, p) in spans.items()}
    roots = [sid for sid, p in parents.items() if p not in spans]
    wall = sum(spans[r][1] - spans[r][0] for r in roots) / 1e6

    bounds = sorted({t for s in spans.values() for t in s[:2]})
    starts = defaultdict(list)
    for sid, (b, _, _, _) in spans.items():
        starts[b].append(sid)
    layer_us = defaultdict(float)
    active = set()
    for i, t in enumerate(bounds[:-1]):
        active = {s for s in active if spans[s][1] > t}
        active.update(s for s in starts.get(t, ()) if spans[s][1] > t)
        seg = bounds[i + 1] - t
        if not active or seg <= 0:
            continue
        busy_parents = {parents[s] for s in active}
        leaves = [s for s in active if s not in busy_parents]
        for s in leaves:
            layer_us[spans[s][2]] += seg / len(leaves)
    return {k: v / 1e6 for k, v in layer_us.items()}, wall


class Table:
    """Layer self times plus per-span-name totals and argument sums."""

    def __init__(self, paths):
        files = load(paths)
        self.layer_self_s = defaultdict(float)
        self.wall_s = 0.0
        self.by_name = defaultdict(list)  # name -> [event, ...]
        for events in files:
            layers, wall = self_times(events)
            for k, v in layers.items():
                self.layer_self_s[k] += v
            self.wall_s += wall
            for e in events:
                self.by_name[e["name"]].append(e)

    def spans(self, name, **match):
        return [e for e in self.by_name.get(name, [])
                if all(e["args"].get(k) == v for k, v in match.items())]

    def total_s(self, name, **match):
        return sum(e["dur"] for e in self.spans(name, **match)) / 1e6

    def mean_ms(self, name, **match):
        s = self.spans(name, **match)
        return sum(e["dur"] for e in s) / 1e3 / len(s) if s else 0.0

    def arg_sum(self, name, arg, **match):
        return sum(e["args"].get(arg, 0) for e in self.spans(name, **match))

    def ns_per(self, name, base, **match):
        """Span time per unit of the count ``base`` (ns per instr/op)."""
        n = self.arg_sum(name, base, **match)
        return self.total_s(name, **match) * 1e9 / n if n else 0.0

    def render(self):
        lines = [f"traced wall: {self.wall_s:.3f} s", "",
                 f"{'layer':<12}{'self s':>10}{'share':>9}"]
        for layer, s in sorted(self.layer_self_s.items(),
                               key=lambda kv: -kv[1]):
            share = s / self.wall_s if self.wall_s else 0.0
            lines.append(f"{layer:<12}{s:>10.3f}{share:>9.1%}")
        total = sum(self.layer_self_s.values())
        lines.append(f"{'(sum)':<12}{total:>10.3f}")
        lines += ["", f"{'span':<36}{'layer':<10}{'count':>7}{'total s':>10}"
                  f"{'mean ms':>10}  ratios (with base)"]
        for name, evs in sorted(self.by_name.items()):
            total = sum(e["dur"] for e in evs) / 1e6
            counts = defaultdict(float)
            for e in evs:
                for k, v in e["args"].items():
                    if k not in ("id", "parent") and isinstance(v, (int,
                                                                    float)):
                        counts[k] += v
            ratios = "  ".join(f"{total * 1e9 / v:.1f} ns/{k} "
                               f"(base {v:.0f} {k})"
                               for k, v in counts.items() if v)
            lines.append(f"{name[:35]:<36}{evs[0]['cat']:<10}{len(evs):>7}"
                         f"{total:>10.3f}{total * 1e3 / len(evs):>10.3f}  "
                         f"{ratios}")
        return "\n".join(lines)


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(argv) >= 2 else 2
    print(Table(argv[1:]).render())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
