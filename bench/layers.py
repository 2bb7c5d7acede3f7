"""Per-layer metrics from the spans that trace_cli.py writes.

A span's self time is its duration minus the part of that interval its
child spans cover (children in pool threads may overlap, so their union is
taken) and minus the counted leaf calls made beneath it.
"""

from __future__ import annotations

import re
from collections import defaultdict

_SERIALIZERS = re.compile(r"tables\.\w+_to_(csv|json)$")


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def span_metrics(doc: dict) -> dict[str, float]:
    """calls and self_s of every traced function, its counters, and the derived metrics."""
    names = doc["names"]
    spans = doc["spans"]
    leaf_ns = {int(k): v for k, v in doc["leaf_ns"].items()}
    children = defaultdict(list)
    fid_of = {}
    for sid, fid, t0, t1, parent, _ in spans:
        children[parent].append((t0, t1))
        fid_of[sid] = fid

    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    fit_ns = 0
    rows = []
    for sid, fid, t0, t1, parent, _ in spans:
        own = t1 - t0 - _covered(t0, t1, children.get(sid, [])) - leaf_ns.get(sid, 0)
        name = names[fid]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += t1 - t0
        if name == "exact.r_value" and names[fid_of.get(parent, -1)] == "amplitude.amplitude_report":
            fit_ns += own
        if name == "cli.rows":
            rows.append((t0, t1))
    for fid, (n, ns) in doc["counted"].items():
        calls[names[int(fid)]] += n
        self_ns[names[int(fid)]] += ns

    out = dict(doc["counters"])
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    hits, misses = doc["caches"].get("ed.spin_sector", (0, 0))
    out["ed.spin_sector.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["amplitude.fit.self_s"] = fit_ns / 1e9
    out["tables.build_s"] = total_ns["tables.build"] / 1e9
    out["tables.serialize_s"] = sum(v for k, v in total_ns.items() if _SERIALIZERS.match(k)) / 1e9
    out["cli.self_s"] = sum(v for k, v in self_ns.items() if k.startswith("cli.")) / 1e9
    busy = sum(b - a for a, b in rows)
    out["cli.rows.calls"] = len(rows)
    out["cli.rows.busy_s"] = busy / 1e9
    out["cli.rows.overlap"] = busy / (max(b for _, b in rows) - min(a for a, _ in rows)) if rows else 0.0
    out["trace.spans"] = len(spans)
    return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Combine the metrics of the commands of one workload step."""
    out = {}
    for key in {k for p in parts for k in p}:
        values = [p.get(key, 0) for p in parts]
        if key in ("ed.sector_dim", "ed.spin_sector.hit_ratio", "cli.rows.overlap"):
            out[key] = max(values)
        else:
            out[key] = sum(values)
    det_s = out.get("exact.correlator_det.self_s", 0)
    out["exact.correlator_det.gflops"] = out["exact.correlator_det.flops"] / det_s / 1e9 if det_s else 0.0
    return out


def import_times(stderr: str) -> dict[str, float]:
    """import.{xxchain,scipy,numpy}_s from the output of python -X importtime.

    Each package's cost is the cumulative time of its outermost imports:
    entries for the package that were not imported by another entry of the
    same package.
    """
    entries = []  # (depth, module, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(module) - len(module.lstrip(" "))) // 2
        entries.append((depth, module.strip(), int(cumulative)))
    out = {}
    for package in ("xxchain", "scipy", "numpy"):
        total = 0
        # importtime prints children before their parent, so scan in reverse
        # and skip entries nested under an already counted entry
        blocked_depth = None
        for depth, module, cumulative in reversed(entries):
            if blocked_depth is not None and depth > blocked_depth:
                continue
            blocked_depth = None
            if module == package or module.startswith(package + "."):
                total += cumulative
                blocked_depth = depth
        out[f"import.{package}_s"] = total / 1e6
    return out
