"""Comparison tables and their CSV/JSON wire formats.

Numbers are always emitted with 17 significant digits so that a parsed
table reproduces the original doubles bit for bit.  CSV uses LF endings,
``.`` as the decimal separator and the header layout

    x,route:<name>,...,relerr:<a>-<b>,...

JSON documents carry a ``schema_version`` field and a ``meta`` block with
the generation timestamp and tool version.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


def fmt(v: float) -> str:
    """Round-trip-exact decimal rendering of a double."""
    return format(v, ".17g")


def rel_err(a: float, b: float) -> float:
    """|a-b| / max(|a|,|b|): 0 for equal values, NaN if either is NaN."""
    diff = abs(a - b)
    # max(0.0, nan) is 0.0, so a NaN operand is caught before the scale
    return diff if diff == 0.0 or math.isnan(diff) else diff / max(abs(a), abs(b))


@dataclass
class ComparisonRow:
    x: int
    values: dict[str, float]
    rel_errs: dict[str, float] = field(default_factory=dict)


@dataclass
class RouteComparison:
    """Values of >= 1 routes per distance, with pairwise relative errors."""

    lattice: str
    routes: list[str]
    rows: list[ComparisonRow]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows.sort(key=lambda r: r.x)
        for row in self.rows:
            if not row.rel_errs:
                names = [r for r in self.routes if r in row.values]
                for i, a in enumerate(names):
                    for b in names[i + 1 :]:
                        row.rel_errs[f"{a}-{b}"] = rel_err(row.values[a], row.values[b])

    @property
    def pair_names(self) -> list[str]:
        names = self.routes
        return [f"{a}-{b}" for i, a in enumerate(names) for b in names[i + 1 :]]


def base_meta(tool_version: str, **extra) -> dict:
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool_version": tool_version,
    }
    meta.update(extra)
    return meta


def comparison_to_csv(table: RouteComparison) -> str:
    header = (
        ["x"]
        + [f"route:{name}" for name in table.routes]
        + [f"relerr:{pair}" for pair in table.pair_names]
    )
    lines = [",".join(header)]
    for row in table.rows:
        cells = [str(row.x)]
        cells += [fmt(row.values[name]) if name in row.values else "" for name in table.routes]
        cells += [
            fmt(row.rel_errs[pair]) if pair in row.rel_errs else "" for pair in table.pair_names
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def comparison_from_csv(text: str) -> RouteComparison:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    header = lines[0].split(",")
    routes = [h.split(":", 1)[1] for h in header if h.startswith("route:")]
    pairs = [h.split(":", 1)[1] for h in header if h.startswith("relerr:")]
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        x = int(cells[0])
        values, rels = {}, {}
        for name, cell in zip(routes, cells[1 : 1 + len(routes)]):
            if cell:
                values[name] = float(cell)
        for pair, cell in zip(pairs, cells[1 + len(routes) :]):
            if cell:
                rels[pair] = float(cell)
        rows.append(ComparisonRow(x=x, values=values, rel_errs=rels))
    return RouteComparison(lattice="", routes=routes, rows=rows)


def comparison_to_json(table: RouteComparison) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": dict(table.meta, lattice=table.lattice, routes=table.routes),
        "rows": [
            {"x": row.x, "values": row.values, "relerr": row.rel_errs} for row in table.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def constants_to_csv(values: dict[str, float]) -> str:
    lines = ["name,value"]
    lines += [f"{name},{fmt(val)}" for name, val in values.items()]
    return "\n".join(lines) + "\n"


def constants_to_json(values: dict[str, float], meta: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "meta": meta, "constants": values}
    return json.dumps(doc, indent=2) + "\n"


def scaling_to_csv(rows: list[dict]) -> str:
    lines = ["L,exact,asym_finite,deviation_times_L"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["L"]),
                    fmt(row["exact"]),
                    fmt(row["asym_finite"]),
                    fmt(row["deviation_times_L"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def scaling_to_json(rows: list[dict], meta: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "meta": meta, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"
