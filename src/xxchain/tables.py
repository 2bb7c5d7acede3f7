"""Comparison tables and their CSV/JSON wire formats.

A :class:`RouteComparison` is columnar: one int array of distances ``x``,
one float array per route in ``routes`` order, and one relative-error array
per route pair ``a-b`` (``a`` before ``b`` in ``routes``), computed with one
vectorised :func:`rel_err` per pair.  Every route fills every x.

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
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


def fmt(v: float) -> str:
    """Round-trip-exact decimal rendering of a double."""
    return format(v, ".17g")


def rel_err(a, b):
    """|a-b| / max(|a|,|b|) elementwise: 0 for equal values, NaN if either is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # silent IEEE results, as with Python floats; np.maximum propagates NaN
    with np.errstate(all="ignore"):
        diff = np.abs(a - b)
        return np.where(diff == 0.0, 0.0, diff / np.maximum(np.abs(a), np.abs(b)))[()]


@dataclass
class RouteComparison:
    """Values of >= 1 routes per distance, with pairwise relative errors."""

    lattice: str
    routes: list[str]
    x: np.ndarray
    values: list[np.ndarray]
    meta: dict = field(default_factory=dict)
    rel_errs: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        order = np.argsort(self.x, kind="stable")
        self.x = np.asarray(self.x)[order]
        self.values = [np.asarray(v, dtype=float)[order] for v in self.values]
        named = list(zip(self.routes, self.values))
        self.rel_errs = {
            f"{a}-{b}": rel_err(va, vb) for i, (a, va) in enumerate(named) for b, vb in named[i + 1 :]
        }


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
        + [f"relerr:{pair}" for pair in table.rel_errs]
    )
    columns = [map(str, table.x.tolist())]
    columns += [map(fmt, col.tolist()) for col in (*table.values, *table.rel_errs.values())]
    lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
    return "\n".join(lines) + "\n"


def comparison_from_csv(text: str) -> RouteComparison:
    """A CSV table with its relerr columns as printed, so a round trip checks them."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    header = lines[0].split(",")
    routes = [h.split(":", 1)[1] for h in header if h.startswith("route:")]
    pairs = [h.split(":", 1)[1] for h in header if h.startswith("relerr:")]
    cells = [ln.split(",") for ln in lines[1:]]
    x = np.array([int(row[0]) for row in cells], dtype=int)
    order = np.argsort(x, kind="stable")
    columns = [np.array([float(row[j]) for row in cells])[order] for j in range(1, len(header))]
    table = RouteComparison(lattice="", routes=routes, x=x[order], values=columns[: len(routes)])
    table.rel_errs = dict(zip(pairs, columns[len(routes) :]))
    return table


def comparison_to_json(table: RouteComparison) -> str:
    pairs = list(table.rel_errs)
    columns = [col.tolist() for col in (*table.values, *table.rel_errs.values())]
    n = len(table.routes)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": dict(table.meta, lattice=table.lattice, routes=table.routes),
        "rows": [
            {"x": x, "values": dict(zip(table.routes, cells[:n])), "relerr": dict(zip(pairs, cells[n:]))}
            for x, *cells in zip(table.x.tolist(), *columns)
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
    names = ["L", "exact", "asym_finite", "deviation_times_L"]
    lines = [",".join(names)] + [",".join([str(r["L"])] + [fmt(r[k]) for k in names[1:]]) for r in rows]
    return "\n".join(lines) + "\n"


def scaling_to_json(rows: list[dict], meta: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "meta": meta, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"
