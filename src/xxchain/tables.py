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

Each format has one writer: :func:`columns_to_csv` prints every CSV table
(the comparison's header and columns come from :func:`comparison_columns`),
and :func:`doc_to_json` builds every JSON document's envelope, the
comparison's nested rows (:func:`comparison_to_json`) included.
"""

from __future__ import annotations

import datetime
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


def columns_to_csv(header: list[str], columns: list) -> str:
    """A CSV table from its header and its columns, each rendered once.

    Float columns print through :func:`fmt`; int and str columns through ``str``.
    """
    cells = [map(fmt if col.dtype.kind == "f" else str, col.tolist()) for col in map(np.asarray, columns)]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def doc_to_json(meta: dict, **body) -> str:
    """A JSON document: ``schema_version``, the ``meta`` block, then ``body``'s keys in order."""
    import json  # here, so that a CSV command never loads it

    return json.dumps({"schema_version": SCHEMA_VERSION, "meta": meta, **body}, indent=2) + "\n"


def comparison_columns(table: RouteComparison) -> tuple[list[str], list[np.ndarray]]:
    """The header and columns of a comparison: ``x``, each route, each relerr pair."""
    header = ["x", *(f"route:{name}" for name in table.routes)]
    header += [f"relerr:{pair}" for pair in table.rel_errs]
    return header, [table.x, *table.values, *table.rel_errs.values()]


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
    """The comparison as one row object per distance, with its values and relerrs by name."""
    pairs, n = list(table.rel_errs), len(table.routes)
    _, columns = comparison_columns(table)
    rows = [
        {"x": x, "values": dict(zip(table.routes, cells[:n])), "relerr": dict(zip(pairs, cells[n:]))}
        for x, *cells in zip(*(col.tolist() for col in columns))
    ]
    return doc_to_json(dict(table.meta, lattice=table.lattice, routes=table.routes), rows=rows)
