"""The CLI's printed bytes, this tree against another, cell by cell; and the goldens of ``tests/golden/``.

Usage::

    python tools/diff_outputs.py PARENT_SRC                     # what moved from PARENT_SRC to this tree
    PYTHONPATH=src python tools/diff_outputs.py --write-golden  # rewrite tests/golden/ from this tree

PARENT_SRC is the ``src`` directory of the commit to compare against, for
example from ``git archive``.  Each command of :data:`GOLDEN` and
:data:`EXTRA` runs once per tree, in a fresh interpreter with that tree's
``src`` first on ``PYTHONPATH``.  For each CSV column the tool prints the
cells that moved, labelled by the row's first cell, with the distance in
float64 ulps; a changed header, row count, stderr or exit code is printed
too.  The exit code is 0 when nothing moved and 1 otherwise.

``--write-golden`` writes each :data:`GOLDEN` command's CSV, less its product
columns (:func:`golden_csv`), and ``platform.json``, the long double mantissa,
numpy's version and its SIMD dispatch targets (:func:`platform`).
``tests/test_golden.py`` compares the printed bytes against those files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
# printed bytes that no numpy SIMD dispatch level moves, measured at AVX-512,
# AVX2 and the X86_V2 baseline
GOLDEN = {
    "correlator_L18_ed_det_product.csv": ["correlator", "--L", "18", "--x-max", "17", "--routes", "ed,det,product"],
    "correlator_L1202_det.csv": ["correlator", "--L", "1202", "--x-max", "450", "--routes", "det"],
    "finite_size.csv": ["finite-size", "--L-list", "62,1202,100002,622790"],
}
# compared between trees only: their product and fit cells move by an ulp with the dispatch
EXTRA = [
    ["correlator", "--L", "inf", "--x-max", "2000", "--routes", "product,asym"],
    ["correlator", "--L", "10", "--x-max", "9", "--routes", "ed,det,product,asym"],
    ["constants"],
]
_MAIN = "import sys; from xxchain.cli import main; sys.exit(main(sys.argv[1:]))"


def platform() -> dict:
    """What the golden bytes may depend on: the long double, numpy and numpy's enabled dispatch targets."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    return {
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "numpy": np.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
    }


def golden_csv(text: str) -> str:
    """``text`` without the columns that name the product route, whose exp moves with the dispatch."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [j for j, name in enumerate(rows[0]) if "product" not in name]
    return "".join(",".join(row[j] for j in keep) + "\n" for row in rows)


def printed(argv: list[str]) -> str:
    """What ``xxchain argv`` prints on stdout, run in this process; it must exit 0."""
    from xxchain.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"xxchain {' '.join(argv)} exited {code}")
    return out.getvalue()


def mismatched_golden() -> list[str]:
    """The :data:`GOLDEN` files whose command prints other bytes here."""
    return [name for name, argv in GOLDEN.items() if golden_csv(printed(argv)) != (GOLDEN_DIR / name).read_text()]


def _run(src: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env, capture_output=True, text=True)


def _ulps(a: float, b: float) -> int:
    """b - a in float64 steps, across zero too."""
    ia, ib = (int(np.float64(v).view(np.int64)) for v in (a, b))
    ia, ib = (i if i >= 0 else -(i & (2**63 - 1)) for i in (ia, ib))
    return ib - ia


def _cell_moves(old: str, new: str) -> list[str]:
    """One line per moved cell, grouped by column, for two CSV texts of the same header."""
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if a == b:
        return []
    if a[:1] != b[:1] or len(a) != len(b):
        return [f"table shape: header {a[:1]} -> {b[:1]}, {len(a)} -> {len(b)} lines"]
    lines = []
    for j, name in enumerate(a[0]):
        moved = [(ra[0], ra[j], rb[j]) for ra, rb in zip(a[1:], b[1:]) if ra[j] != rb[j]]
        if moved:
            lines.append(f"{name}: {len(moved)} of {len(a) - 1} cells moved")
        for label, u, v in moved:
            try:
                step = f"{_ulps(float(u), float(v)):+d} ulp"
            except ValueError:
                step = "not a number"
            lines.append(f"  {a[0][0]}={label}: {u} -> {v} ({step})")
    return lines


def diff(parent_src: Path) -> int:
    here, moved = ROOT / "src", False
    for argv in [*GOLDEN.values(), *EXTRA]:
        old, new = _run(parent_src, argv), _run(here, argv)
        lines = _cell_moves(old.stdout, new.stdout)
        if old.returncode != new.returncode:
            lines.append(f"exit code: {old.returncode} -> {new.returncode}")
        if old.stderr != new.stderr:
            lines.append(f"stderr: {old.stderr!r} -> {new.stderr!r}")
        print(f"xxchain {' '.join(argv)}: " + ("moved" if lines else "identical"))
        print("".join(f"  {line}\n" for line in lines), end="")
        moved = moved or bool(lines)
    return int(moved)


def write_golden() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(golden_csv(printed(argv)))
    (GOLDEN_DIR / "platform.json").write_text(json.dumps(platform(), indent=2) + "\n")


def main(argv: list[str]) -> int:
    if argv == ["--write-golden"]:
        write_golden()
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    return diff(Path(argv[0]).resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
