"""The CLI's printed bytes against the goldens of ``tests/golden/``, cell by cell.

Usage::

    PYTHONPATH=src python tools/diff_outputs.py                 # what moved from the goldens to this tree
    PYTHONPATH=src python tools/diff_outputs.py --write-golden  # rewrite tests/golden/ from this tree

Each :data:`GOLDEN` command runs in this process and must exit 0.  Its golden
is its whole stdout, ``tests/golden/<name>``, and its stderr, in
``stderr.json``.  A commit's goldens are its own bytes, so the listing, run
before ``--write-golden``, is what a change moved from its parent: per CSV
column the cells that moved, by the row's first cell, in float64 ulps, and any
changed shape or stderr.  It exits 1 if anything moved.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import sys
from pathlib import Path

import numpy as np
from xxchain.cli import main as xxchain_main

_umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2 renamed core to _core

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
STDERR = GOLDEN_DIR / "stderr.json"
GOLDEN = {
    "correlator_Linf_product_asym.csv": ["correlator", "--L", "inf", "--x-max", "500", "--routes", "product,asym"],
    "correlator_L1202_det_product.csv": ["correlator", "--L", "1202", "--x-max", "450", "--routes", "det,product"],
    "correlator_L18_ed_det_product.csv": ["correlator", "--L", "18", "--x-max", "17", "--routes", "ed,det,product"],
    "correlator_L10_all_routes.csv": ["correlator", "--L", "10", "--x-max", "9", "--routes", "ed,det,product,asym"],
    "correlator_L8_all_routes.csv": ["correlator", "--L", "8", "--x-max", "7", "--routes", "ed,det,product,asym"],
    "constants.csv": ["constants"],
    "finite_size.csv": ["finite-size", "--L-list", "62,1202,100002,622790"],
}


def _openblas_core() -> str | None:
    """The kernel numpy's OpenBLAS runs on, read back from the library; None where none is found."""
    lib = ctypes.CDLL(_umath.__file__)  # its symbols resolve through the BLAS it links
    for get in (getattr(lib, name, None) for name in ("scipy_openblas_get_corename64_", "openblas_get_corename")):
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


def platform() -> dict:
    """What the golden bytes may depend on: the long double, numpy, its enabled dispatch targets and OpenBLAS."""
    return {
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "numpy": np.__version__,
        "simd_baseline": list(_umath.__cpu_baseline__),
        "simd_dispatch": [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)],
        "openblas_core": _openblas_core(),
    }


def printed(argv: list[str]) -> tuple[str, str]:
    """What ``xxchain argv`` prints on stdout and stderr, run in this process; it must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = xxchain_main(argv)
    if code != 0:
        raise RuntimeError(f"xxchain {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue(), err.getvalue()


def _step(u: str, v: str) -> str:
    """v - u in float64 steps, across zero too, for two printed cells."""
    try:
        ia, ib = (int(np.float64(cell).view(np.int64)) for cell in (u, v))
    except ValueError:
        return "not a number"
    ia, ib = (i if i >= 0 else -(i & (2**63 - 1)) for i in (ia, ib))
    return f"{ib - ia:+d} ulp"


def _cell_moves(old: str, new: str) -> list[str]:
    """One line per moved cell, grouped by column, for two CSV texts; empty when the bytes are equal."""
    if old == new:
        return []
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if a[:1] != b[:1] or len(a) != len(b):
        return [f"table shape: header {a[:1]} -> {b[:1]}, {len(a)} -> {len(b)} lines"]
    lines = []
    for j, name in enumerate(a[0]):
        moved = [(ra[0], ra[j], rb[j]) for ra, rb in zip(a[1:], b[1:]) if ra[j] != rb[j]]
        if moved:
            lines.append(f"{name}: {len(moved)} of {len(a) - 1} cells moved")
        lines += [f"  {a[0][0]}={label}: {u} -> {v} ({_step(u, v)})" for label, u, v in moved]
    return lines or ["bytes moved outside the cells"]


def moves(name: str) -> list[str]:
    """What moved from the golden ``name`` to the bytes its command prints here; empty when nothing did."""
    (out, err), old_err = printed(GOLDEN[name]), json.loads(STDERR.read_text())[name]
    lines = _cell_moves((GOLDEN_DIR / name).read_text(), out)
    return lines if err == old_err else [*lines, f"stderr: {old_err!r} -> {err!r}"]


def write_golden() -> None:
    stderr = {}
    for name, argv in GOLDEN.items():
        out, stderr[name] = printed(argv)
        (GOLDEN_DIR / name).write_text(out)
    STDERR.write_text(json.dumps(stderr, indent=2) + "\n")
    (GOLDEN_DIR / "platform.json").write_text(json.dumps(platform(), indent=2) + "\n")


def main(argv: list[str]) -> int:
    if argv == ["--write-golden"]:
        write_golden()
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    moved = [moves(name) for name in GOLDEN]
    for argv, lines in zip(GOLDEN.values(), moved):
        print(f"xxchain {' '.join(argv)}: " + ("moved" if lines else "identical"))
        print("".join(f"  {line}\n" for line in lines), end="")
    return int(any(moved))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
