"""Time and accuracy of the det route: per-x pivoted LU against the one-elimination sweep.

Usage::

    PYTHONPATH=src python tools/bench_det.py OUT.json

For each lattice and size X it times G(1..X) by per-x ``correlator_det`` and
by one ``correlator_det_sweep`` (median of a few in-process runs, kernel
build included) and reports the max relative error of each over x <= X
against the mpmath sine product of ``bench/reference.py``, which shares no
code with xxchain.  Per-x LU is O(X^4), so it runs only at the three small
sizes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from reference import Reference, relerr  # noqa: E402

from xxchain import __version__  # noqa: E402
from xxchain.exact import correlator_det, correlator_det_sweep  # noqa: E402
from xxchain.greens import INFINITE, LatticeSpec  # noqa: E402

# (lattice length or None, sizes with both methods, sizes with the sweep alone)
CASES = ((1202, (113, 225, 450), ()), (None, (113, 225, 450), (1000, 2000, 4096)))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    except OSError:
        names = []
    return names[0] if names else platform.machine()


def per_x(x_max: int, lat: LatticeSpec) -> np.ndarray:
    return np.array([correlator_det(x, lat) for x in range(1, x_max + 1)])


def measure(method, x_max: int, lat: LatticeSpec, ref: Reference, L: int | None) -> dict:
    repeats = 3 if x_max >= 2000 or method is per_x else 7
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        values = method(x_max, lat)
        times.append(time.perf_counter() - t0)
    worst = max(relerr(float(v), ref.correlator(x, L)) for x, v in enumerate(values, start=1))
    return {
        "lattice": str(lat),
        "x_max": x_max,
        "method": "per_x_lu" if method is per_x else "sweep",
        "time_s": statistics.median(times),
        "repeats": repeats,
        "max_relerr_vs_mpmath": worst,
    }


def main(out: str) -> int:
    ref = Reference()
    results = []
    for L, both, sweep_only in CASES:
        lat = INFINITE if L is None else LatticeSpec.finite(L)
        ref.prepare_sweep(L, max(both + sweep_only))
        for x_max in both:
            for method in (per_x, correlator_det_sweep):
                results.append(measure(method, x_max, lat, ref, L))
                print(results[-1], file=sys.stderr)
        for x_max in sweep_only:
            results.append(measure(correlator_det_sweep, x_max, lat, ref, L))
            print(results[-1], file=sys.stderr)
    doc = {
        "command": "PYTHONPATH=src python tools/bench_det.py " + out,
        "what": "det route, G(1..x_max): time of per-x pivoted LU vs one no-pivot "
                "elimination, and max relative error against mpmath at 30 digits",
        "env": {
            "xxchain": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mp.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "results": results,
    }
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
