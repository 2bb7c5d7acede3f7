"""Cost and accuracy of the `constants` command's integral route, and of the ED column.

Usage::

    PYTHONPATH=src python tools/bench_constants.py OUT.json PARENT_SRC

PARENT_SRC is the ``src`` directory of the commit to compare against (for
example from ``git archive``).  The file holds three parts:

* ``constants``: wall time, CPU time and peak RSS of ``xxchain constants``
  as a subprocess, PARENT_SRC and this tree's ``src`` alternating, with the
  median and the spread of each side;
* ``lukyanov_integral``: the error against mpmath at 40 digits of the
  adaptive ``scipy.integrate.quad`` evaluation the Gauss-Legendre rule
  replaced, and of the rule at 16, 24 and 32 nodes per panel, with the time
  of one in-process call;
* ``ed_pairs``: the time of the ED pair pass over x = 1..L-1 (ground state
  already solved), per-x ``ed_correlator`` against one ``ed_correlator_sweep``,
  and the max relative error of the sweep against per-x and of both against
  the mpmath sine product of ``bench/reference.py``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from bench_det import cpu_model  # noqa: E402
from reference import Reference, relerr  # noqa: E402

from xxchain import __version__, amplitude  # noqa: E402
from xxchain.amplitude import lukyanov_integral  # noqa: E402
from xxchain.ed import ed_correlator, ed_correlator_sweep, ed_ground_state  # noqa: E402

ENTRY = "from xxchain.cli import entry; entry()"
CLI_PAIRS = 7
ED_LENGTHS = (10, 14, 18)


def run_cli(src: Path, args: list[str]) -> dict:
    """Wall time, CPU time and peak RSS of one xxchain command run from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{args[0]} failed under {src}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def summarise(samples: list[dict]) -> dict:
    out = {"samples": samples}
    for key in samples[0]:
        values = sorted(s[key] for s in samples)
        q = statistics.quantiles(values, n=4)
        out[key] = {"median": statistics.median(values), "iqr": q[2] - q[0]}
    return out


def cli_pairs(parent_src: Path, args: list[str], pairs: int = CLI_PAIRS) -> dict:
    """One command run from PARENT_SRC and from this tree's src, alternating, pairs times."""
    sides = {"parent": (parent_src, []), "change": (ROOT / "src", [])}
    for _ in range(pairs):
        for src, samples in sides.values():
            samples.append(run_cli(src, args))
    return {name: summarise(samples) for name, (_, samples) in sides.items()}


def quad_route() -> float:
    """The adaptive evaluation the rule replaced: Taylor head on (0, 1e-3], quad split at t = 1."""
    from scipy.integrate import quad

    def f(t):
        return (math.exp(-4.0 * t) - 1.0 / math.cosh(t) ** 2) / t

    t0 = 1e-3
    head = (-4.0 * t0 + 4.5 * t0**2 - (32.0 / 9.0) * t0**3 + 2.5 * t0**4
            - (128.0 / 75.0) * t0**5 + (91.0 / 90.0) * t0**6)
    mid, _ = quad(f, t0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    tail, _ = quad(f, 1.0, 40.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    return head + mid + tail


def timed(fn, repeats: int = 50) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return value, statistics.median(times)


def integral_errors() -> list[dict]:
    default_nodes = amplitude._PANEL_NODES
    with mp.workdps(40):
        exact = mp.quad(lambda t: (mp.exp(-4 * t) - mp.sech(t) ** 2) / t, [0, 1, 4, 16, 40, mp.inf])
        rows = []
        for nodes in (None, 16, 24, 32):
            amplitude._PANEL_NODES = nodes or default_nodes
            value, seconds = timed(quad_route if nodes is None else lukyanov_integral)
            rows.append({"method": "quad" if nodes is None else "gauss_legendre",
                         "nodes_per_panel": nodes, "value": value,
                         "abs_err_vs_mpmath": float(abs(mp.mpf(value) - exact)),
                         "time_s": seconds})
            print(rows[-1], file=sys.stderr)
    amplitude._PANEL_NODES = default_nodes
    return rows


def ed_pairs(ref: Reference) -> list[dict]:
    rows = []
    for L in ED_LENGTHS:
        ed_ground_state(L)
        ref.prepare_sweep(L, L - 1)
        per_x, t_per_x = timed(lambda: np.array([ed_correlator(L, x) for x in range(1, L)]), 5)
        sweep, t_sweep = timed(lambda: ed_correlator_sweep(L, L - 1), 5)
        rows.append({
            "L": L,
            "per_x_time_s": t_per_x,
            "sweep_time_s": t_sweep,
            "max_relerr_sweep_vs_per_x": float(np.max(np.abs(sweep / per_x - 1.0))),
            "max_relerr_per_x_vs_mpmath": max(relerr(float(v), ref.correlator(x, L))
                                              for x, v in enumerate(per_x, start=1)),
            "max_relerr_sweep_vs_mpmath": max(relerr(float(v), ref.correlator(x, L))
                                              for x, v in enumerate(sweep, start=1)),
        })
        print(rows[-1], file=sys.stderr)
    return rows


def main(out: str, parent_src: str) -> int:
    import scipy

    doc = {
        "command": "PYTHONPATH=src python tools/bench_constants.py " + out + " PARENT_SRC",
        "what": "xxchain constants end to end, parent against change; Lukyanov integral error "
                "by quad and by the Gauss-Legendre rule; ED pair pass, per-x against one sweep",
        "env": {
            "xxchain": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mp.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "constants": cli_pairs(Path(parent_src).resolve(), ["constants", "--out", os.devnull]),
        "lukyanov_integral": integral_errors(),
        "ed_pairs": ed_pairs(Reference()),
    }
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
