"""Cost, memory and accuracy of the k = pi ED solve, parent against change.

Usage::

    PYTHONPATH=src python tools/bench_ed.py OUT.json PARENT_SRC

PARENT_SRC is the ``src`` directory of the commit to compare against (for
example from ``git archive``).  Each side runs in its own process with its
``src`` on ``PYTHONPATH`` (``tools/bench_ed.py --side``).  A side whose
``ed`` has ``_lanczos`` solves the k = pi sector with the numpy Lanczos on
per-bond triplets; one without it builds a CSR matrix and calls ``eigsh``.
The file holds, for both sides:

* ``stages``: per-stage medians at L = 10, 14 and 18: the basis and the
  translation orbits, the k = pi Hamiltonian, the float64 eigensolver, the
  longdouble polish with the expansion to full-sector amplitudes
  (``polish_s``), and the pair pass of ``ed_correlator_sweep`` with the
  state cached.  ``matvecs`` counts the eigensolver's products with H: the
  Lanczos steps, or the ARPACK operator calls in a separate untimed run.
* ``accuracy``: the sweep's max relative error over x = 1..L-1 against
  ``bench/reference.py``'s ``Reference`` (mpmath sine product).
* ``memory``: ``tracemalloc`` figures of the L = 18 solve in units of the
  8 C(18, 9)-byte basis, sector cached, in a process warmed by one L = 10
  solve: per stage the peak and the memory held after it, then the peak of
  one ``_momentum_ground_state`` call as ``test_k_pi_solve_memory`` takes it.
* ``scratch_L22``: one run at L = 22 with ``MAX_ED_LENGTH`` lifted; single
  timings, not a claim.
* ``cli``: wall time, CPU time and peak RSS of
  ``xxchain correlator --L 18 --x-max 17 --routes ed,det,product``,
  PARENT_SRC and this tree's ``src`` alternating.
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
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = (10, 14, 18)
SCRATCH_L = 22
REPEATS = 7
CLI_PAIRS = 12
CLI_ARGS = ["correlator", "--L", "18", "--x-max", "17", "--routes", "ed,det,product",
            "--out", os.devnull]


def median_time(fn, repeats: int = REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return value, statistics.median(times)


def k_pi_solver(ed):
    """The side's float64 k = pi eigensolver ``(H, dim) -> vector`` and its count of products with H."""
    if hasattr(ed, "_lanczos"):
        def lanczos(H, dim):
            return ed._lanczos([(a, b, d.astype(np.float64)) for a, b, d in H], dim)

        return (lambda H, dim: lanczos(H, dim)[1]), (lambda H, dim: lanczos(H, dim)[2])

    import scipy.sparse.linalg

    def matvecs(H, dim):
        H64, count = H.astype(np.float64), [0]

        def product(v):
            count[0] += 1
            return H64 @ v

        op = scipy.sparse.linalg.LinearOperator(H64.shape, matvec=product, dtype=np.float64)
        scipy.sparse.linalg.eigsh(op, k=1, which="SA", v0=ed._start_vector(dim))
        return count[0]

    return (lambda H, dim: ed._lowest_eigenpairs(H.astype(np.float64), 1)[1][:, 0]), matvecs


def expand(ed, H, v, orbit, phase):
    """The polish and the expansion, as ``ed._momentum_ground_state`` runs them."""
    _, c = ed._polish(H, v)
    c /= np.sqrt(np.bincount(orbit).astype(np.longdouble))
    psi = c[orbit]
    psi *= phase
    return psi


def stages(ed, L: int, repeats: int = REPEATS) -> tuple[dict, list]:
    """Per-stage medians of one k = pi solve and the sweep; returns the stages and G(1..L-1)."""
    solve, matvecs = k_pi_solver(ed)

    def basis():
        ed.spin_sector.cache_clear()
        sector = ed.spin_sector(L)
        return (sector, *ed._orbits(sector))

    (sector, leaders, orbit, phase), t_basis = median_time(basis, repeats)
    H, t_ham = median_time(lambda: ed._momentum_hamiltonian(sector, leaders, orbit, phase), repeats)
    v, t_eig = median_time(lambda: solve(H, len(leaders)), repeats)
    _, t_polish = median_time(lambda: expand(ed, H, v, orbit, phase), repeats)
    ed._momentum_ground_state.cache_clear()
    ed._momentum_ground_state(L)  # fill the cache, so the sweep times the pair pass alone
    G, t_pairs = median_time(lambda: ed.ed_correlator_sweep(L, L - 1), repeats)
    return {"L": L, "dimension": len(leaders), "matvecs": matvecs(H, len(leaders)),
            "basis_s": t_basis, "hamiltonian_s": t_ham, "eigensolver_s": t_eig,
            "polish_s": t_polish, "pair_pass_s": t_pairs}, G.tolist()


def memory(ed, L: int) -> dict:
    """tracemalloc peak and held memory per stage of the k = pi solve, in basis units."""
    solve, _ = k_pi_solver(ed)
    unit = 8 * math.comb(L, L // 2)
    ed._momentum_ground_state(10)  # lazy imports and first-call allocations stay out
    sector = ed.spin_sector(L)
    out = {}

    def mark(name):
        held, peak = tracemalloc.get_traced_memory()
        out[name] = {"peak": peak / unit, "held_after": held / unit}
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        leaders, orbit, phase = ed._orbits(sector)
        mark("orbits")
        H = ed._momentum_hamiltonian(sector, leaders, orbit, phase)
        mark("hamiltonian")
        v = solve(H, len(leaders))
        mark("eigensolver")
        psi = expand(ed, H, v, orbit, phase)
        mark("polish_and_expansion")
        del leaders, orbit, phase, H, v, psi
        tracemalloc.clear_traces()
        ed._momentum_ground_state.cache_clear()
        ed._momentum_ground_state(L)
        out["whole_solve_peak"] = tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()
    return out


def side() -> dict:
    """Everything measured inside one side's process; printed as JSON."""
    from xxchain import ed

    doc = {"memory": memory(ed, LENGTHS[-1]), "stages": [], "G": {}}
    for L in LENGTHS:
        row, doc["G"][L] = stages(ed, L)
        doc["stages"].append(row)
    ed.MAX_ED_LENGTH = SCRATCH_L
    doc["scratch_L22"], doc["G"][SCRATCH_L] = stages(ed, SCRATCH_L, repeats=1)
    return doc


def run_side(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--side"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main(out: str, parent_src: str) -> int:
    import mpmath as mp

    sys.path.insert(0, str(ROOT / "bench"))
    from bench_constants import cli_pairs
    from bench_det import cpu_model
    from reference import Reference, relerr

    from xxchain import __version__

    # first, while this process is small: a child's peak RSS counts the
    # memory it shared with this process before exec
    cli = cli_pairs(Path(parent_src).resolve(), CLI_ARGS, CLI_PAIRS)
    sides = {"parent": run_side(Path(parent_src).resolve()), "change": run_side(ROOT / "src")}
    ref = Reference()
    accuracy = []
    for L in (*LENGTHS, SCRATCH_L):
        ref.prepare_sweep(L, L - 1)
        row = {"L": L}
        for name, doc in sides.items():
            G = doc["G"][str(L)]
            row[name] = max(relerr(g, ref.correlator(x, L)) for x, g in enumerate(G, start=1))
        accuracy.append(row)
        print(row, file=sys.stderr)
    doc = {
        "command": "PYTHONPATH=src python tools/bench_ed.py " + out + " PARENT_SRC",
        "what": "k = pi ED solve, parent (CSR matrix, eigsh) against change (bond triplets, "
                "numpy Lanczos): per-stage medians, matrix-vector products, traced memory per "
                "stage, max relerr against mpmath, one L = 22 run with the guard lifted, and "
                "the ed-oracle command end to end",
        "env": {
            "xxchain": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mp.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "stages": {name: doc["stages"] for name, doc in sides.items()},
        "accuracy": accuracy[:-1],
        "memory_basis_units_L18": {name: doc["memory"] for name, doc in sides.items()},
        "scratch_L22": {"note": "single run with MAX_ED_LENGTH lifted, not a claim",
                        **{name: doc["scratch_L22"] for name, doc in sides.items()},
                        "max_relerr": accuracy[-1]},
        "cli": {"args": CLI_ARGS[:-2], **cli},
    }
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--side"]:
        print(json.dumps(side()))
        sys.exit(0)
    sys.exit(main(sys.argv[1], sys.argv[2]))
