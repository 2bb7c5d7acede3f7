"""Cost and accuracy of the ED route: the full M = L/2 sector against the k = pi sector.

Usage::

    PYTHONPATH=src python tools/bench_ed.py OUT.json PARENT_SRC

PARENT_SRC is the ``src`` directory of the commit to compare against (for
example from ``git archive``).  The file holds four parts:

* ``stages``: per-stage medians at L = 10, 14 and 18 for both routes.  The
  full sector builds its basis, its Hamiltonian, solves for the two lowest
  eigenpairs and runs the all-site double-precision pair pass the CLI used
  before the k = pi route; k = pi builds the basis and the translation
  orbits, the reduced Hamiltonian, solves for one eigenpair, polishes it in
  longdouble and expands it (``polish``), then runs ``ed_correlator_sweep``.
* ``accuracy``: each route's max relative error over x = 1..L-1 against
  ``bench/reference.py``'s ``Reference`` (mpmath sine product).
* ``start_vector_overlap``: |<v0|psi0>| of the uniform start vector and of
  the fixed-seed one with the full-sector ground state.
* ``cli``: wall time, CPU time and peak RSS of
  ``xxchain correlator --L 18 --x-max 17 --routes ed,det,product``,
  PARENT_SRC and this tree's ``src`` alternating.
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
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from bench_constants import cli_pairs  # noqa: E402
from bench_det import cpu_model  # noqa: E402
from reference import Reference, relerr  # noqa: E402

from xxchain import __version__, ed  # noqa: E402

LENGTHS = (10, 14, 18)
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


def all_site_pass(sector: ed.SpinSector, psi: np.ndarray) -> np.ndarray:
    """G(1..L-1) summed in double over every lowered site, as the CLI did before k = pi."""
    L, basis, dim = sector.L, sector.basis, sector.dimension
    rank = np.full(1 << L, dim, dtype=np.int32)
    rank[basis] = np.arange(dim, dtype=np.int32)
    amp = np.append(psi, 0.0)
    total = np.zeros(L - 1)
    for i in range(L):
        src = np.nonzero((basis >> i) & 1)[0]
        raised = np.int64(1) << ((i + np.arange(1, L)) % L)
        total += psi[src] @ amp[rank[(basis[src] ^ np.int64(1 << i))[:, None] | raised]]
    return total / L


def fresh_sector(L: int) -> ed.SpinSector:
    ed.spin_sector.cache_clear()
    return ed.spin_sector(L)


def full_sector(L: int) -> tuple[dict, np.ndarray]:
    sector, t_basis = median_time(lambda: fresh_sector(L))
    H, t_ham = median_time(lambda: ed._hamiltonian(sector))
    (_, v), t_eig = median_time(lambda: ed._lowest_eigenpairs(H, 2))
    psi = v[:, 0] / np.linalg.norm(v[:, 0])
    G, t_pairs = median_time(lambda: all_site_pass(sector, psi))
    return {"basis_s": t_basis, "hamiltonian_s": t_ham, "eigensolver_s": t_eig,
            "pair_pass_s": t_pairs, "dimension": sector.dimension}, G


def k_pi_sector(L: int) -> tuple[dict, np.ndarray]:
    def basis():
        sector = fresh_sector(L)
        return (sector, *ed._orbits(sector))

    (sector, leaders, orbit, phase), t_basis = median_time(basis)
    H, t_ham = median_time(lambda: ed._momentum_hamiltonian(sector, leaders, orbit, phase))
    (_, v), t_eig = median_time(lambda: ed._lowest_eigenpairs(H.astype(np.float64), 1))

    def polish():
        _, c = ed._polish(H, v[:, 0])
        c /= np.sqrt(np.bincount(orbit).astype(np.longdouble))
        psi = c[orbit]
        psi *= phase
        return psi

    psi, t_polish = median_time(polish)
    ed._momentum_ground_state(L)  # fill the cache, so the sweep times the pair pass alone
    G, t_pairs = median_time(lambda: ed.ed_correlator_sweep(L, L - 1))
    return {"basis_s": t_basis, "hamiltonian_s": t_ham, "eigensolver_s": t_eig,
            "polish_s": t_polish, "pair_pass_s": t_pairs, "dimension": len(leaders)}, G


def max_relerr(G: np.ndarray, ref: Reference, L: int) -> float:
    return max(relerr(float(g), ref.correlator(x, L)) for x, g in enumerate(G, start=1))


def overlaps(L: int) -> dict:
    _, _, psi = ed._lowest_pair(L)
    out = {}
    for name, v0 in (("uniform", np.ones(len(psi))), ("fixed_seed", ed._start_vector(len(psi)))):
        out[name] = float(abs(v0 @ psi) / np.linalg.norm(v0))
    return out


def main(out: str, parent_src: str) -> int:
    # first, while this process is small: a child's peak RSS counts the
    # memory it shared with this process before exec
    cli = cli_pairs(Path(parent_src).resolve(), CLI_ARGS, CLI_PAIRS)
    ref = Reference()
    stages, accuracy, overlap = [], [], []
    for L in LENGTHS:
        ref.prepare_sweep(L, L - 1)
        full, G_full = full_sector(L)
        k_pi, G_k_pi = k_pi_sector(L)
        stages.append({"L": L, "full_sector": full, "k_pi": k_pi})
        accuracy.append({"L": L, "full_sector_all_sites": max_relerr(G_full, ref, L),
                         "k_pi_sweep": max_relerr(G_k_pi, ref, L)})
        overlap.append({"L": L, **overlaps(L)})
        for part in (stages, accuracy, overlap):
            print(part[-1], file=sys.stderr)
    doc = {
        "command": "PYTHONPATH=src python tools/bench_ed.py " + out + " PARENT_SRC",
        "what": "ED route: per-stage medians and max relerr against mpmath, full sector "
                "against k = pi; start-vector overlaps; the ed-oracle command end to end, "
                "parent against change",
        "env": {
            "xxchain": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mp.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "stages": stages,
        "accuracy": accuracy,
        "start_vector_overlap": overlap,
        "cli": {"args": CLI_ARGS[:-2], **cli},
    }
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
