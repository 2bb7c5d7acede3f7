"""Cost and accuracy of the constants-large-n layers, parent against change.

Usage::

    PYTHONPATH=src python tools/bench_constants.py OUT.json PARENT_SRC [SEED ...]

PARENT_SRC is the ``src`` directory of a ``git archive`` of the commit to
compare against.  Each side runs in its own process with its ``src`` on
``PYTHONPATH`` (``tools/bench_constants.py --side``).  The file holds:

* ``stages``: in-process medians of each layer behind ``finite-size`` and
  ``constants``, summed over the finite-size lengths of benchmark seed 1 at
  quarter, half and full size, and over L = 9999998:
  - ``grid``: ``exact._sine_grid`` for the sines the table needs;
  - ``factors``: ``exact._log_factors`` (grid included);
  - ``table_read``: ``correlator`` at the finite-size distance, which
    builds the table and reads G(x) off it;
  - ``gamma_product``: ``log_r_gamma_product`` at the same N as the table.
  Each stage has its max relative error against mpmath: the grid and the
  factors at ~300 sampled k per ring, both sides of the series threshold
  included; G(x) against a 30-digit sum of all factors; the gamma product
  against mpmath's Barnes G.
* ``gamma_product_constants``: the same for the N = 5000 and 10000 that the
  ``constants`` command reads.
* ``cli``: wall time, CPU time and peak RSS of ``constants`` and of
  ``finite-size`` at the seed 1 lengths as subprocesses, PARENT_SRC and this
  tree's ``src`` alternating, with the median and the spread of each side.
* ``end_to_end`` (only when SEEDs are given): one ``bench/run.py --trace 0``
  pair per seed and workload, the ``bench/`` next to PARENT_SRC against this
  tree's, the parent first on odd seeds.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "from xxchain.cli import entry; entry()"
CLI_PAIRS = 7
REPEATS = 5
GUARD_L = 9_999_998
SIZES = {"quarter": 0.25, "half": 0.5, "full": 1.0}
CONSTANTS_N = (5000, 10000)
E2E_SECONDS = {"constants-large-n": 10}
E2E_DEFAULT_SECONDS = 5


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


def seed1_lengths() -> dict[str, list[int]]:
    """The finite-size --L-list of benchmark seed 1 at each size, as bench/run.py draws it."""
    sys.path.insert(0, str(ROOT / "bench"))
    from run import constants_large_n

    class NoReference:
        def prepare_single(self, x, L):
            pass

    out = {}
    for name, frac in SIZES.items():
        steps = constants_large_n(NoReference(), random.Random(1), frac)
        out[name] = [int(L) for L in steps[-1].argv[-1].split(",")]
    out["guard"] = [GUARD_L]
    return out


def finite_size_x(L: int) -> int:
    return min(max(int(round(0.5 * L)), 1), L - 1)


def sample_ks(L: int) -> list[int]:
    """Sampled k <= L/4: both ends, a geometric spread, and k = 400..700 around the series threshold."""
    m = L // 4
    ks = {1, m} | {int(k) for k in np.geomspace(1, m, 200)} | set(range(400, 701, 3))
    return sorted(k for k in ks if 1 <= k <= m)


def ratio(v) -> list[int]:
    return list(np.longdouble(v).as_integer_ratio())


def median_time(fn, repeats: int = REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return value, statistics.median(times)


def side() -> dict:
    """Every stage, timed inside one side's process, with the values the errors need."""
    from xxchain import amplitude, exact
    from xxchain.greens import LatticeSpec

    doc = {"stages": {}, "gamma_product_constants": {}}
    for name, lengths in seed1_lengths().items():
        row = {"lengths": lengths, "grid_s": 0.0, "factors_s": 0.0, "table_read_s": 0.0,
               "gamma_product_s": 0.0, "values": {}}
        for L in lengths:
            lat, x = LatticeSpec.finite(L), finite_size_x(L)
            n = (x + 1) // 2
            ks = sample_ks(L)
            grid, t_grid = median_time(lambda: exact._sine_grid(min(n - 1, L // 4), L))
            f, t_f = median_time(lambda: exact._log_factors(n, lat))
            g, t_g = median_time(lambda: exact.correlator(x, lat).value)
            gp, t_gp = median_time(lambda: amplitude.log_r_gamma_product(n))
            row["grid_s"] += t_grid
            row["factors_s"] += t_f
            row["table_read_s"] += t_g
            row["gamma_product_s"] += t_gp
            row["values"][L] = {"grid": [ratio(grid[k - 1]) for k in ks],
                                "factors": [ratio(f[k]) for k in ks],
                                "G": g, "gamma_product": gp}
        doc["stages"][name] = row
        print(name, {k: v for k, v in row.items() if k.endswith("_s")}, file=sys.stderr)
    for N in CONSTANTS_N:
        value, seconds = median_time(lambda: amplitude.log_r_gamma_product(N), 21)
        doc["gamma_product_constants"][N] = {"value": value, "s": seconds}
    return doc


def run_side(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--side"], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def references(lengths: dict[str, list[int]]) -> dict[int, dict]:
    """mpmath values at 30 digits: sampled sines and factors, and G(x) from all factors."""
    import mpmath as mp

    refs = {}
    with mp.workdps(30):
        for L in sorted({L for ls in lengths.values() for L in ls}):
            x = finite_size_x(L)
            N = x // 2
            s = mp.sin(mp.pi / L)
            step = 2 * mp.pi / L

            def factor(k):
                q = s / mp.sin(step * k)
                return -mp.log1p(-q * q)

            ks = sample_ks(L)
            f0 = mp.log(2 / (L * s))
            s1, s2 = f0, mp.mpf(0)  # sum f_k and sum k f_k over k < N
            for k in range(1, N):
                fk = factor(k)
                s1 += fk
                s2 += k * fk
            fN = factor(N)
            log_r = N * s1 - s2
            log_r1 = (N + 1) * (s1 + fN) - (s2 + N * fN)
            refs[L] = {"grid": [mp.sin(step * k) for k in ks],
                       "factors": [factor(k) for k in ks],
                       "G": (-1) ** x * mp.exp(log_r + log_r1) / 2}
            print("reference", L, file=sys.stderr)
    return refs


def barnes_log_r(N: int):
    import mpmath as mp

    with mp.workdps(30):
        n, g = mp.mpf(N), mp.barnesg
        return mp.log(g(n + 1) ** 2 * g(0.5) * g(1.5) / (g(n + 0.5) * g(n + 1.5)))


def max_relerr(values, refs) -> float:
    import mpmath as mp

    with mp.workdps(30):
        worst = 0.0
        for v, r in zip(values, refs):
            v = mp.mpf(v[0]) / v[1] if isinstance(v, list) else mp.mpf(v)
            worst = max(worst, float(abs(v / r - 1)))
    return worst


def stage_table(sides: dict, refs: dict) -> dict:
    out = {}
    for name in sides["change"]["stages"]:
        row = {"lengths": sides["change"]["stages"][name]["lengths"]}
        for stage in ("grid", "factors", "table_read", "gamma_product"):
            row[stage] = {side: {"median_s": doc["stages"][name][stage + "_s"]}
                          for side, doc in sides.items()}
        for side, doc in sides.items():
            values = doc["stages"][name]["values"]
            for stage, key in (("grid", "grid"), ("factors", "factors")):
                row[stage][side]["max_relerr"] = max(
                    max_relerr(v[key], refs[int(L)][key]) for L, v in values.items())
            row["table_read"][side]["max_relerr"] = max(
                max_relerr([v["G"]], [refs[int(L)]["G"]]) for L, v in values.items())
            row["gamma_product"][side]["max_relerr"] = max(
                max_relerr([v["gamma_product"]], [barnes_log_r(finite_size_x(int(L)) // 2 + 1)])
                for L, v in values.items())
        out[name] = row
    return out


def end_to_end(parent_root: Path, seeds: list[int]) -> dict:
    """One bench/run.py --trace 0 pair per seed and workload; the parent runs first on odd seeds."""
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out = {}
    for workload in workloads:
        seconds = E2E_SECONDS.get(workload, E2E_DEFAULT_SECONDS)
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side_name in order:
                root = parent_root if side_name == "parent" else ROOT
                done = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=root, check=True, stdout=subprocess.PIPE, text=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                runs[side_name].append({"seed": seed, "failed": result["failed"],
                                        **{k: m["value"] for k, m in result["metrics"].items()}})
        metrics = {}
        for key in runs["parent"][0]:
            if key in ("seed", "failed"):
                continue
            p = [r[key] for r in runs["parent"]]
            c = [r[key] for r in runs["change"]]
            q = statistics.quantiles(p, n=4) if len(p) > 1 else [p[0]] * 3
            metrics[key] = {"parent_median": statistics.median(p),
                            "change_median": statistics.median(c),
                            "parent_iqr": q[2] - q[0],
                            "change_lower": sum(b < a for a, b in zip(p, c)),
                            "pairs": len(p)}
        out[workload] = {"seconds": seconds, "seeds": seeds, "metrics": metrics, "runs": runs}
        print(workload, {k: (round(v["parent_median"], 4), round(v["change_median"], 4),
                             v["change_lower"]) for k, v in metrics.items()}, file=sys.stderr)
    return out


def main(out: str, parent_src: str, seeds: list[int]) -> int:
    import mpmath as mp

    from bench_det import cpu_model

    from xxchain import __version__

    parent = Path(parent_src).resolve()
    lengths = seed1_lengths()
    # first, while this process is small: a child's peak RSS counts the
    # memory it shared with this process before exec
    cli = {
        "constants": cli_pairs(parent, ["constants", "--out", os.devnull]),
        "finite-size seed 1": cli_pairs(parent, ["finite-size", "--L-list",
                                                 ",".join(map(str, lengths["full"])),
                                                 "--out", os.devnull]),
    }
    e2e = end_to_end(parent.parent, seeds) if seeds else None
    sides = {"parent": run_side(parent), "change": run_side(ROOT / "src")}
    refs = references(lengths)
    gamma = {}
    for N in CONSTANTS_N:
        ref = barnes_log_r(N)
        gamma[N] = {side: {"median_s": doc["gamma_product_constants"][str(N)]["s"],
                           "relerr": max_relerr([doc["gamma_product_constants"][str(N)]["value"]],
                                                [ref])}
                    for side, doc in sides.items()}
    doc = {
        "command": "PYTHONPATH=src python tools/bench_constants.py " + out + " PARENT_SRC"
                   + "".join(f" {s}" for s in seeds),
        "what": "layers of constants-large-n, parent against change: sine grid, log factors, "
                "table read and gamma product, in-process medians with max relerr against "
                "mpmath; the two commands end to end; bench/run.py pairs",
        "env": {
            "xxchain": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mp.__version__,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "longdouble": f"{np.finfo(np.longdouble).nmant + 1}-bit mantissa",
        },
        "stages": stage_table(sides, refs),
        "gamma_product_constants": gamma,
        "cli": cli,
    }
    if e2e is not None:
        doc["end_to_end"] = e2e
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--side"]:
        print(json.dumps(side()))
        sys.exit(0)
    sys.exit(main(sys.argv[1], sys.argv[2], [int(s) for s in sys.argv[3:]]))
