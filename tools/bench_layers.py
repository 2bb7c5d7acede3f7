"""Cost and accuracy of every xxchain layer, parent against change, from one table.

Usage::

    PYTHONPATH=src python tools/bench_layers.py OUT.json PARENT_SRC [SEED ...]

PARENT_SRC is the ``src`` directory of the commit to compare against, for
example from ``git archive``.  OUT.json holds:

* ``command``, with OUT.json by its file name alone, and ``env``: the
  versions, the CPU, ``platform`` (``tools/diff_outputs.platform()``: the
  long double, numpy, its enabled SIMD targets and OpenBLAS's kernel, as the
  goldens' ``platform.json`` records them), ``sys.flags.dont_write_bytecode``
  and per side whether ``xxchain/__pycache__`` existed at the start (``pycache``).
  Without bytecode each CLI sample compiles the modules it imports afresh.
* ``layers``: per entry of :data:`LAYERS`, size and side, the median
  in-process time (``median_s``) and process CPU of every thread
  (``cpu_median_s``) per call, the CPU the process burns in a sleep after the
  calls (``idle_cpu_s``: a thread pool left spinning), the ``tracemalloc``
  peak of one call (``peak_mb``) and the max relative error against
  ``bench/reference.py`` (``max_relerr``), each keyed ``<field>@<size>``.
  Each layer runs :func:`side` in :data:`LAYER_PAIRS` pairs of processes.  A
  layer whose callable raises ``AttributeError`` or ``TypeError`` on a side,
  such as a private function renamed since, is ``absent`` there, with the
  message, and its times are not compared.
* ``cli``: wall time, CPU time and peak RSS of ``--version``, of the
  inf-sweep, ring-det-sweep, ed-oracle, ring-last-cell and wide-table (10^5
  rows) ``correlator`` commands, ``constants`` and ``finite-size`` run from
  each ``src``, with ``spawner_rss_mb``, this process's own peak RSS at the
  spawn: Linux carries it into the child's ``ru_maxrss``, so it is a floor
  under ``peak_rss_mb``.  ``xxchain_modules`` counts, per side, the
  ``xxchain.*`` modules the command loads, from one untimed
  ``python -X importtime`` run.
* ``end_to_end`` (only with SEEDs): one ``bench/run.py --trace 0`` pair per
  seed and workload, the ``bench/`` next to PARENT_SRC against this tree's.

Layer, CLI and end-to-end runs come in pairs that alternate which side runs
first; each metric gives both sides' median and quartile spread, and every pair's
change/parent ratio, their median and the change's wins, which a drift of
the host's speed between pairs does not blur.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import diff_outputs  # noqa: E402
from reference import DPS, Reference, _g0_mp, _log_r_barnes, _log_r_recurrence, mp, relerr  # noqa: E402

ENTRY = "from xxchain.cli import entry; entry()"
SIDES = ("parent", "change")
CLI_PAIRS = 8
LAYER_PAIRS = 3
# the layer fields compared pair by pair; max_relerr and idle_cpu_s may be 0 on the parent
LAYER_KEYS = ("median_s", "cpu_median_s", "peak_mb")
# timed calls per layer and size: at least MIN_RUNS, more while they take under RUN_BUDGET_S
MIN_RUNS, MAX_RUNS, RUN_BUDGET_S = 3, 51, 0.5
# sleep after the timed calls; CPU burnt in it is threads left spinning, such as a BLAS pool
IDLE_S = 0.2


class Layer(NamedTuple):
    """One layer: ``prepare(xx, size)`` does the untimed set-up on the package ``xx`` and
    returns ``(run, values)``; ``run()`` is the timed call and ``values(result)`` lists the
    floats that ``reference(size)`` gives as mpmath numbers."""

    sizes: tuple
    prepare: Callable
    reference: Callable
    bound: float  # on the max relerr, at every size


def _call(fn, values=np.atleast_1d):
    """``prepare`` of a layer with no set-up, timing ``fn(xx, size)``."""
    return lambda xx, n: ((lambda: fn(xx, n)), values)


_ref = functools.cache(Reference)  # one per process


def _sweep_ref(L, x_max: int) -> list:
    """G(1..x_max) on ring L (None: the infinite chain)."""
    ref = _ref()
    ref.prepare_sweep(L, x_max)
    return [ref.correlator(x, L) for x in range(1, x_max + 1)]


def _ed(stage: int):
    """``prepare`` of stage 0 (basis and orbits), 1 (the ground state's momentum-sector
    Hamiltonian) or 2 (``_lowest_level``: the one Lanczos, run in float64 and then in longdouble) of
    the ED solve.  Its output is checked by running the later stages untimed: the ground energy,
    2 L G(1), against the reference.  The Hamiltonian is one hop triplet ``(a, b, d)``."""

    def prepare(xx, L):
        def basis():
            xx.ed.spin_sector.cache_clear()
            sector = xx.ed.spin_sector(L)
            return (sector, *xx.ed._orbits(sector, L // 2 % 2))  # the ground state's k, in units of pi

        def hamiltonian(sector, leaders, orbit, phase):
            return (xx.ed._momentum_hamiltonian(sector, leaders, orbit, phase),)

        def eigensolver(H):
            return [float(xx.ed._lowest_level(H)[0])]

        stages = (basis, hamiltonian, eigensolver)
        given = ()
        for s in stages[:stage]:
            given = s(*given)

        def values(result):
            for s in stages[stage + 1:]:
                result = s(*result)
            return result

        return (lambda: stages[stage](*given)), values

    return prepare


def _g0(xx, L):
    spec = xx.LatticeSpec(L)  # built once, untimed: the layer times g0 alone
    return (lambda: [xx.g0(d, spec) for d in range(1, L, 2)]), np.atleast_1d


def _pair_pass(xx, L):
    xx.ed.ed_ground_state(L)  # cached: the sweep below is the pair pass alone
    return (lambda: xx.ed.ed_correlator_sweep(L, L - 1)), np.atleast_1d


def _gap(xx, L):
    """``prepare`` of the spectral gap at L, solved afresh by every call: the ED caches but
    the sector's are cleared first, as a tree that caches the gap's solve would hit them."""
    xx.ed.spin_sector(L)
    caches = [f for name, f in vars(xx.ed).items() if hasattr(f, "cache_clear") and name != "spin_sector"]

    def run():
        for cache in caches:
            cache.cache_clear()
        return xx.ed.ed_spectral_gap(L)

    return run, np.atleast_1d


def _constant(*names):
    return lambda _: [_ref().constants[name] for name in names]


def _energy_ref(L: int) -> list:
    """The ground energy 2 L G(1) of H = sum_i (s+_i s-_{i+1} + h.c.)."""
    return [2 * L * _sweep_ref(L, 1)[0]]


# ROADMAP aim 1's layers; on a ring (L/2 odd) the log_r_table layer runs to N = L/2 - 1, past L/4
LAYERS = {
    "g0": Layer(
        (1202, 12_002, 120_002),
        _g0,
        lambda L: [_g0_mp(d, L) for d in range(1, L, 2)], 1e-15),
    "log_r_table.inf": Layer(
        (1000, 10_000, 100_000),
        _call(lambda xx, n: xx.log_r_table(n, xx.INFINITE), lambda t: t[1:]),
        lambda n: _log_r_recurrence(None, n)[1:], 1e-15),
    "log_r_table.ring": Layer(
        (2002, 20_002, 200_002),
        _call(lambda xx, L: xx.log_r_table(L // 2 - 1, xx.LatticeSpec(L)), lambda t: t[1:]),
        lambda L: _log_r_recurrence(L, L // 2 - 1)[1:], 1e-14),
    "product.sweep": Layer(
        (1000, 3000, 10_000),
        _call(lambda xx, x: xx.exact.correlator_sweep(x, xx.INFINITE)),
        lambda x: _sweep_ref(None, x), 3e-15),
    # the kernel values the det sweep reads, t(d) = k(2d - 1) for d in (-X/2, X/2)
    "det.kernel": Layer(
        (1024, 2048, 4096),
        _call(lambda xx, X: xx.exact._wick_kernel(np.arange(X - 3, -X, -2), xx.INFINITE)),
        lambda X: [2 * _g0_mp(d, None) for d in range(X - 3, -X, -2)], 1e-15),
    "det.sweep": Layer(
        (1024, 2048, 4096),
        _call(lambda xx, X: xx.exact.correlator_det_sweep(X, xx.INFINITE)),
        lambda X: _sweep_ref(None, X), 1.5e-15),  # 4.7e-16 at X = 4096
    "ed.basis": Layer((10, 14, 18), _ed(0), _energy_ref, 3e-16),
    "ed.hamiltonian": Layer((10, 14, 18), _ed(1), _energy_ref, 3e-16),
    "ed.eigensolver": Layer((10, 14, 18), _ed(2), _energy_ref, 3e-16),
    "ed.pair_pass": Layer((10, 14, 18), _pair_pass, lambda L: _sweep_ref(L, L - 1), 3e-16),
    # ed_spectral_gap, both real momentum sectors solved afresh, against the free-fermion gap
    "ed.gap": Layer((10, 14, 18), _gap, lambda L: [4 * mp.sin(mp.pi / L)], 5e-15),
    "constants.series": Layer((10, 1000, 100_000), _call(lambda xx, N: xx.log_r_series(N)),
                              lambda N: [_log_r_barnes(N)], 1e-15),
    "constants.integral": Layer((None,), _call(lambda xx, _: xx.lukyanov_integral()),
                                _constant("lukyanov_integral"), 5e-16),
    "constants.gamma_product": Layer((1000, 10_000, 100_000),
                                     _call(lambda xx, N: xx.log_r_gamma_product(N)),
                                     lambda N: [_log_r_barnes(N)], 1e-15),
    "constants.fit": Layer(
        (1000, 10_000, 100_000),
        _call(lambda xx, n: xx.amplitude._richardson_limit(xx.log_r_table(n, xx.INFINITE).item, n)),
        _constant("ln_b"), 1e-13),
    # the whole report at three subleading-fit windows [20, x_fit_max] (2000 is the CLI's);
    # sub_coeff_fitted is 1.932e-3 from -C0/(8 sqrt(pi)) at all three, the bias of a
    # one-term x^(-5/2) fit, which the bound sits just above
    "constants.report": Layer(
        (2000, 20_000, 200_000),
        _call(lambda xx, x: xx.amplitude_report(x_fit_max=x), lambda r: [r.sub_coeff_fitted]),
        _constant("sub_coeff"), 2e-3),
    "constants.glaisher": Layer((None,), _call(lambda xx, _: xx.glaisher()),
                                _constant("glaisher_a", "zeta_prime_minus1"), 3e-14),
    # the C0 of the asym column and of finite-size
    "constants.c0": Layer((None,), _call(lambda xx, _: xx.asymptotic_params(), lambda p: [p.c0]),
                          _constant("c0"), 3e-15),
}


def measure(xx, name: str, size) -> dict:
    """Median time and process CPU per call, CPU burnt in an :data:`IDLE_S` sleep after the
    calls, tracemalloc peak and max relerr of layer ``name`` at ``size`` on ``xx``."""
    layer = LAYERS[name]
    try:
        run, values = layer.prepare(xx, size)
        result = run()  # warm-up: lazy imports and first-call allocations stay out
        times, cpu = [], []
        while len(times) < MIN_RUNS or (len(times) < MAX_RUNS and sum(times) < RUN_BUDGET_S):
            t0, c0 = time.perf_counter(), time.process_time()
            run()
            times.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        c0 = time.process_time()
        time.sleep(IDLE_S)
        idle = time.process_time() - c0
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = [float(v) for v in values(result)]
    except (AttributeError, TypeError) as exc:
        return {"size": size, "absent": f"{type(exc).__name__}: {exc}"}
    with mp.workdps(DPS):
        refs = layer.reference(size)
    worst = max(relerr(v, r) for v, r in zip(got, refs, strict=True))
    return {"size": size, "median_s": statistics.median(times), "runs": len(times),
            "cpu_median_s": statistics.median(cpu), "idle_cpu_s": idle,
            "peak_mb": peak / 2**20, "max_relerr": worst}


def side(name: str) -> list[dict]:
    """Layer ``name`` at every size on the xxchain this process imports."""
    import xxchain

    records = [measure(xxchain, name, n) for n in LAYERS[name].sizes]
    print(name, records, file=sys.stderr)
    return records


def run_side(src: Path, name: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(ROOT / "tools"))))
    code = f"import json, bench_layers; print(json.dumps(bench_layers.side({name!r})))"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def run_cli(src: Path, args: list[str]) -> dict:
    """Wall time, CPU time and peak RSS of one xxchain command run from src."""
    spawner = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args, "--out", os.devnull],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{args[0]} failed under {src}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "spawner_rss_mb": spawner}


def xxchain_modules(src: Path, args: list[str]) -> int:
    """How many ``xxchain.*`` modules one xxchain command run from src imports."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", ENTRY, *args, "--out", os.devnull],
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # each line is "import time: self | cumulative | <indent><module>"
    return sum(line.rsplit("|", 1)[-1].strip().startswith("xxchain.")
               for line in done.stderr.splitlines() if line.startswith("import time:"))


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q[2] - q[0]}


def pairs(label: str, sample: Callable, count: int, keys) -> dict:
    """``count`` pairs of ``sample(side, i)``, alternating which side runs first, and per metric
    each side's spread, each pair's change/parent ratio, their median and the change's wins.
    A key missing from a run, such as the times of an absent layer, is not compared."""
    print(label, file=sys.stderr)
    runs = {s: [] for s in SIDES}
    for i in range(count):
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[s].append(sample(s, i))
    metrics = {}
    for key in keys:
        if any(key not in r for s in SIDES for r in runs[s]):
            continue
        p, c = ([r[key] for r in runs[s]] for s in SIDES)
        ratios = [b / a for a, b in zip(p, c)]
        metrics[key] = {"parent": spread(p), "change": spread(c), "ratios": ratios,
                        "median_ratio": statistics.median(ratios),
                        "change_lower": sum(b < a for a, b in zip(p, c)), "pairs": count}
    return {"runs": runs, "metrics": metrics}


def cli_commands() -> dict[str, list[str]]:
    """``--version`` (the set-up sample of bench/run.py), the inf-sweep, ring-det-sweep (at its
    middle length) and ed-oracle commands, the product column to x = L - 1 on a ring, a 10^5-row
    table (the CSV writer's cost), constants, and finite-size at bench/run.py's seed 1 lengths."""
    from run import constants_large_n

    steps = constants_large_n(SimpleNamespace(prepare_single=lambda x, L: None), random.Random(1), 1.0)
    return {"version": ["--version"],
            "inf-sweep": ["correlator", "--L", "inf", "--x-max", "2000", "--routes", "product,asym"],
            "ring-det-sweep": ["correlator", "--L", "1202", "--x-max", "450", "--routes", "det,product"],
            "ed-oracle": ["correlator", "--L", "18", "--x-max", "17", "--routes", "ed,det,product"],
            "ring-last-cell": ["correlator", "--L", "4094", "--x-max", "4093", "--routes", "product"],
            "wide-table": ["correlator", "--L", "inf", "--x-max", "100000", "--routes", "product,asym"],
            "constants": ["constants"],
            "finite-size": list(steps[-1].argv)}


def end_to_end(parent_root: Path, seeds: list[int]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = [m["name"] for m in spec["end_to_end"]]
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        seconds = 10 if workload == "constants-large-n" else 5

        def sample(side_name, i):
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seeds[i]),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=parent_root if side_name == "parent" else ROOT, check=True,
                stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            return {"seed": seeds[i], "failed": result["failed"],
                    **{k: m["value"] for k, m in result["metrics"].items()}}

        out[workload] = {"seconds": seconds, "seeds": seeds,
                         **pairs(workload, sample, len(seeds), keys)}
    return out


def main(out: str, parent_src: str, seeds: list[int]) -> int:
    srcs = {"parent": Path(parent_src).resolve(), "change": ROOT / "src"}
    # read before any side runs: without bytecode every CLI sample compiles the package afresh
    pycache = {s: (srcs[s] / "xxchain" / "__pycache__").is_dir() for s in SIDES}
    cli = {name: {"args": args, "xxchain_modules": {s: xxchain_modules(srcs[s], args) for s in SIDES},
                  **pairs(name, lambda s, i: run_cli(srcs[s], args), CLI_PAIRS, ("wall_s", "cpu_s", "peak_rss_mb"))}
           for name, args in cli_commands().items()}
    layers = {}
    for name, layer in LAYERS.items():  # one process per side, layer and pair
        def sample(s, i):
            return {f"{k}@{r['size']}": v for r in run_side(srcs[s], name) for k, v in r.items() if k != "size"}

        keys = [f"{k}@{size}" for size in layer.sizes for k in LAYER_KEYS]
        layers[name] = {"bound": layer.bound, **pairs(name, sample, LAYER_PAIRS, keys)}
    with open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    doc = {
        "command": f"PYTHONPATH=src python tools/bench_layers.py {Path(out).name} PARENT_SRC"
                   + "".join(f" {s}" for s in seeds),
        "what": "per layer and size, both sides' median time and CPU per call, idle CPU after "
                "the calls, tracemalloc peak and max relerr against bench/reference.py; layer, "
                "CLI and bench/run.py runs in alternating pairs",
        "env": {"python": platform.python_version(), "mpmath": mp.__version__, "nproc": os.cpu_count(),
                "cpu": cpu, "platform": diff_outputs.platform(),
                "dont_write_bytecode": sys.flags.dont_write_bytecode, "pycache": pycache},
        "layers": layers,
        "cli": cli,
    }
    if seeds:
        doc["end_to_end"] = end_to_end(srcs["parent"].parent, seeds)
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], [int(s) for s in sys.argv[3:]]))
