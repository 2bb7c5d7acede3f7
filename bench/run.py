"""End-to-end and per-layer benchmark of the xxchain command line.

Usage (from the repository root)::

    python3 bench/run.py --workload inf-sweep --seed 1 --seconds 20 --trace 0

The loop is closed: one caller runs one CLI command at a time, each as a
subprocess of this interpreter with ``src`` on PYTHONPATH, and starts the
next only after the previous one has exited.  Thread-count variables are
left as the user's environment has them.  Every number a command prints is
checked against ``reference.py``, which never calls xxchain.

``--trace 0`` repeats the workload, each time after one ``xxchain --version``
(the set-up sample), until ``--seconds`` have passed, and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the workload once
untraced and then traced (``trace_cli.py``) at full, half and quarter size,
and reports the per-layer metrics.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries provenance and the raw sample statistics.

Wall times (``wall_s``, ``setup_s``, ``trace.*wall_s``) are measured from
spawn to exit, less the CPU time the hypervisor gave to other guests in that
interval (steal, summed over the machine's CPUs).  On a shared 2-CPU host
steal comes in episodes of minutes that added up to a quarter to the CLI's
wall time; it is not time the program needed, and ``cpu_s`` leaves it out
too.  The raw wall times are kept in the details line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import layers
from reference import (
    CheckFailed,
    Reference,
    ReferenceFailed,
    check_constants,
    check_correlator,
    check_finite_size,
    check_version,
    finite_size_x,
)

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "from xxchain.cli import entry; entry()"
TRACE_CLI = str(Path(__file__).resolve().parent / "trace_cli.py")
# every run ends well inside the 180 s a run may take
TIME_LIMIT_S = 165.0
# the traced run repeats the workload at these fractions of its size, so
# that the scaling of each layer shows
SIZES = (("", 1.0), ("half.", 0.5), ("quarter.", 0.25))
IMPORT_RUNS = 3


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[str], float]  # returns the max relerr of the exact numbers


def _admissible(L: float) -> int:
    """Nearest ring length with L/2 odd."""
    return 4 * round((L - 2) / 4) + 2


def correlator_step(ref: Reference, L: int | None, x_max: int, routes: tuple[str, ...]) -> Invocation:
    ref.prepare_sweep(L, x_max)
    argv = ("correlator", "--L", "inf" if L is None else str(L), "--x-max", str(x_max),
            "--routes", ",".join(routes))
    return Invocation(argv, lambda text: check_correlator(text, ref, L, x_max, routes))


def inf_sweep(ref: Reference, rng: random.Random, frac: float) -> list[Invocation]:
    # product layer over many small N (O(X^2) today), no det, no ED; x <= 2000
    # keeps a sample near 2 s, so that a 30 s run holds about ten of them
    return [correlator_step(ref, None, int(2000 * frac), ("product", "asym"))]


def ring_det_sweep(ref: Reference, rng: random.Random, frac: float) -> list[Invocation]:
    # per-x dense LU and the g0 kernel build; L only moves the digits; x <= 450
    # keeps a sample near 2 s, so that a 30 s run holds about ten of them
    L = rng.randrange(1102, 1303, 4)
    return [correlator_step(ref, L, int(450 * frac), ("det", "product"))]


def ed_oracle(ref: Reference, rng: random.Random, frac: float) -> list[Invocation]:
    # L = 18 is the largest ring the ED guard allows, so the seed has no length
    # to choose; the full size includes x = L-1, where product falls back to det
    return [correlator_step(ref, 18, int(17 * frac), ("ed", "det", "product"))]


def constants_large_n(ref: Reference, rng: random.Random, frac: float) -> list[Invocation]:
    # a few R_N at N ~ 1e5: the lengths vary, their sum (the work) does not
    weights = [rng.uniform(0.7, 1.3) for _ in range(rng.choice((4, 5, 6)))]
    lengths = [_admissible(frac * 2.4e6 * w / sum(weights)) for w in weights]
    for L in lengths:
        ref.prepare_single(finite_size_x(L), L)
    return [
        Invocation(("constants",), lambda text: check_constants(text, ref)),
        Invocation(("finite-size", "--L-list", ",".join(map(str, lengths))),
                   lambda text: check_finite_size(text, ref, lengths)),
    ]


WORKLOADS = {
    "inf-sweep": inf_sweep,
    "ring-det-sweep": ring_det_sweep,
    "ed-oracle": ed_oracle,
    "constants-large-n": constants_large_n,
}
VERSION = Invocation(("--version",), check_version)


# ---------------------------------------------------------------- running


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    stolen: float  # CPU seconds the hypervisor gave to other guests meanwhile
    code: int
    stdout: str
    stderr: str

    @property
    def wall_net(self) -> float:
        """Wall time less steal: what the run took on the CPUs it was given."""
        return self.wall - self.stolen


def _stolen_s() -> float:
    """Steal time of this machine so far, summed over its CPUs (0 where not reported)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Runner:
    """Runs CLI commands one at a time and tallies the checked ones."""

    tmp: Path
    deadline: float
    env: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    max_relerr: float = 0.0
    failures: list = field(default_factory=list)

    def run(self, cmd: list[str]) -> Result:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            stolen = _stolen_s()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            stolen = _stolen_s() - stolen
        return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stolen,
                      proc.returncode, out_path.read_text(), err_path.read_text())

    def checked(self, inv: Invocation, cmd: list[str] | None = None) -> Result:
        res = self.run(cmd or [sys.executable, "-c", ENTRY, *inv.argv])
        self.attempted += 1
        try:
            if res.code != 0:
                raise CheckFailed(f"exit code {res.code}: {res.stderr.strip()[-300:]}")
            self.max_relerr = max(self.max_relerr, inv.check(res.stdout))
        except CheckFailed as exc:
            self.max_relerr = max(self.max_relerr, exc.relerr or 0.0)
            self.failed += 1
            self.failures.append(f"xxchain {' '.join(inv.argv)}: {exc}")
        return res


def _until(seconds: float, step: Callable[[], None]) -> None:
    """Repeat step while the next repetition is expected to end within seconds."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def digits(relerr: float) -> float:
    """Correct decimal digits of the worst exact number, -log10 of its relative error.

    The error itself moves by tens of percent between admissible ring
    lengths, so a bound on it would not hold; its logarithm is steady.
    Errors below 1e-17 count as exact.
    """
    return -math.log10(max(relerr, 1e-17))


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail": None, "values": values}
    p = math.floor(100 * (n - 10) / n)
    if p >= 50:
        rank = math.ceil(p * n / 100)
        out["tail"] = {"percentile": p, "value": sorted(values)[rank - 1]}
    return out


def measure(runner: Runner, steps: list[Invocation], seconds: float) -> tuple[dict, dict]:
    names = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
    samples = {name: [] for name in names}
    raw = {"wall_s": [], "setup_s": []}

    def step():
        version = runner.checked(VERSION)
        results = [runner.checked(inv) for inv in steps]
        samples["wall_s"].append(sum(r.wall_net for r in results))
        samples["cpu_s"].append(sum(r.cpu for r in results))
        samples["peak_rss_mb"].append(max(r.rss_mb for r in results))
        samples["setup_s"].append(version.wall_net)
        raw["wall_s"].append(sum(r.wall for r in results))
        raw["setup_s"].append(version.wall)

    _until(seconds, step)
    stats = {name: summary(samples[name]) for name in names}
    for name, values in raw.items():
        stats[name]["raw_wall"] = values
    metrics = {name: stat["median"] for name, stat in stats.items()}
    metrics["min_digits"] = digits(runner.max_relerr)
    metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
    return metrics, stats


def traced(runner: Runner, steps: list[Invocation]) -> tuple[float, dict[str, float]]:
    """Wall time and per-layer metrics of one traced pass over steps."""
    wall, parts = 0.0, []
    spans_path = runner.tmp / "spans.json"
    for inv in steps:
        spans_path.unlink(missing_ok=True)
        res = runner.checked(inv, [sys.executable, TRACE_CLI, str(spans_path), *inv.argv])
        wall += res.wall_net
        parts.append(layers.span_metrics(json.loads(spans_path.read_text())))
    return wall, layers.merge(parts)


def trace(runner: Runner, plans: dict[str, list[Invocation]], seconds: float) -> dict:
    cycles = []

    def cycle():
        out = {}
        imports = []
        for _ in range(IMPORT_RUNS):
            res = runner.checked(VERSION, [sys.executable, "-X", "importtime", "-c", ENTRY, "--version"])
            imports.append(layers.import_times(res.stderr))
        out.update({k: statistics.median(d[k] for d in imports) for k in imports[0]})
        plain = sum(runner.checked(inv).wall_net for inv in plans[""])
        for prefix, _ in SIZES:
            wall, metrics = traced(runner, plans[prefix])
            metrics["trace.wall_s"] = wall
            out.update({prefix + k: v for k, v in metrics.items()})
        out["trace.overhead_s"] = out["trace.wall_s"] - plain
        cycles.append(out)

    _until(seconds, cycle)
    return {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}


# ---------------------------------------------------------------- provenance


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exports a getter."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": _blas_threads()},
    }


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # turn SIGTERM into SystemExit, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    if not (ROOT / "src" / "xxchain" / "cli.py").is_file():
        print(f"error: no xxchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        ref = Reference()
        make = WORKLOADS[args.workload]
        sizes = SIZES if args.trace else SIZES[:1]
        plans = {prefix: make(ref, random.Random(args.seed), frac) for prefix, frac in sizes}
    except ReferenceFailed as exc:
        print(f"error: reference failed its spot check: {exc}", file=sys.stderr)
        return 3
    bench_setup_s = time.perf_counter() - start

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runner = Runner(tmp=tmp, deadline=start + TIME_LIMIT_S, env=env)
    try:
        runner.checked(VERSION)  # warm-up: byte-compile and fill the file cache
        if args.trace:
            values, stats = trace(runner, plans, args.seconds), {}
        else:
            values, stats = measure(runner, plans[""], args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        # a function that no longer exists is called 0 times and takes 0 s
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:<14.6g} {m['unit']}")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "workload": args.workload,
        "inputs": [list(inv.argv) for inv in plans[""]],
        "provenance": provenance(args.seed),
        "bench_setup_s": bench_setup_s,
        "max_relerr": runner.max_relerr,
        "samples": stats,
        "failures": runner.failures,
    }))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
