"""Command-line front end: route comparisons, constants report, scaling table.

Exit codes: 0 success, 1 internal numerical failure (exact routes disagree
beyond tolerance, or the constants routes spread too far), 2 usage error,
including an ``--out`` that cannot be written.

Start-up: every command runs on one thread, so this module sets
``OPENBLAS_NUM_THREADS=1`` before numpy first loads, unless the caller has set
it; ``import xxchain`` itself is lazy and loads no numpy.  The pin saves the
CPU that an idle OpenBLAS pool would spin, not wall time.  numpy loads here,
right after the pin: every computing command needs it, and so ``--version``
times the fixed start-up (interpreter, numpy, parser) of every command.

Each command pays only for the routes it runs: a handler imports a module
just before it calls into it.  At import, this module loads ``errors`` alone,
which holds the exceptions and the two size guards the fences read.  Then
``greens`` loads to check ``--L``; ``exact`` for the det and product columns
and ``finite-size``; ``ed`` only for an ``ed`` route; ``amplitude``,
``special`` and ``asymptotics`` for ``asym``, ``constants`` and
``finite-size``; ``tables`` to write the output, and ``json`` only for
``--format json``.  So ``--version`` and ``--help`` exit having loaded
``errors`` alone, and a usage error that a handler fences up front exits
before any route runs or loads (``greens`` aside, whose ``LatticeSpec`` checks
``--L``).  Where no bytecode is cached, each module skipped saves its compile
and import: from 2.3 ms (``greens``) to 8 ms (``ed``) each, and 36 ms for
all of them at ``--version`` (``python -X importtime``, median of 10 runs on
a 2-core VM).

The console script, :func:`entry`, ends the process with ``os._exit`` once
``sys.stdout`` and ``sys.stderr`` are flushed, about 20 ms less per command;
its docstring says why nothing is lost.  :func:`main` keeps the normal exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

# numpy's OpenBLAS starts a worker per core when it loads, and reads the count
# only then.  Every command runs single-threaded, yet on a 2-core VM the idle
# pool spins for about 0.13 s of CPU per process.  A value the caller set wins;
# ``import xxchain`` loads no numpy, so this is the one place that sets it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .errors import MAX_DET_SIZE, MAX_RING_LENGTH, DomainError, SizeError

if TYPE_CHECKING:
    from .greens import LatticeSpec
    from .tables import RouteComparison

KNOWN_ROUTES = ("det", "product", "ed", "asym")
EXACT_ROUTES = ("det", "product", "ed")
# exact routes farther apart than this indicate an internal numerical failure
AGREEMENT_TOL = 1e-8
CONSTANTS_TOL = 1e-6


def _parse_lattice(text: str, parser: argparse.ArgumentParser) -> LatticeSpec:
    from .greens import INFINITE, LatticeSpec

    if text.strip().lower() == "inf":
        return INFINITE
    try:
        L = int(text)
    except ValueError:
        parser.error(f"--L must be an integer or 'inf', got {text!r}")
    try:
        return LatticeSpec.finite(L)
    except DomainError:
        parser.error(f"invalid --L {L}: L must be even and >= 6")


def _write(text: str, out: str | None) -> None:
    # an unbuffered stdout (PYTHONUNBUFFERED) drops the tail of a partial write: loop on its bytes
    if out is None and hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data):]
    elif out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _next_admissible(L: int) -> int:
    return max(L + L % 2, 6)


def _row_values(x_max, lattice, params):
    """The asym column for x = 1..x_max, one scalar asym_* call per x.

    Named for the per-row builder it replaced: the benchmark's trace wraps it
    by name as ``cli.rows``.  Array forms would change printed digits, since
    numpy's sin and power differ from libm in the last ulp on some arguments.
    """
    from .asymptotics import asym_finite, asym_infinite

    if lattice.is_finite:
        return np.array([asym_finite(x, lattice.length, params) for x in range(1, x_max + 1)])
    return np.array([asym_infinite(x, params).leading for x in range(1, x_max + 1)])


def check_exact_agreement(table: RouteComparison) -> list[str]:
    """Exact-route pairs whose relative error exceeds AGREEMENT_TOL, by x, then by pair."""
    pairs = [p for p in table.rel_errs if all(r in EXACT_ROUTES for r in p.split("-"))]
    errs = np.reshape([table.rel_errs[p] for p in pairs], (len(pairs), table.x.size)).T
    # NaN compares false against everything, so test for agreement
    rows, cols = np.nonzero(~(errs <= AGREEMENT_TOL))
    return [f"x={table.x[i]} {pairs[j]} relerr={errs[i, j]:.3e}" for i, j in zip(rows, cols)]


def cmd_correlator(args, parser) -> int:
    lattice = _parse_lattice(args.L, parser)
    routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    for name in routes:
        if name not in KNOWN_ROUTES:
            parser.error(f"unknown route {name!r}; choose from {','.join(KNOWN_ROUTES)}")
    if len(set(routes)) != len(routes):
        parser.error("duplicate route names")
    x_max = args.x_max
    if x_max < 1 or (lattice.is_finite and x_max > lattice.length - 1):
        parser.error(f"--x-max must lie in [1, L-1], got {x_max}")
    if x_max > MAX_RING_LENGTH:
        parser.error(f"--x-max {x_max} exceeds the ring-length guard {MAX_RING_LENGTH}")
    if "det" in routes and x_max > MAX_DET_SIZE:
        parser.error(f"--x-max {x_max} exceeds the det route's guard {MAX_DET_SIZE}")

    warnings = []
    if "ed" in routes:
        from .ed import MAX_ED_LENGTH

        if not lattice.is_finite or lattice.length > MAX_ED_LENGTH:
            routes = [r for r in routes if r != "ed"]
            warnings.append(f"ed route disabled: needs a finite L <= {MAX_ED_LENGTH}")
            print(f"warning: {warnings[-1]}", file=sys.stderr)
    if not routes:
        parser.error("no usable routes left")

    params = None
    columns = {}
    if "asym" in routes:
        from .amplitude import asymptotic_params

        params = asymptotic_params()
    if "det" in routes:
        from .exact import correlator_det_sweep

        columns["det"] = correlator_det_sweep(x_max, lattice)
    if "product" in routes:
        from .exact import correlator_sweep

        columns["product"] = correlator_sweep(x_max, lattice)
    if "ed" in routes:
        from .ed import ed_correlator_sweep

        columns["ed"] = ed_correlator_sweep(lattice.length, x_max)
    if "asym" in routes:
        columns["asym"] = _row_values(x_max, lattice, params)

    from .tables import RouteComparison, base_meta, columns_to_csv, comparison_columns, comparison_to_json

    meta = base_meta(
        __version__,
        command="correlator",
        alpha=(params.alpha if params else None),
        c0=(params.c0 if params else None),
        warnings=warnings,
    )
    values = [columns[name] for name in routes]
    table = RouteComparison(str(lattice), routes, np.arange(1, x_max + 1), values, meta)
    _write(
        columns_to_csv(*comparison_columns(table)) if args.format == "csv" else comparison_to_json(table),
        args.out,
    )

    bad = check_exact_agreement(table)
    if bad:
        print("numerical failure: exact routes disagree: " + "; ".join(bad), file=sys.stderr)
        return 1
    return 0


def cmd_constants(args, parser) -> int:
    # a flag left out is None, and amplitude's default once that loads: the fence judges what was given
    for flag, value in (("--n-fit", args.n_fit), ("--x-fit-max", args.x_fit_max)):
        if value is None:
            continue
        if value < 1000:
            parser.error(f"{flag} must be >= 1000, got {value}")
        if value > MAX_RING_LENGTH:
            parser.error(f"{flag} {value} exceeds the ring-length guard {MAX_RING_LENGTH}")
    if args.n_fit is not None and args.n_fit % 2:
        parser.error(f"--n-fit must be even, got {args.n_fit}")

    from .amplitude import N_FIT, X_FIT_MAX, amplitude_report
    from .tables import base_meta, columns_to_csv, doc_to_json

    n_fit = N_FIT if args.n_fit is None else args.n_fit
    x_fit_max = X_FIT_MAX if args.x_fit_max is None else args.x_fit_max
    report = amplitude_report(n_fit=n_fit, x_fit_max=x_fit_max)
    values = report.as_dict()
    meta = base_meta(__version__, command="constants", n_fit=n_fit, x_fit_max=x_fit_max)
    if args.format == "csv":
        _write(columns_to_csv(["name", "value"], [list(values), list(values.values())]), args.out)
    else:
        _write(doc_to_json(meta, constants=values), args.out)
    print(f"pairwise_max_dev = {report.pairwise_max_dev:.3e} (tolerance {CONSTANTS_TOL:.0e})",
          file=sys.stderr)
    return 0 if report.pairwise_max_dev <= CONSTANTS_TOL else 1


def cmd_finite_size(args, parser) -> int:
    try:
        requested = [int(part) for part in args.L_list.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--L-list must be comma-separated integers, got {args.L_list!r}")
    if not requested:
        parser.error("--L-list is empty")
    if min(requested) < 1:
        parser.error(f"--L-list entries must be >= 1, got {min(requested)}")
    if not 0.0 < args.x_frac < 1.0:
        parser.error(f"--x-frac must lie strictly inside (0, 1), got {args.x_frac}")

    lengths = [_next_admissible(L_req) for L_req in requested]
    if max(lengths) > MAX_RING_LENGTH:
        parser.error(f"--L-list entry {max(lengths)} exceeds the ring-length guard {MAX_RING_LENGTH}")
    distances = [min(max(int(round(args.x_frac * L)), 1), L - 1) for L in lengths]

    from .amplitude import asymptotic_params
    from .asymptotics import asym_finite
    from .exact import correlator
    from .greens import LatticeSpec
    from .tables import base_meta, columns_to_csv, doc_to_json

    params = asymptotic_params()
    adjustments = [f"{L_req}->{L}" for L_req, L in zip(requested, lengths) if L != L_req]
    columns = {
        "L": lengths,
        "exact": [correlator(x, LatticeSpec.finite(L)).value for L, x in zip(lengths, distances)],
        "asym_finite": [asym_finite(x, L, params) for L, x in zip(lengths, distances)],
    }
    columns["deviation_times_L"] = [(exact / asym - 1.0) * L for L, exact, asym in zip(*columns.values())]
    meta = base_meta(
        __version__,
        command="finite-size",
        x_frac=args.x_frac,
        c0=params.c0,
        alpha=params.alpha,
        adjusted=adjustments,
    )
    if adjustments:
        print("note: adjusted to even lengths >= 6: " + ", ".join(adjustments), file=sys.stderr)
    if args.format == "csv":
        _write(columns_to_csv(list(columns), list(columns.values())), args.out)
    else:
        _write(doc_to_json(meta, rows=[dict(zip(columns, row)) for row in zip(*columns.values())]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxchain",
        description="XX-chain correlators by independent routes, and their asymptotic constants.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlator", help="compare correlator routes over x = 1..x-max")
    p.add_argument("--L", required=True, help="ring length (even, >= 6), or 'inf'")
    p.add_argument("--x-max", type=int, required=True)
    p.add_argument("--routes", default="det,product", help=f"comma list from {','.join(KNOWN_ROUTES)}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=cmd_correlator, subparser=p)

    p = sub.add_parser("constants", help="compute the constants report")
    p.add_argument("--n-fit", type=int)
    p.add_argument("--x-fit-max", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_constants, subparser=p)

    p = sub.add_parser("finite-size", help="deviation from the finite-ring form at fixed x/L")
    p.add_argument("--L-list", required=True, help="comma-separated ring lengths")
    p.add_argument("--x-frac", type=float, default=0.5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_finite_size, subparser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # usage errors name the subcommand, as argparse's own do
    parser = args.subparser
    if args.out is not None:
        # an existing target (such as /dev/null) is judged by itself, a new non-empty one by its directory
        if os.path.exists(args.out):
            writable = not os.path.isdir(args.out) and os.access(args.out, os.W_OK)
        else:
            folder = os.path.dirname(args.out) or "."
            writable = args.out != "" and os.path.isdir(folder) and os.access(folder, os.W_OK)
        if not writable:
            parser.error(f"--out {args.out!r} is not a writable file path")
    try:
        return args.handler(args, parser)
    except (DomainError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script: run :func:`main`, flush the two streams and end with ``os._exit``.

    The fast exit skips interpreter finalization: the final cyclic GC over the
    objects numpy and the package made at import, module teardown and ``atexit``
    handlers, about 20 ms per process.  That is safe because every byte the
    command prints goes through ``sys.stdout`` or ``sys.stderr``, flushed here, or
    to an ``--out`` file that :func:`_write` has already closed, and because the
    package registers no ``atexit`` handler and starts no thread.  The code is
    that of ``main()`` or of argparse's ``SystemExit`` (``--help``, ``--version``,
    usage errors).  Any other exception, a ``SystemExit`` whose code is not an int
    or None, and a flush that raises take the normal exit, tracebacks and all, as
    :func:`main` does for in-process callers.
    """
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):  # a closed pipe or stream: the normal exit reports it
        sys.exit(code)
    os._exit(code or 0)


if __name__ == "__main__":
    entry()
