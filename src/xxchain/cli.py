"""Command-line front end: route comparisons, constants report, scaling table.

Exit codes: 0 success, 1 internal numerical failure (exact routes disagree
beyond tolerance, or the constants routes spread too far), 2 usage error,
including an ``--out`` that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .amplitude import amplitude_report, asymptotic_params
from .asymptotics import asym_finite, asym_infinite
from .ed import MAX_ED_LENGTH, ed_correlator_sweep
from .errors import DomainError, SizeError
from .exact import MAX_DET_SIZE, MAX_RING_LENGTH, correlator, correlator_det_sweep, correlator_sweep
from .greens import INFINITE, LatticeSpec
from .tables import (
    RouteComparison,
    base_meta,
    comparison_to_csv,
    comparison_to_json,
    constants_to_csv,
    constants_to_json,
    scaling_to_csv,
    scaling_to_json,
)

KNOWN_ROUTES = ("det", "product", "ed", "asym")
EXACT_ROUTES = ("det", "product", "ed")
# exact routes farther apart than this indicate an internal numerical failure
AGREEMENT_TOL = 1e-8
CONSTANTS_TOL = 1e-6


def _parse_lattice(text: str, parser: argparse.ArgumentParser) -> LatticeSpec:
    if text.strip().lower() == "inf":
        return INFINITE
    try:
        L = int(text)
    except ValueError:
        parser.error(f"--L must be an integer or 'inf', got {text!r}")
    try:
        return LatticeSpec.finite(L)
    except DomainError:
        parser.error(f"invalid --L {L}: L must satisfy L/2 odd (and L >= 6)")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _next_admissible(L: int) -> int:
    L = max(L, 6)
    return L + (2 - L) % 4


def _row_values(x_max, lattice, params):
    """The asym column for x = 1..x_max, one scalar asym_* call per x.

    Named for the per-row builder it replaced: the benchmark's trace wraps it
    by name as ``cli.rows``.  Array forms would change printed digits, since
    numpy's sin and power differ from libm in the last ulp on some arguments.
    """
    if lattice.is_finite:
        return np.array([asym_finite(x, lattice.length, params) for x in range(1, x_max + 1)])
    return np.array([asym_infinite(x, params).leading for x in range(1, x_max + 1)])


def check_exact_agreement(table: RouteComparison, tol: float = AGREEMENT_TOL) -> list[str]:
    """Exact-route pairs whose relative error exceeds tol, by x, then by pair."""
    pairs = [p for p in table.rel_errs if all(r in EXACT_ROUTES for r in p.split("-"))]
    errs = np.reshape([table.rel_errs[p] for p in pairs], (len(pairs), table.x.size)).T
    # NaN compares false against everything, so test for agreement
    rows, cols = np.nonzero(~(errs <= tol))
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
    # the sine product stops at x = L-2; the product cell at x = L-1 is a Wick determinant
    fallback = "product" in routes and lattice.is_finite and x_max == lattice.length - 1
    if fallback and x_max > MAX_DET_SIZE:
        parser.error(f"--x-max {x_max} = L-1 needs a Wick determinant above its guard {MAX_DET_SIZE}")

    warnings = []
    if "ed" in routes and (not lattice.is_finite or lattice.length > MAX_ED_LENGTH):
        routes = [r for r in routes if r != "ed"]
        warnings.append(f"ed route disabled: needs a finite L <= {MAX_ED_LENGTH}")
        print(f"warning: {warnings[-1]}", file=sys.stderr)
    if not routes:
        parser.error("no usable routes left")
    if fallback:
        warnings.append(f"product at x={x_max} is the det route: the sine product stops at x = L-2")
        print(f"warning: {warnings[-1]}", file=sys.stderr)

    params = asymptotic_params() if "asym" in routes else None
    columns = {}
    if "det" in routes:
        columns["det"] = correlator_det_sweep(x_max, lattice)
    if "product" in routes:
        columns["product"] = correlator_sweep(x_max, lattice)
    if "ed" in routes:
        columns["ed"] = ed_correlator_sweep(lattice.length, x_max)
    if "asym" in routes:
        columns["asym"] = _row_values(x_max, lattice, params)

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
        comparison_to_csv(table) if args.format == "csv" else comparison_to_json(table),
        args.out,
    )

    bad = check_exact_agreement(table)
    if bad:
        print("numerical failure: exact routes disagree: " + "; ".join(bad), file=sys.stderr)
        return 1
    return 0


def cmd_constants(args, parser) -> int:
    for flag, value in (("--n-fit", args.n_fit), ("--x-fit-max", args.x_fit_max)):
        if value < 1000:
            parser.error(f"{flag} must be >= 1000, got {value}")
        if value > MAX_RING_LENGTH:
            parser.error(f"{flag} {value} exceeds the ring-length guard {MAX_RING_LENGTH}")
    report = amplitude_report(n_fit=args.n_fit, x_fit_max=args.x_fit_max)
    values = report.as_dict()
    meta = base_meta(__version__, command="constants", n_fit=args.n_fit, x_fit_max=args.x_fit_max)
    _write(
        constants_to_csv(values) if args.format == "csv" else constants_to_json(values, meta),
        args.out,
    )
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
    if not 0.0 < args.x_frac < 1.0:
        parser.error(f"--x-frac must lie strictly inside (0, 1), got {args.x_frac}")

    lengths = [_next_admissible(L_req) for L_req in requested]
    if max(lengths) > MAX_RING_LENGTH:
        parser.error(f"--L-list entry {max(lengths)} exceeds the ring-length guard {MAX_RING_LENGTH}")
    distances = [min(max(int(round(args.x_frac * L)), 1), L - 1) for L in lengths]
    for L, x in zip(lengths, distances):
        # x = L-1 is a Wick determinant, as in the correlator command
        if x == L - 1 > MAX_DET_SIZE:
            parser.error(f"--x-frac {args.x_frac} puts L={L} at x = L-1 = {x}, "
                         f"above the det guard {MAX_DET_SIZE}")

    params = asymptotic_params()
    adjustments = [f"{L_req}->{L}" for L_req, L in zip(requested, lengths) if L != L_req]
    rows = []
    for L, x in zip(lengths, distances):
        lattice = LatticeSpec.finite(L)
        exact = correlator(x, lattice).value
        asym = asym_finite(x, L, params)
        rows.append(
            {
                "L": L,
                "exact": exact,
                "asym_finite": asym,
                "deviation_times_L": (exact / asym - 1.0) * L,
            }
        )
    meta = base_meta(
        __version__,
        command="finite-size",
        x_frac=args.x_frac,
        c0=params.c0,
        alpha=params.alpha,
        adjusted=adjustments,
    )
    if adjustments:
        print("note: adjusted to L/2-odd lengths: " + ", ".join(adjustments), file=sys.stderr)
    _write(
        scaling_to_csv(rows) if args.format == "csv" else scaling_to_json(rows, meta),
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxchain",
        description="XX-chain correlators by independent routes, and their asymptotic constants.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlator", help="compare correlator routes over x = 1..x-max")
    p.add_argument("--L", required=True, help="ring length (L/2 odd), or 'inf'")
    p.add_argument("--x-max", type=int, required=True)
    p.add_argument("--routes", default="det,product", help=f"comma list from {','.join(KNOWN_ROUTES)}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("constants", help="compute the constants report")
    p.add_argument("--n-fit", type=int, default=10000)
    p.add_argument("--x-fit-max", type=int, default=2000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("finite-size", help="deviation from the finite-ring form at fixed x/L")
    p.add_argument("--L-list", required=True, help="comma-separated ring lengths")
    p.add_argument("--x-frac", type=float, default=0.5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is not None:
        # an existing target (such as /dev/null) is judged by itself, a new one by its directory
        if os.path.exists(args.out):
            writable = not os.path.isdir(args.out) and os.access(args.out, os.W_OK)
        else:
            folder = os.path.dirname(args.out) or "."
            writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
        if not writable:
            parser.error(f"--out {args.out!r} is not a writable file path")
    try:
        if args.command == "correlator":
            return cmd_correlator(args, parser)
        if args.command == "constants":
            return cmd_constants(args, parser)
        return cmd_finite_size(args, parser)
    except (DomainError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
