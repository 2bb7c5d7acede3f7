import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xxchain
from diff_outputs import GOLDEN, GOLDEN_DIR, STDERR
from refs import code_of, names, ran
from xxchain import amplitude, cli, ed, errors, exact
from xxchain.cli import check_exact_agreement, main
from xxchain.exact import correlator_sweep
from xxchain.greens import LatticeSpec
from xxchain.tables import RouteComparison, comparison_from_csv

# what a usage error may run: the command line's parse path, LatticeSpec and the guards in errors
PARSE = code_of({cli.main, cli.build_parser, cli._parse_lattice, cli._next_admissible, cli.cmd_correlator,
                 cli.cmd_constants, cli.cmd_finite_size, LatticeSpec.__post_init__, LatticeSpec.finite,
                 LatticeSpec.is_finite.fget, errors.check_int, errors.check_ring_length})


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_row(values):
    """A table at x = 1 with one value per route, routes in dict order."""
    return RouteComparison(
        lattice="inf", routes=list(values), x=np.array([1]), values=[np.array([v]) for v in values.values()]
    )


def test_correlator_product_vs_ed(capsys):
    code, out, _ = run(
        ["correlator", "--L", "10", "--x-max", "9", "--routes", "product,ed", "--format", "csv"],
        capsys,
    )
    assert code == 0
    table = comparison_from_csv(out)
    assert len(table.x) == 9
    assert table.rel_errs["product-ed"].max() <= 1e-10


def test_det_route_runs_on_a_ring_past_int64(capsys):
    code, out, err = run(["correlator", "--L", str(2**63 + 2), "--x-max", "5", "--routes", "det,product"], capsys)
    assert (code, err) == (0, "")
    assert comparison_from_csv(out).rel_errs["det-product"].max() <= 1e-15


def test_correlator_rejects_bad_length(capsys):
    for L in ("7", "4"):
        code, _, err = run(["correlator", "--L", L, "--x-max", "3"], capsys)
        assert code == 2
        assert "L must be even and >= 6" in err


def test_correlator_x_max_validation(capsys):
    code, _, _ = run(["correlator", "--L", "10", "--x-max", "10"], capsys)
    assert code == 2
    code, _, _ = run(["correlator", "--L", "10", "--x-max", "0"], capsys)
    assert code == 2


def test_correlator_unknown_route(capsys):
    code, _, _ = run(["correlator", "--L", "10", "--x-max", "3", "--routes", "magic"], capsys)
    assert code == 2


def test_asym_relerr_decays_like_x_squared(capsys):
    code, out, _ = run(
        ["correlator", "--L", "inf", "--x-max", "50", "--routes", "product,asym"],
        capsys,
    )
    assert code == 0
    table = comparison_from_csv(out)
    errs = dict(zip(table.x.tolist(), table.rel_errs["product-asym"].tolist()))
    # even-x relative error ~ (1/8) x^-2: quartering when x doubles
    for x in (10, 20):
        ratio = errs[x] / errs[2 * x]
        assert 3.0 < ratio < 5.0


def test_ed_auto_disabled_warning(capsys):
    code, out, err = run(
        ["correlator", "--L", "inf", "--x-max", "4", "--routes", "product,ed", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert "disabled" in err
    doc = json.loads(out)
    assert doc["meta"]["routes"] == ["product"]
    assert doc["meta"]["warnings"]


def test_ed_auto_disabled_beyond_max_length(capsys):
    code, out, err = run(
        ["correlator", "--L", "22", "--x-max", "3", "--routes", "ed,det", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert "disabled" in err
    assert out.splitlines()[0] == "x,route:det"


def test_json_output_schema(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, _, _ = run(
        ["correlator", "--L", "14", "--x-max", "5", "--routes", "det,product",
         "--format", "json", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["meta"]["tool_version"]
    assert doc["meta"]["generated_at"]
    assert len(doc["rows"]) == 5


def test_exact_agreement_gate_trips_on_corrupt_table():
    assert check_exact_agreement(one_row({"det": -0.318, "product": -0.317}))
    assert not check_exact_agreement(one_row({"product": -0.318, "asym": -0.317}))  # asym pairs are never gated


def test_exact_agreement_messages_by_x_then_pair():
    table = RouteComparison(
        lattice="inf",
        routes=["det", "product", "ed"],
        x=np.array([2, 1]),
        values=[np.array([0.2, -0.318]), np.array([0.2, -0.317]), np.array([0.2000002, math.nan])],
    )
    assert check_exact_agreement(table) == [
        "x=1 det-product relerr=3.145e-03",
        "x=1 det-ed relerr=nan",
        "x=1 product-ed relerr=nan",
        "x=2 det-ed relerr=1.000e-06",
        "x=2 product-ed relerr=1.000e-06",
    ]


def test_disagreeing_exact_routes_write_the_table_and_exit_1(capsys, monkeypatch):
    sweep = exact.correlator_det_sweep
    monkeypatch.setattr(exact, "correlator_det_sweep", lambda *args: sweep(*args) * (1 + 1e-6))
    code, out, err = run(["correlator", "--L", "10", "--x-max", "3", "--routes", "det,product"], capsys)
    assert code == 1
    assert comparison_from_csv(out).x.tolist() == [1, 2, 3]
    assert err.startswith("numerical failure: exact routes disagree: x=1 det-product relerr=1.000e-06; ")


@pytest.mark.parametrize("error", ["SizeError", "DomainError"])
def test_domain_and_size_errors_exit_2(capsys, monkeypatch, error):
    def fail(*args):
        raise getattr(xxchain, error)("raised inside the sweep")

    monkeypatch.setattr(exact, "correlator_sweep", fail)
    code, out, err = run(["correlator", "--L", "10", "--x-max", "3", "--routes", "product"], capsys)
    assert code == 2
    assert err == "error: raised inside the sweep\n"
    assert out == ""


# the command line's guard map: argv, {tmp} a fresh empty directory, and the message after the command's prefix
@pytest.mark.parametrize("argv, message", [
    (["correlator", "--L", "abc", "--x-max", "3"], "--L must be an integer or 'inf', got 'abc'"),
    (["correlator", "--L", "10", "--x-max", "3", "--routes", "det,det"], "duplicate route names"),
    (["correlator", "--L", "inf", "--x-max", "3", "--routes", "ed"], "no usable routes left"),
    (["finite-size", "--L-list", ","], "--L-list is empty"),
    (["correlator", "--L", "10", "--x-max", "10"], "--x-max must lie in [1, L-1], got 10"),
    (["constants", "--n-fit", "100"], "--n-fit must be >= 1000, got 100"),
    (["finite-size", "--L-list", "10", "--x-frac", "2"], "--x-frac must lie strictly inside (0, 1), got 2.0"),
    (["finite-size", "--L-list", "10", "--out", "."], "--out '.' is not a writable file path"),
    (["constants", "--n-fit", "1001"], "--n-fit must be even, got 1001"),
    (["constants", "--out", ""], "--out '' is not a writable file path"),
    (["correlator", "--L", "7", "--x-max", "3"], "invalid --L 7: L must be even and >= 6"),
    (["correlator", "--L", "4", "--x-max", "3"], "invalid --L 4: L must be even and >= 6"),
    (["correlator", "--L", "10", "--x-max", "abc"], "argument --x-max: invalid int value: 'abc'"),
    (["correlator", "--L", "10", "--x-max", "3", "--routes", "magic"],
     "unknown route 'magic'; choose from det,product,ed,asym"),
    (["correlator", "--L", "10", "--x-max", "0"], "--x-max must lie in [1, L-1], got 0"),
    (["correlator", "--L", "inf", "--x-max", "10000001", "--routes", "product,asym"],
     "--x-max 10000001 exceeds the ring-length guard 10000000"),
    (["correlator", "--L", "10000002", "--x-max", "10000001", "--routes", "product,asym"],
     "--x-max 10000001 exceeds the ring-length guard 10000000"),
    (["correlator", "--L", "inf", "--x-max", "4097", "--routes", "det"],
     "--x-max 4097 exceeds the det route's guard 4096"),
    (["correlator", "--L", "10", "--x-max", "9", "--out", "{tmp}/missing/t.csv"],
     "--out '{tmp}/missing/t.csv' is not a writable file path"),
    (["correlator", "--L", "10", "--x-max", "9", "--out", "{tmp}"], "--out '{tmp}' is not a writable file path"),
    (["constants", "--x-fit-max", "10"], "--x-fit-max must be >= 1000, got 10"),
    (["constants", "--n-fit", "10000001"], "--n-fit 10000001 exceeds the ring-length guard 10000000"),
    (["constants", "--x-fit-max", "10000001"], "--x-fit-max 10000001 exceeds the ring-length guard 10000000"),
    (["constants", "--out", "{tmp}/missing/t.csv"], "--out '{tmp}/missing/t.csv' is not a writable file path"),
    (["constants", "--out", "{tmp}"], "--out '{tmp}' is not a writable file path"),
    (["finite-size", "--L-list", "a,b"], "--L-list must be comma-separated integers, got 'a,b'"),
    (["finite-size", "--L-list", "62,0,-3"], "--L-list entries must be >= 1, got -3"),
    (["finite-size", "--L-list", "258,1000000000"], "--L-list entry 1000000000 exceeds the ring-length guard 10000000"),
    (["finite-size", "--L-list", "258", "--x-frac", "0"], "--x-frac must lie strictly inside (0, 1), got 0.0"),
    (["finite-size", "--L-list", "258", "--x-frac", "1"], "--x-frac must lie strictly inside (0, 1), got 1.0"),
    (["finite-size", "--L-list", "258", "--x-frac", "1.5"], "--x-frac must lie strictly inside (0, 1), got 1.5"),
    (["finite-size", "--L-list", "258", "--out", "{tmp}/missing/t.csv"],
     "--out '{tmp}/missing/t.csv' is not a writable file path"),
    (["finite-size", "--L-list", "258", "--out", "{tmp}"], "--out '{tmp}' is not a writable file path"),
])
def test_usage_errors_exit_2_with_their_message(capsys, tmp_path, argv, message):
    # a command's own checks speak as argparse's do: the subcommand's usage, then its prefix; and they run
    # before any route code, from cold caches
    argv, message = [arg.format(tmp=tmp_path) for arg in argv], message.format(tmp=tmp_path)
    outcome = []
    codes = ran(lambda: outcome.append(run(argv, capsys)))
    code, out, err = outcome[0]
    assert code == 2
    assert f"usage: xxchain {argv[0]} [-h]" in err
    assert err.splitlines()[-1] == f"xxchain {argv[0]}: error: {message}"
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    assert names(codes - PARSE) == []


def test_exact_agreement_gate_trips_on_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        for other in (-0.318, 0.0):
            for values in ({"det": bad, "product": other}, {"det": other, "product": bad}):
                assert check_exact_agreement(one_row(values)), values


def test_existing_writable_out_accepted(capsys, tmp_path):
    # /dev/null sits in a directory only root may write to; the file itself is judged
    existing = tmp_path / "t.csv"
    existing.write_text("old\n")
    for target in (os.devnull, existing):
        code, out, err = run(["correlator", "--L", "10", "--x-max", "9", "--out", str(target)], capsys)
        assert code == 0, err
        assert out == ""
    assert existing.read_text().startswith("x,route:")


def test_csv_and_json_cells_agree(capsys):
    argv = ["correlator", "--L", "14", "--x-max", "13", "--routes", "ed,det,product,asym", "--format"]
    code, csv_out, _ = run(argv + ["csv"], capsys)
    assert code == 0
    code, json_out, _ = run(argv + ["json"], capsys)
    assert code == 0
    header, *lines = csv_out.splitlines()
    names = header.split(",")
    rows = json.loads(json_out)["rows"]
    assert len(lines) == len(rows) == 13
    assert len(names) == 1 + 4 + 6
    for line, row in zip(lines, rows):
        cells = line.split(",")
        assert int(cells[0]) == row["x"]
        for name, cell in zip(names[1:], cells[1:]):
            kind, key = name.split(":")
            value = row["values" if kind == "route" else "relerr"][key]
            assert float(cell).hex() == value.hex(), (row["x"], name)


@pytest.mark.parametrize(
    "argv",
    [["constants"], ["finite-size", "--L-list", "62,1202,100002"]],
    ids=["constants", "finite-size"],
)
def test_csv_round_trip_is_bit_exact(capsys, argv):
    """Every CSV cell parses back to the JSON document's value, bit for bit."""
    code, csv_out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    code, json_out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert "\r" not in csv_out and csv_out.endswith("\n")
    header, *lines = csv_out.splitlines()
    doc = json.loads(json_out)
    rows = doc["rows"] if "rows" in doc else [{"name": k, "value": v} for k, v in doc["constants"].items()]
    assert header.split(",") == list(rows[0])
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        for cell, value in zip(line.split(","), row.values(), strict=True):
            if isinstance(value, float):
                assert float(cell).hex() == value.hex(), (row, cell)
            else:
                assert cell == str(value), (row, cell)


@pytest.mark.parametrize(
    "argv, body, meta, row",
    [
        (["correlator", "--L", "10", "--x-max", "3", "--routes", "det,asym"], "rows",
         ["command", "alpha", "c0", "warnings", "lattice", "routes"], ["x", "values", "relerr"]),
        (["constants"], "constants", ["command", "n_fit", "x_fit_max"], None),
        (["finite-size", "--L-list", "62"], "rows",
         ["command", "x_frac", "c0", "alpha", "adjusted"], ["L", "exact", "asym_finite", "deviation_times_L"]),
    ],
    ids=["correlator", "constants", "finite-size"],
)
def test_json_envelope_keys(capsys, argv, body, meta, row):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert out.startswith('{\n  "schema_version": 1,\n  "meta": {\n') and out.endswith("}\n")
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "meta", body]
    assert list(doc["meta"]) == ["generated_at", "tool_version", *meta]
    if row is not None:
        assert all(list(r) == row for r in doc[body])


def test_constants_flag_validation(capsys):
    code, _, _ = run(["constants", "--n-fit", "100"], capsys)
    assert code == 2
    code, _, _ = run(["constants", "--x-fit-max", "10"], capsys)
    assert code == 2


def test_constants_even_n_fit_runs(capsys):
    code, out, _ = run(["constants", "--n-fit", "1002", "--x-fit-max", "1000", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["n_fit"] == 1002


def test_constants_default_run(capsys):
    code, out, err = run(["constants", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    consts = doc["constants"]
    # the flags' defaults are amplitude's own
    assert (doc["meta"]["n_fit"], doc["meta"]["x_fit_max"]) == (amplitude.N_FIT, amplitude.X_FIT_MAX)
    assert f"{consts['amplitude_half']:.6f}" == "0.147088"
    assert f"{consts['glaisher_a']:.6f}" == "1.282427"
    assert consts["pairwise_max_dev"] <= 1e-6
    assert "pairwise_max_dev" in err  # printed prominently


def test_every_command_prints_the_constants_c0(capsys):
    code, out, _ = run(["constants", "--format", "json"], capsys)
    assert code == 0
    c0 = json.loads(out)["constants"]["c0"]
    for argv in (["correlator", "--L", "inf", "--x-max", "5", "--routes", "product,asym"],
                 ["finite-size", "--L-list", "1202"]):
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["c0"] == c0, argv[0]


def test_finite_size_adjusts_lengths(capsys):
    code, out, err = run(
        ["finite-size", "--L-list", "1,5,256,512", "--x-frac", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["L"] for row in doc["rows"]] == [6, 6, 256, 512]
    assert doc["meta"]["adjusted"] == ["1->6", "5->6"]
    assert "adjusted" in err


def test_finite_size_single_row(capsys):
    code, out, _ = run(["finite-size", "--L-list", "258"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "L,exact,asym_finite,deviation_times_L"
    assert len(lines) == 2


def test_finite_size_x_frac_validation(capsys):
    for frac in ("0", "1", "1.5"):
        code, _, _ = run(["finite-size", "--L-list", "258", "--x-frac", frac], capsys)
        assert code == 2


def test_finite_size_bad_list(capsys):
    code, _, _ = run(["finite-size", "--L-list", "a,b"], capsys)
    assert code == 2


@pytest.mark.parametrize("lengths, smallest", [("0", 0), ("-5", -5), ("62,0,-3", -3), ("-1000000000", -10**9)])
def test_finite_size_non_positive_length_fenced_up_front(capsys, monkeypatch, lengths, smallest):
    def no_work(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(exact, "correlator", no_work)
    code, out, err = run(["finite-size", "--L-list", lengths], capsys)
    assert code == 2
    assert "usage: xxchain finite-size [-h]" in err
    assert err.splitlines()[-1] == f"xxchain finite-size: error: --L-list entries must be >= 1, got {smallest}"
    assert out == ""


def _no_det_route(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the product column reached the det route")

    for name in ("correlator_det_sweep", "correlator_det", "_wick_kernel"):
        monkeypatch.setattr(exact, name, forbidden)


def test_product_last_cell_past_det_guard_needs_no_fence(capsys, monkeypatch):
    # x = L-1 above the det guard is a sine-product cell like any other: no fence, no warning
    _no_det_route(monkeypatch)
    argv = ["correlator", "--L", "8194", "--x-max", "8193", "--routes", "product", "--format", "json"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["meta"]["warnings"] == []
    product = [row["values"]["product"] for row in doc["rows"]]
    assert len(product) == 8193
    assert abs(product[-1] / product[0] - 1) <= 1e-15


def test_finite_size_last_cell_past_det_guard_is_the_product(capsys, monkeypatch):
    # --x-frac 0.99999 puts L = 10002 at x = L-1, past the det guard: the row is the sine product's
    _no_det_route(monkeypatch)
    argv = ["finite-size", "--L-list", "102,10002", "--x-frac", "0.99999", "--format", "json"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["meta"].get("warnings", []) == []
    assert [row["L"] for row in doc["rows"]] == [102, 10002]
    assert doc["rows"][1]["exact"] == correlator_sweep(10001, LatticeSpec(10002))[-1]


def test_finite_size_exact_cell_is_the_correlator_cell(capsys):
    # x = round(0.2134 * 4002) = 854, one of the cells a shorter table used to round differently
    code, out, _ = run(["finite-size", "--L-list", "4002", "--x-frac", "0.2134"], capsys)
    assert code == 0
    header, row = out.splitlines()
    exact_cell = row.split(",")[header.split(",").index("exact")]
    code, out, _ = run(["correlator", "--L", "4002", "--x-max", "4001", "--routes", "product"], capsys)
    assert code == 0
    assert float(exact_cell) == comparison_from_csv(out).values[0][853]


def test_finite_size_last_cell_below_det_guard_runs(capsys):
    code, out, _ = run(["finite-size", "--L-list", "102", "--x-frac", "0.99999", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["L"] == 102


def test_product_last_cell_raises_no_warning(capsys):
    # nothing to report: x = L-1 is as much the sine product's as x = L-2
    argv = ["correlator", "--L", "10", "--routes", "product", "--format", "json", "--x-max"]
    for x_max in (9, 8):
        code, out, err = run(argv + [str(x_max)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["warnings"] == []
        assert err == ""
        product = [row["values"]["product"] for row in doc["rows"]]
        assert product == correlator_sweep(x_max, LatticeSpec(10)).tolist()


def _fresh(probe, blas_threads=None, argv=(), stdout=subprocess.PIPE, text=True):
    """Run ``probe`` with ``argv`` in a fresh interpreter on this ``src``, with OPENBLAS_NUM_THREADS
    set to ``blas_threads`` or unset (importing ``xxchain.cli`` here has set it in this process), and
    with stdout block-buffered, as a shell pipe has it, even where the caller sets PYTHONUNBUFFERED."""
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("PYTHONUNBUFFERED", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-c", probe, *argv], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=text)


def test_import_leaves_scipy_unloaded():
    # and numpy, and os.environ as it was: the package namespace is lazy
    probe = ("import os, sys; env = dict(os.environ); import xxchain; "
             "print(*sorted({'scipy', 'numpy'} & set(sys.modules)), os.environ == env)")
    done = _fresh(probe)
    assert done.stdout.split() == ["True"], done.stdout + done.stderr


@pytest.mark.parametrize("caller", [None, "2"])
def test_cli_pins_one_blas_thread_unless_the_caller_sets_one(caller):
    # read from the loaded OpenBLAS itself; it caps the count at the cores this process may use
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    probe = (f"import sys; from xxchain.cli import main; sys.path.insert(0, {bench!r}); "
             "from run import _blas_threads; print(_blas_threads())")
    done = _fresh(probe, caller)
    assert done.returncode == 0, done.stderr
    if done.stdout.split() == ["None"]:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count getter")
    expected = 1 if caller is None else min(int(caller), len(os.sched_getaffinity(0)))
    assert done.stdout.split() == [str(expected)]


def _assert_exits_without(argv, modules=(), code=0):
    """Run ``main(argv)`` in a fresh interpreter: it must end with ``code``, returned or raised as
    ``SystemExit`` (as ``--version`` and usage errors do), and leave ``modules`` unimported, and scipy,
    a test dependency."""
    probe = ("import contextlib, io, sys; from xxchain.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    try:\n        code = main({argv!r})\n"
             "    except SystemExit as exc:\n        code = exc.code\n"
             f"print(code, *sorted({{'scipy', *{modules!r}}} & set(sys.modules)))")
    done = _fresh(probe)
    assert done.stdout.split() == [str(code)], done.stdout + done.stderr


# every module a command loads only once a handler is past its checks
_LATE = tuple(f"xxchain.{name}" for name in xxchain._SUBMODULES if name not in ("cli", "errors", "greens"))


@pytest.mark.parametrize("argv, modules, code", [
    (["--version"], ("xxchain.greens", *_LATE, "json"), 0),
    # --L is LatticeSpec's to check, so greens loads; the det guard's fence comes before any route
    (["correlator", "--L", "inf", "--x-max", "4097", "--routes", "det"], (*_LATE, "json"), 2),
    (["correlator", "--L", "1202", "--x-max", "450", "--routes", "det,product", "--out", os.devnull],
     ("xxchain.ed", "xxchain.amplitude", "xxchain.special", "xxchain.asymptotics", "json"), 0),
    (["constants", "--out", os.devnull], ("xxchain.ed", "json"), 0),
    (["finite-size", "--L-list", "62,1202", "--out", os.devnull], ("xxchain.ed", "json"), 0),
    # and numpy.random: the start vector of the Lanczos is an integer hash
    (["correlator", "--L", "18", "--x-max", "17", "--routes", "ed,det,product", "--out", os.devnull],
     ("numpy.random", "xxchain.amplitude", "xxchain.special", "xxchain.asymptotics", "json"), 0),
], ids=["version", "usage-error", "det-product", "constants", "finite-size", "ed-oracle"])
def test_each_command_loads_only_the_modules_its_routes_run(argv, modules, code):
    _assert_exits_without(argv, modules, code)


def test_det_and_product_columns_leave_scipy_unloaded(tmp_path):
    _assert_exits_without(["correlator", "--L", "1202", "--x-max", "450", "--routes", "det,product",
                           "--out", str(tmp_path / "table.csv")])


def test_constants_leaves_scipy_unloaded(tmp_path):
    _assert_exits_without(["constants", "--out", str(tmp_path / "constants.csv")])


def test_even_m_rings_and_the_gap_leave_scipy_unloaded():
    # the gap, an M-even solve and an M-even sweep run on numpy alone
    probe = ("import sys; from xxchain import ed; ed.ed_spectral_gap(10); "
             "ed.ed_ground_state(8); ed.ed_correlator_sweep(12, 11); "
             "print('done', *sorted({'scipy'} & set(sys.modules)))")
    done = _fresh(probe)
    assert done.stdout.split() == ["done"], done.stdout + done.stderr


def test_ed_column_is_the_sweep(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("per-x ED was called")

    monkeypatch.setattr(ed, "ed_correlator", no_work)
    monkeypatch.setattr(ed, "ed_correlator_by_site", no_work)
    code, out, _ = run(["correlator", "--L", "14", "--x-max", "13", "--routes", "ed,det"], capsys)
    assert code == 0
    table = comparison_from_csv(out)
    assert table.x.tolist() == list(range(1, 14))
    assert table.rel_errs["ed-det"].max() <= 1e-12


def test_det_and_product_columns_share_one_det_sweep(capsys, monkeypatch):
    # the det sweep runs once, for the det column; the product column's x = L-1 cell is its own
    calls = []
    sweep = exact.correlator_det_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(exact, "correlator_det_sweep", counted)
    code, out, _ = run(["correlator", "--L", "62", "--x-max", "61", "--routes", "det,product"], capsys)
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    table = comparison_from_csv(out)
    det, product = table.values
    assert det.tolist() == sweep(61, LatticeSpec(62)).tolist()
    assert product.tolist() == correlator_sweep(61, LatticeSpec(62)).tolist()
    assert table.rel_errs["det-product"][-1] <= 1e-15


# the console script and bench/run.py run this; it ends the process with os._exit
ENTRY = "from xxchain.cli import entry; entry()"
# main() under the interpreter's normal exit, which entry() skips
NORMAL_EXIT = "import sys; from xxchain.cli import main; sys.exit(main())"
SWEEP = ["correlator", "--L", "10", "--x-max", "3", "--routes", "product"]


def _raising(error):
    """A probe's first lines: the product sweep raises ``error``."""
    return f"from xxchain import errors, exact\ndef fail(*args):\n    raise {error}\nexact.correlator_sweep = fail\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_console_script_prints_each_golden(name):
    done = _fresh(ENTRY, argv=GOLDEN[name], text=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN_DIR / name).read_bytes()
    assert done.stderr.decode() == json.loads(STDERR.read_text())[name]


@pytest.mark.parametrize("prelude, argv, code", [
    ("", ["--version"], 0),
    ("", ["--help"], 0),
    ("", ["correlator", "--L", "7", "--x-max", "3"], 2),
    (_raising("errors.DomainError('raised inside the sweep')"), SWEEP, 2),
    (_raising("errors.SizeError('raised inside the sweep')"), SWEEP, 2),
    ("from xxchain import exact\nsweep = exact.correlator_det_sweep\n"
     "exact.correlator_det_sweep = lambda *args: sweep(*args) * (1 + 1e-6)\n",
     ["correlator", "--L", "10", "--x-max", "3", "--routes", "det,product"], 1),
    (_raising("SystemExit('a code that is not an int')"), SWEEP, 1),
], ids=["version", "help", "usage-error", "domain-error", "size-error", "routes-disagree", "str-exit"])
def test_console_script_exits_as_main_does(prelude, argv, code):
    fast, normal = (_fresh(prelude + probe, argv=argv, text=False) for probe in (ENTRY, NORMAL_EXIT))
    assert fast.returncode == normal.returncode == code
    assert (fast.stdout, fast.stderr) == (normal.stdout, normal.stderr)


def test_console_script_leaves_other_exceptions_to_the_interpreter():
    fast, normal = (_fresh(_raising("RuntimeError('raised inside the sweep')") + probe, argv=SWEEP)
                    for probe in (ENTRY, NORMAL_EXIT))
    assert fast.returncode == normal.returncode == 1
    assert fast.stdout == normal.stdout == ""
    for done in (fast, normal):
        assert done.stderr.startswith("Traceback (most recent call last):\n")
        assert done.stderr.endswith("\nRuntimeError: raised inside the sweep\n")
    assert ", in entry\n" in fast.stderr


def test_console_script_leaves_a_failed_flush_to_the_interpreter():
    # a pipe whose reader has gone: the flush raises, and the interpreter reports it and exits 120
    reader, writer = os.pipe()
    os.close(reader)
    try:
        fast, normal = (_fresh(probe, argv=["--version"], stdout=writer) for probe in (ENTRY, NORMAL_EXIT))
    finally:
        os.close(writer)
    assert fast.returncode == normal.returncode == 120
    assert fast.stderr == normal.stderr
    assert "BrokenPipeError" in fast.stderr


def test_console_script_writes_the_wide_table_whole(capsys, tmp_path):
    # 10^5 rows, 7.4 MB, to a pipe and to --out: the exit loses no byte of either (a write this
    # large passes the stdout buffer; the goldens' tables are the ones that wait in it for the flush)
    argv = ["correlator", "--L", "inf", "--x-max", "100000", "--routes", "product,asym"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    piped = _fresh(ENTRY, argv=argv, text=False)
    written = _fresh(ENTRY, argv=[*argv, "--out", str(tmp_path / "wide.csv")], text=False)
    assert (piped.returncode, written.returncode) == (0, 0)
    digests = {hashlib.sha256(data).hexdigest() for data in (out.encode(), piped.stdout,
                                                              (tmp_path / "wide.csv").read_bytes())}
    assert len(digests) == 1


def test_unbuffered_stdout_cut_pipe_exits_1():
    # under PYTHONUNBUFFERED a partial write to the pipe used to lose its tail silently: exit 0 and
    # a cut table; the reader closes mid-write, since 5,000 rows overrun the 64 KiB pipe buffer
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    argv = ["correlator", "--L", "inf", "--x-max", "5000", "--routes", "product,asym"]
    with subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "BrokenPipeError" in err
