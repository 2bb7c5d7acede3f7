import json
import math
import os
import subprocess
import sys

import numpy as np

import xxchain
from xxchain import cli, ed
from xxchain.cli import _next_admissible, check_exact_agreement, main
from xxchain.exact import MAX_DET_SIZE, MAX_RING_LENGTH
from xxchain.tables import RouteComparison, comparison_from_csv


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


def test_correlator_rejects_bad_length(capsys):
    code, _, err = run(["correlator", "--L", "7", "--x-max", "3"], capsys)
    assert code == 2
    assert "L/2 odd" in err
    code, _, err = run(["correlator", "--L", "8", "--x-max", "3"], capsys)
    assert code == 2


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


def test_exact_agreement_gate_trips_on_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        for other in (-0.318, 0.0):
            for values in ({"det": bad, "product": other}, {"det": other, "product": bad}):
                assert check_exact_agreement(one_row(values)), values


def test_unwritable_out_rejected_up_front(capsys, monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("correlator_sweep", "correlator_det_sweep", "ed_correlator_sweep", "asymptotic_params",
                 "amplitude_report", "correlator"):
        monkeypatch.setattr(cli, name, no_work)
    commands = (["correlator", "--L", "10", "--x-max", "9"], ["constants"], ["finite-size", "--L-list", "258"])
    for target in (tmp_path / "missing" / "t.csv", tmp_path):
        for argv in commands:
            code, out, err = run(argv + ["--out", str(target)], capsys)
            assert code == 2
            assert "error:" in err and "--out" in err
            assert out == ""
    assert list(tmp_path.iterdir()) == []


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


def test_constants_flag_validation(capsys):
    code, _, _ = run(["constants", "--n-fit", "100"], capsys)
    assert code == 2
    code, _, _ = run(["constants", "--x-fit-max", "10"], capsys)
    assert code == 2


def test_constants_sizes_fenced_up_front(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "amplitude_report", no_work)
    for flag in ("--n-fit", "--x-fit-max"):
        code, out, err = run(["constants", flag, str(MAX_RING_LENGTH + 1)], capsys)
        assert code == 2
        assert flag in err and str(MAX_RING_LENGTH) in err
        assert out == ""


def test_constants_default_run(capsys):
    code, out, err = run(["constants", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    consts = doc["constants"]
    assert f"{consts['amplitude_half']:.6f}" == "0.147088"
    assert f"{consts['glaisher_a']:.6f}" == "1.282427"
    assert consts["pairwise_max_dev"] <= 1e-6
    assert "pairwise_max_dev" in err  # printed prominently


def test_finite_size_adjusts_lengths(capsys):
    code, out, err = run(
        ["finite-size", "--L-list", "256,512", "--x-frac", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["L"] for row in doc["rows"]] == [258, 514]
    assert doc["meta"]["adjusted"] == ["256->258", "512->514"]
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


def test_finite_size_length_fenced_up_front(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "correlator", no_work)
    monkeypatch.setattr(cli, "asymptotic_params", no_work)
    code, out, err = run(["finite-size", "--L-list", "258,1000000000"], capsys)
    assert code == 2
    assert str(MAX_RING_LENGTH) in err
    assert out == ""


def test_finite_size_huge_negative_length_adjusts_at_once(capsys):
    code, out, _ = run(["finite-size", "--L-list", "-1000000000", "--format", "json"], capsys)
    assert code == 0
    assert [row["L"] for row in json.loads(out)["rows"]] == [6]


def test_correlator_det_x_max_fenced_up_front(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "correlator_det_sweep", no_work)
    code, out, err = run(["correlator", "--L", "inf", "--x-max", "4097", "--routes", "det"], capsys)
    assert code == 2
    assert "4096" in err
    assert out == ""


def test_correlator_x_max_fenced_up_front(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a column was computed")

    for name in ("correlator_sweep", "correlator_det_sweep", "ed_correlator_sweep", "asymptotic_params"):
        monkeypatch.setattr(cli, name, no_work)
    for L in ("inf", str(_next_admissible(MAX_RING_LENGTH + 2))):
        argv = ["correlator", "--L", L, "--x-max", str(MAX_RING_LENGTH + 1), "--routes", "product,asym"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert str(MAX_RING_LENGTH) in err
        assert out == ""


def test_product_det_fallback_fenced_up_front(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a column was computed")

    for name in ("correlator_sweep", "correlator_det_sweep", "asymptotic_params"):
        monkeypatch.setattr(cli, name, no_work)
    argv = ["correlator", "--L", "8194", "--x-max", "8193", "--routes", "product"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert str(MAX_DET_SIZE) in err
    assert "warning" not in err
    assert out == ""


def test_finite_size_det_fallback_fenced_up_front(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "correlator", no_work)
    monkeypatch.setattr(cli, "asymptotic_params", no_work)
    code, out, err = run(["finite-size", "--L-list", "102,10002", "--x-frac", "0.99999"], capsys)
    assert code == 2
    assert "L=10002" in err and str(MAX_DET_SIZE) in err
    assert out == ""


def test_finite_size_det_fallback_below_guard_runs(capsys):
    code, out, _ = run(["finite-size", "--L-list", "102", "--x-frac", "0.99999", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["L"] == 102


def test_product_det_fallback_is_reported(capsys):
    argv = ["correlator", "--L", "10", "--routes", "product", "--format", "json", "--x-max"]
    code, out, err = run(argv + ["9"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert any("x=9" in w and "det" in w for w in doc["meta"]["warnings"])
    assert "x=9" in err
    assert isinstance(doc["rows"][-1]["values"]["product"], float)
    code, out, err = run(argv + ["8"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["warnings"] == []
    assert err == ""


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, xxchain; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_det_and_product_columns_leave_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["correlator", "--L", "1202", "--x-max", "450", "--routes", "det,product",
            "--out", str(tmp_path / "table.csv")]
    probe = f"import sys; from xxchain.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_constants_leaves_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["constants", "--out", str(tmp_path / "constants.csv")]
    probe = f"import sys; from xxchain.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "False"], done.stderr


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
