import json
import math

import numpy as np

from xxchain.tables import (
    RouteComparison,
    columns_to_csv,
    comparison_columns,
    comparison_from_csv,
    comparison_to_json,
    doc_to_json,
    fmt,
    rel_err,
)


def make_table():
    return RouteComparison(
        lattice="inf",
        routes=["det", "product"],
        x=np.array([2, 1]),
        values=[
            np.array([0.2026423672846756, -1.0 / 3.0]),
            np.array([0.2026423672846756, -0.3333333333333333]),
        ],
    )


def test_rows_sorted_and_rel_errs_filled():
    table = make_table()
    assert table.x.tolist() == [1, 2]
    assert table.values[0].tolist() == [-1.0 / 3.0, 0.2026423672846756]
    assert list(table.rel_errs) == ["det-product"]
    assert table.rel_errs["det-product"].shape == (2,)
    assert table.rel_errs["det-product"][1] == 0.0


def test_rel_err_definition():
    assert rel_err(2.0, 1.0) == 0.5
    assert rel_err(-1.0, 1.0) == 2.0
    assert rel_err(0.0, 0.0) == 0.0
    # max(0.0, nan) is 0.0 in Python: a NaN operand must not read as agreement
    assert math.isnan(rel_err(0.0, math.nan))
    assert math.isnan(rel_err(math.nan, 0.0))
    # one call per column: 0/0, NaN against 0 both ways, and ordinary values
    got = rel_err(np.array([0.0, 0.0, math.nan, 2.0, -1.0, 1.0]), np.array([0.0, math.nan, 0.0, 1.0, 1.0, 1.0]))
    assert got.shape == (6,)
    assert got[0] == 0.0
    assert np.isnan(got[1]) and np.isnan(got[2])
    assert got[3:].tolist() == [0.5, 2.0, 0.0]


def test_rel_err_columns_match_the_scalar_definition():
    def scalar(a, b):  # the per-cell Python form, which every column cell must reproduce
        diff = abs(a - b)
        return diff if diff == 0.0 or math.isnan(diff) else diff / max(abs(a), abs(b))

    pool = [0.0, -0.0, 5e-324, 1e-300, -0.318, -0.317, 1.0 / 3.0, 0.2026423672846756, math.inf, -math.inf, math.nan]
    a, b = zip(*[(p, q) for p in pool for q in pool])
    got = rel_err(np.array(a), np.array(b)).tolist()
    assert [v.hex() for v in got] == [scalar(p, q).hex() for p, q in zip(a, b)]


def test_csv_header_and_endings():
    text = columns_to_csv(*comparison_columns(make_table()))
    lines = text.split("\n")
    assert lines[0] == "x,route:det,route:product,relerr:det-product"
    assert "\r" not in text
    assert text.endswith("\n")


def test_csv_round_trip_is_bit_exact():
    base = make_table()
    # a third route off the other two, so that the relerr cells read back are not all 0
    asym = np.array([-0.318, 0.21])
    table = RouteComparison("inf", base.routes + ["asym"], base.x, base.values + [asym])
    assert np.all(table.rel_errs["det-asym"] > 0) and np.all(table.rel_errs["product-asym"] > 0)
    parsed = comparison_from_csv(columns_to_csv(*comparison_columns(table)))
    assert parsed.routes == table.routes
    assert parsed.x.tolist() == table.x.tolist()
    # exact float equality via 17 digits
    assert [col.tolist() for col in parsed.values] == [col.tolist() for col in table.values]
    assert {k: v.tolist() for k, v in parsed.rel_errs.items()} == {
        k: v.tolist() for k, v in table.rel_errs.items()
    }


def test_seventeen_digit_format():
    v = 0.1234567890123456789
    assert float(fmt(v)) == v
    assert float(fmt(-1.0 / 3.0)) == -1.0 / 3.0


def test_json_schema():
    table = make_table()
    doc = json.loads(comparison_to_json(table))
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "meta", "rows"}
    assert doc["meta"]["lattice"] == "inf"
    assert doc["rows"][0]["x"] == 1


def test_constants_csv_shape():
    text = columns_to_csv(["name", "value"], [["c0", "glaisher_a"], [0.5214139726738470, 1.2824271291006226]])
    lines = text.strip().split("\n")
    assert lines[0] == "name,value"
    assert lines[1].startswith("c0,")
    assert float(lines[1].split(",")[1]) == 0.5214139726738470


def test_columns_to_csv_renders_each_column_by_its_type():
    # ints and strs verbatim (10**17 would print 1e+17 through fmt), floats in 17 digits
    # (2.0 would print 2.0 through str), from numpy arrays and from lists alike
    text = columns_to_csv(
        ["n", "name", "value", "L", "v"],
        [np.array([1, 10**17]), ["c0", "b_c"], np.array([0.1, -1.0 / 3.0]), [258, 1202], [2.0, math.nan]],
    )
    assert text == (
        "n,name,value,L,v\n"
        "1,c0,0.10000000000000001,258,2\n"
        "100000000000000000,b_c,-0.33333333333333331,1202,nan\n"
    )


def test_columns_to_csv_has_lf_endings_only():
    text = columns_to_csv(["x", "y"], [np.arange(1, 4), np.array([0.5, 5e-324, -math.inf])])
    assert text.split("\n") == ["x,y", "1,0.5", "2,4.9406564584124654e-324", "3,-inf", ""]
    assert "\r" not in text
    assert columns_to_csv(["x"], [np.array([], dtype=int)]) == "x\n"


def test_doc_to_json_envelope():
    text = doc_to_json({"tool_version": "t"}, rows=[1.5], extra={"a": 1})
    assert list(json.loads(text)) == ["schema_version", "meta", "rows", "extra"]
    assert text.startswith('{\n  "schema_version": 1,\n  "meta": {\n    "tool_version": "t"\n  },')
    assert text.endswith("}\n") and "\r" not in text
