import json
import math

from xxchain.tables import (
    ComparisonRow,
    RouteComparison,
    comparison_from_csv,
    comparison_to_csv,
    comparison_to_json,
    constants_to_csv,
    fmt,
    rel_err,
)


def make_table():
    rows = [
        ComparisonRow(x=2, values={"det": 0.2026423672846756, "product": 0.2026423672846756}),
        ComparisonRow(x=1, values={"det": -1.0 / 3.0, "product": -0.3333333333333333}),
    ]
    return RouteComparison(lattice="inf", routes=["det", "product"], rows=rows)


def test_rows_sorted_and_rel_errs_filled():
    table = make_table()
    assert [r.x for r in table.rows] == [1, 2]
    assert "det-product" in table.rows[0].rel_errs
    assert table.rows[1].rel_errs["det-product"] == 0.0


def test_rel_err_definition():
    assert rel_err(2.0, 1.0) == 0.5
    assert rel_err(-1.0, 1.0) == 2.0
    assert rel_err(0.0, 0.0) == 0.0
    # max(0.0, nan) is 0.0 in Python: a NaN operand must not read as agreement
    assert math.isnan(rel_err(0.0, math.nan))
    assert math.isnan(rel_err(math.nan, 0.0))


def test_csv_header_and_endings():
    text = comparison_to_csv(make_table())
    lines = text.split("\n")
    assert lines[0] == "x,route:det,route:product,relerr:det-product"
    assert "\r" not in text
    assert text.endswith("\n")


def test_csv_round_trip_is_bit_exact():
    table = make_table()
    parsed = comparison_from_csv(comparison_to_csv(table))
    assert parsed.routes == table.routes
    for a, b in zip(parsed.rows, table.rows):
        assert a.x == b.x
        assert a.values == b.values  # exact float equality via 17 digits
        assert a.rel_errs == b.rel_errs


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
    text = constants_to_csv({"c0": 0.5214139726738470, "glaisher_a": 1.2824271291006226})
    lines = text.strip().split("\n")
    assert lines[0] == "name,value"
    assert lines[1].startswith("c0,")
    assert float(lines[1].split(",")[1]) == 0.5214139726738470
