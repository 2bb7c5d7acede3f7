"""Smoke test of the benchmark's trace mode on a small correlator command."""

import json
import os
import subprocess
import sys

import xxchain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_cli_records_table_spans(tmp_path):
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spans_path = tmp_path / "SPANS.json"
    argv = [sys.executable, os.path.join(ROOT, "bench", "trace_cli.py"), str(spans_path),
            "correlator", "--L", "10", "--x-max", "9", "--routes", "ed,det,product,asym"]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans_path.read_text())
    recorded = {doc["names"][span[1]] for span in doc["spans"]}
    assert {"cli.rows", "tables.build"} <= recorded
