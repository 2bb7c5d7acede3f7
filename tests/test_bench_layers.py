"""Smoke test of tools/bench_layers.py: every layer at its smallest size, in process."""

import json
import os
import subprocess
import sys

import bench_layers
import diff_outputs
import xxchain


def test_every_layer_at_its_smallest_size(monkeypatch):
    monkeypatch.setattr(bench_layers, "IDLE_S", 0)  # the idle check is the eigensolver test's, below
    for name, layer in bench_layers.LAYERS.items():
        record = bench_layers.measure(xxchain, name, layer.sizes[0])
        assert "absent" not in record, (name, record)
        assert record["median_s"] > 0 and record["peak_mb"] > 0, (name, record)
        assert record["cpu_median_s"] > 0 and record["idle_cpu_s"] >= 0, (name, record)
        assert record["max_relerr"] <= layer.bound, (name, record)


def test_ed_eigensolver_leaves_no_thread_spinning():
    # a dense eigh of a 26- to 47-square T woke a BLAS thread that burnt about
    # 0.1 s of CPU in the sleep after the L = 18 solves
    record = bench_layers.measure(xxchain, "ed.eigensolver", 18)
    assert record["idle_cpu_s"] <= 0.02, record


def test_ed_gap_leaves_no_thread_spinning():
    # the full-sector gap's reorthogonalisation over 48,620 states ran on two
    # OpenBLAS threads, which burnt 0.133 s of CPU in the sleep after the
    # L = 18 calls; the momentum sectors' 2,704 states stay on one
    record = bench_layers.measure(xxchain, "ed.gap", 18)
    assert record["idle_cpu_s"] <= 0.02, record


def test_pairs_compare_only_keys_every_run_has():
    # an absent layer has no times on one side: its keys are left out, not a KeyError
    def sample(side, i):
        return {"t": 2.0 if side == "change" else 1.0, **({"u": 1.0} if side == "parent" else {})}

    got = bench_layers.pairs("test", sample, 3, ("t", "u"))
    assert list(got["metrics"]) == ["t"]
    assert got["metrics"]["t"]["ratios"] == [2.0, 2.0, 2.0]
    assert len(got["runs"]["parent"]) == len(got["runs"]["change"]) == 3


def test_main_records_the_out_name_and_the_bytecode_state(monkeypatch, tmp_path):
    # no layer, command or seed: main writes the header alone; an absolute OUT path would go into a
    # committed BENCH file
    monkeypatch.setattr(bench_layers, "LAYERS", {})
    monkeypatch.setattr(bench_layers, "cli_commands", dict)
    (tmp_path / "parent" / "xxchain" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "BENCH_0.json"
    assert bench_layers.main(str(out), str(tmp_path / "parent"), []) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "PYTHONPATH=src python tools/bench_layers.py BENCH_0.json PARENT_SRC"
    assert doc["env"]["dont_write_bytecode"] == sys.flags.dont_write_bytecode
    assert doc["env"]["platform"] == json.loads(json.dumps(diff_outputs.platform()))
    change = (bench_layers.ROOT / "src" / "xxchain" / "__pycache__").is_dir()
    assert doc["env"]["pycache"] == {"parent": True, "change": change}


def test_import_leaves_openblas_threads_alone():
    # importing xxchain.cli sets OPENBLAS_NUM_THREADS=1, which the layer children would inherit: it
    # would hide the BLAS threads left spinning that the ed.gap idle check looks for
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(str(bench_layers.ROOT / d) for d in ("src", "tools"))
    code = "import os, bench_layers; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "None\n"
