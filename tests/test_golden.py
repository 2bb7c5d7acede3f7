"""Printed bytes of the commands of diff_outputs.GOLDEN, stdout and stderr, against tests/golden/.

Every printed number comes from one code path whatever numpy's SIMD dispatch
level or OpenBLAS's kernel: the product column's exp and the subleading fit
run in long double, on libm.  ``PYTHONPATH=src python tools/diff_outputs.py
--write-golden`` rewrites the goldens, with ``platform.json``: a mismatch on
another platform is a difference to report.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diff_outputs import GOLDEN, GOLDEN_DIR, ROOT, moves, platform
from xxchain import amplitude, ed, exact

RECORDED = json.loads((GOLDEN_DIR / "platform.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_printed_bytes_equal_the_golden(name):
    moved = moves(name)
    assert not moved, f"goldens made on {RECORDED}, run on {platform()}:\n" + "\n".join(moved[:12])


def _nudge_cell(column):
    out = column.copy()
    out[7] = np.nextafter(out[7], np.inf)
    return out


NUDGES = {
    "correlator_L18_ed_det_product.csv": (ed, "ed_correlator_sweep", _nudge_cell),
    "correlator_Linf_product_asym.csv": (exact, "correlator_sweep", _nudge_cell),
    "constants.csv": (amplitude, "amplitude_report", lambda report: dataclasses.replace(
        report, sub_coeff_fitted=float(np.nextafter(report.sub_coeff_fitted, np.inf)))),
}


@pytest.mark.parametrize("name", sorted(NUDGES))
def test_a_one_ulp_move_shows(monkeypatch, name):
    module, function, nudge = NUDGES[name]
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args, **kwargs: nudge(original(*args, **kwargs)))
    assert any(line.endswith("(+1 ulp)") for line in moves(name)), moves(name)


@pytest.mark.parametrize("cap", ["avx2", "baseline"])
def test_golden_bytes_hold_under_a_capped_dispatch(cap):
    # numpy reads NPY_DISABLE_CPU_FEATURES, and OpenBLAS OPENBLAS_CORETYPE, once, at load: a child takes them
    enabled = platform()["simd_dispatch"]
    disabled = enabled if cap == "baseline" else [f for f in enabled if f.startswith(("X86_V4", "AVX512"))]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(str(ROOT / part) for part in ("src", "tools")))
    if cap == "baseline":
        env["OPENBLAS_CORETYPE"] = "Prescott"  # the pre-AVX kernel, which OpenBLAS names Katmai
    probe = "import json, sys, diff_outputs as d; print(json.dumps(d.platform())); sys.exit(d.main([]))"
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    head, _, listing = child.stdout.partition("\n")
    assert head, child.stderr
    seen = json.loads(head)
    assert not set(seen["simd_dispatch"]) & set(disabled)
    if cap == "baseline":
        assert seen["openblas_core"] in ("Prescott", "Katmai"), seen
    assert child.returncode == 0, listing + child.stderr
