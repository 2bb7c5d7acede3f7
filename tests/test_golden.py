"""Printed bytes of the commands whose output no numpy SIMD dispatch level moves, against tests/golden/.

The goldens leave out the product columns, whose ``np.exp`` moves by an ulp
between dispatch levels.  ``PYTHONPATH=src python tools/diff_outputs.py
--write-golden`` rewrites them, with ``platform.json``: a mismatch on another
platform is a difference to report.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diff_outputs import GOLDEN, GOLDEN_DIR, ROOT, golden_csv, platform, printed
from xxchain import ed

RECORDED = json.loads((GOLDEN_DIR / "platform.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_printed_bytes_equal_the_golden(name):
    assert golden_csv(printed(GOLDEN[name])) == (GOLDEN_DIR / name).read_text(), (
        f"goldens made on {RECORDED}, run on {platform()}")


def test_a_one_ulp_move_of_an_ed_cell_shows(monkeypatch):
    sweep = ed.ed_correlator_sweep

    def nudged(L, x_max):
        out = sweep(L, x_max).copy()
        out[7] = np.nextafter(out[7], np.inf)
        return out

    monkeypatch.setattr(ed, "ed_correlator_sweep", nudged)
    name = "correlator_L18_ed_det_product.csv"
    assert golden_csv(printed(GOLDEN[name])) != (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("cap", ["avx2", "baseline"])
def test_golden_bytes_hold_under_a_capped_dispatch(cap):
    # numpy reads NPY_DISABLE_CPU_FEATURES once, at import: a child process takes the cap
    enabled = platform()["simd_dispatch"]
    disabled = enabled if cap == "baseline" else [f for f in enabled if f.startswith(("X86_V4", "AVX512"))]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(str(ROOT / part) for part in ("src", "tools")))
    probe = "import diff_outputs as d; print(*d.platform()['simd_dispatch'], '|', *d.mismatched_golden())"
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    dispatch, mismatched = (part.split() for part in child.stdout.split("|"))
    assert not set(dispatch) & set(disabled)
    assert mismatched == []
