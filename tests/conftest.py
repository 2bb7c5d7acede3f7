import sys
from pathlib import Path

import pytest

from xxchain import amplitude_report

# the benchmark's mpmath reference, bench/reference.py, is the tests' too: import it
# as ``reference``, after pytest.importorskip("mpmath")
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))


@pytest.fixture(scope="session")
def report():
    """Default constants report, computed once for the whole session."""
    return amplitude_report()
