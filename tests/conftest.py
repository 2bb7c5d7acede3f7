import pytest

from xxchain import amplitude_report


@pytest.fixture(scope="session")
def report():
    """Default constants report, computed once for the whole session."""
    return amplitude_report()
