import pytest

from detideals import enumerate_connected
from detideals.graphs import MATRIX_KINDS as KINDS  # noqa: F401


@pytest.fixture(scope="session")
def corpus5():
    return enumerate_connected(5)


@pytest.fixture(scope="session")
def corpus6():
    return enumerate_connected(6)


@pytest.fixture(scope="session")
def corpus7():
    return enumerate_connected(7)


@pytest.fixture(scope="session")
def corpus8():
    return enumerate_connected(8)
