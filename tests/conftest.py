import pytest

from bkd.etaseries import delta_table


@pytest.fixture(scope="session")
def table1():
    """delta_1 table large enough for every 5000-range scan (incl. d=5)."""
    return delta_table(1, 5012)


@pytest.fixture(scope="session")
def table2():
    return delta_table(2, 5012)


@pytest.fixture(scope="session")
def sandwich_tables():
    """delta_1, delta_2 up to n + 1 for n in [3500, 3600] (sandwich gate)."""
    return {k: delta_table(k, 3601) for k in (1, 2)}


@pytest.fixture(scope="session")
def theta_tables():
    """delta_1, delta_2 up to n + 1 for n in [15070, 15200] (Theta gate)."""
    return {k: delta_table(k, 15201) for k in (1, 2)}
