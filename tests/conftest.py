import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pkspecial import PkParams

# the default audit axes, used by several suites
GRID_PS = (0.5, 1.0, 2.0, 3.5)
GRID_KS = (0.5, 1.0, 2.0, 3.0)
GRID_XS = (0.3, 0.7, 1.1, 2.5, 4.9, 7.3)


def pytest_configure(config):
    # a stray RuntimeWarning (numpy's overflow in power, say) fails the test,
    # and so does the library's own OverflowNote, a RuntimeWarning subclass:
    # a test that leaves the double range on purpose says so with pytest.warns
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::pkspecial.core.OverflowNote")


@pytest.fixture
def grid_points():
    return [(p, k, x) for p in GRID_PS for k in GRID_KS for x in GRID_XS]


@pytest.fixture
def params_grid():
    return [PkParams(p, k) for p in GRID_PS for k in GRID_KS]

