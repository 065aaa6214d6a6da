import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pkspecial import PkParams
from pkspecial.core import _MEMO_SIZE

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


def check_memo_is_transparent(route, kernel, calls, distinct):
    """route(params, x, size) over ``calls`` gives the same bits with the kernel's memo warm and cleared.

    ``distinct`` is the number of different kernel inputs among the calls:
    the warm pass must miss exactly that often and hit on every other call.
    """
    kernel.cache_clear()
    warm = [repr(route(*call)) for call in calls]
    info = kernel.cache_info()
    assert (info.misses, info.hits) == (distinct, len(calls) - distinct)
    cold = []
    for call in calls:
        kernel.cache_clear()
        cold.append(repr(route(*call)))
    assert warm == cold


def check_memo_is_bounded(route, kernel, size):
    """1,000 distinct arguments never hold more than _MEMO_SIZE entries."""
    kernel.cache_clear()
    for i in range(1000):
        route(PkParams(1.0, 1.0), 1.0 + i / 1000, size)
        assert kernel.cache_info().currsize <= _MEMO_SIZE
    assert kernel.cache_info().currsize == _MEMO_SIZE
