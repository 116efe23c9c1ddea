"""Shared fixtures and the acceptance-criteria summary hook."""

import math
from collections import Counter

import numpy as np
import pytest

from vhckit.dual import Dual, real
from vhckit.models import get_model

_CRITERIA = {}


@pytest.fixture(scope="session")
def circle0():
    return get_model("circle", alpha=0.0)


@pytest.fixture(scope="session")
def circle03():
    return get_model("circle", alpha=0.3)


@pytest.fixture(scope="session")
def sphere():
    return get_model("sphere")


@pytest.fixture(scope="session")
def dpc_a():
    return get_model("dpc-a")


@pytest.fixture(scope="session")
def dpc_b():
    return get_model("dpc-b")


def _depth(c):
    return 1 + max(_depth(c.val), _depth(c.eps)) if isinstance(c, Dual) else 0


def _exact(c):
    """A hashable copy of a nested dual, with every float as it is."""
    return (_exact(c.val), _exact(c.eps)) if isinstance(c, Dual) else float(c)


class CallCounter:
    """A field's ``fn`` (of a point or a number), wrapped to count its
    calls by the dual depth of their argument: at single points
    (``by_depth``), with each dual argument's calls counted exactly
    (``dual_points``), and at stacked points, whose coordinates are numpy
    arrays with one entry per point (``stacks``)."""

    def __init__(self, fn):
        self.fn, self.by_depth, self.dual_points = fn, Counter(), Counter()
        self.stacks = Counter()

    def __call__(self, x):
        coords = x if isinstance(x, (list, tuple)) else [x]
        depth = max(map(_depth, coords), default=0)
        if any(isinstance(real(c), np.ndarray) for c in coords):
            self.stacks[depth] += 1
        else:
            self.by_depth[depth] += 1
            if depth:
                self.dual_points[tuple(map(_exact, coords))] += 1
        return self.fn(x)

    @property
    def calls(self):
        return sum(self.by_depth.values())

    @property
    def repeated(self):
        """Dual arguments met more than once."""
        return [p for p, n in self.dual_points.items() if n > 1]


@pytest.fixture
def count_calls():
    """CallCounter, the wrapper that counts a field function's calls."""
    return CallCounter


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        num = name.split("_")[2]
        _CRITERIA[int(num)] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        terminalreporter.write_line(f"CRITERION {num}: {_CRITERIA[num]}")
