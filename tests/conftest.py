"""Shared fixtures: the default kernel is constructed once per session and
shared read-only by every test module."""

import sys

import numpy as np
import pytest

from tauberlab import growth, specialfn


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts, which capture otherwise swallows."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def strip1():
    return specialfn.build_strip_function(1.0)


@pytest.fixture(scope="session")
def kernel(strip1):
    return specialfn.build_kernel(strip1)


@pytest.fixture(scope="session")
def poly2():
    return growth.poly(2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)
