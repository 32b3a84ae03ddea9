"""Shared test plumbing: the acceptance summary printed after the run,
and a counter of eigensolves."""

import numpy as np
import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def count_eigvalsh(monkeypatch):
    """Call to start recording the arrays passed to np.linalg.eigvalsh;
    the call returns the list they are appended to."""
    def start():
        sent = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sent.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return sent
    return start


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
