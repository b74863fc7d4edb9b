"""Acceptance gate: the ten end-to-end criteria at contractual size.

Each test runs one criterion at scale 1.0 and prints its one-line
verdict; the suite passes only when every criterion does.
"""

import pytest

from strongdamp.acceptance import CRITERIA, criterion_10


@pytest.mark.parametrize("fn", CRITERIA, ids=[f.__name__ for f in CRITERIA])
def test_criterion(fn):
    res = fn(1.0)
    print(res.line())
    assert res.passed, res.line()


def test_criterion_10_without_pythonpath(monkeypatch):
    """The determinism subprocesses find the package when it is importable
    through sys.path only, as under pytest's `pythonpath` setting."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    res = criterion_10(1.0)
    assert res.passed, res.line()
