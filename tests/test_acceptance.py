"""Acceptance gate: the ten end-to-end criteria at contractual size.

Each test runs one criterion at scale 1.0 and prints its one-line
verdict; the suite passes only when every criterion does.
"""

import pytest

from strongdamp.acceptance import _DET_CONFIGS, CRITERIA, run_criterion


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1),
                         ids=[check.__name__ for _, check in CRITERIA])
def test_criterion(index):
    res = run_criterion(index, 1.0)
    print(res.line())
    assert res.passed, res.line()


def test_criterion_10_without_pythonpath(monkeypatch):
    """The determinism subprocesses find the package when it is importable
    through sys.path only, as under pytest's `pythonpath` setting.  One
    subcommand shows it; test_criterion runs all of them."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.setattr("strongdamp.acceptance._DET_CONFIGS",
                        {"front": _DET_CONFIGS["front"]})
    res = run_criterion(10, 1.0)
    assert res.passed, res.line()
