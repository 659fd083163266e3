"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line (run with -s or check captured output on failure)."""

import tempfile

import pytest

from radcomp import acceptance

NUMBERS = [num for num, _, _ in acceptance._CRITERIA]


@pytest.mark.parametrize("number", NUMBERS)
def test_criterion(number, tmp_path):
    res = acceptance.run_one(number, outdir=tmp_path)
    print(res.line())
    assert res.passed, res.line()


def test_runner_covers_all_criteria():
    assert NUMBERS == list(range(1, 13))
    results = acceptance.run_all(only=[1, 9, 11])
    assert [r.number for r in results] == [1, 9, 11]
    assert all(r.passed for r in results)


def test_determinism_without_outdir_leaves_no_directory(tmp_path, monkeypatch):
    """Criterion 12 without an outdir writes its two bundles to a temporary
    directory and removes it."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    res = acceptance.run_one(12)
    assert res.passed, res.line()
    assert list(tmp_path.iterdir()) == []
