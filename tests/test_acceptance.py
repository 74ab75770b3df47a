"""Acceptance gate: every criterion at its stated tolerance, one test each."""

import tempfile

import pytest

from hubspoke import acceptance


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA,
                         ids=[name for name, _ in acceptance.CRITERIA])
def test_criterion(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_13_removes_the_directory_it_makes(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    ok, detail = acceptance.criterion_13()
    assert ok, detail
    assert list(tmp_path.glob("hs-acceptance-*")) == []
