"""Every demo script runs against the current public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    # in-process, so a renamed or deleted name fails here instead of only
    # when someone next runs the demo
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
