"""Each narrative script in ``demos/`` runs to completion without a warning."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(script):
    done = run_python(str(script), timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
