"""Every Python demo runs to completion against the current package.

Each ``demos/*.py`` is run in-process as ``__main__`` with its output
captured, so a deleted or renamed public name breaks the suite rather
than a demo nobody ran.  ``demos/cli_walkthrough.sh`` drives the
installed ``spectral-walk`` console script and is not run here; the CLI
tests cover the same commands through ``cli.main``.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{path.name} exited {exc.code}"
    assert capsys.readouterr().out
