"""Every demo runs to completion against the current package.

Each ``demos/*.py`` is run in-process as ``__main__`` with its output
captured, so a deleted or renamed public name breaks the suite rather
than a demo nobody ran.  Each ``spectral-walk`` command of
``demos/cli_walkthrough.sh`` is run through ``cli.main``, its ``$out``
directory a temporary one, so a renamed flag breaks it too.
"""

from __future__ import annotations

import runpy
import shlex
from pathlib import Path

import pytest

from spectral_walk.cli import main

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def walkthrough_commands() -> list[list[str]]:
    """The argument lists of the walkthrough's ``spectral-walk`` lines,
    with backslash continuations joined."""
    text = (DEMO_DIR / "cli_walkthrough.sh").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("spectral-walk ")]


WALKTHROUGH = walkthrough_commands()


def test_every_demo_is_collected():
    assert len(DEMOS) >= 6
    assert len(WALKTHROUGH) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{path.name} exited {exc.code}"
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", WALKTHROUGH,
                         ids=[f"{k}-{argv[0]}" for k, argv in enumerate(WALKTHROUGH)])
def test_walkthrough_command_runs(argv, tmp_path, capsys):
    code = main([arg.replace("$out", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out
