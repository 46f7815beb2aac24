"""The README's examples run: every ``icsim`` line of its CLI command block,
through ``cli.main`` from the repository root, and its library quick start."""

import contextlib
import io
import re
import shlex
import time
from pathlib import Path

from icsim.cli import main

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading``."""
    after = README[README.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def _commands() -> list[list[str]]:
    """Each command of the CLI block as argv, continuation lines joined."""
    text = _block("## CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_every_readme_command_runs(monkeypatch, tmp_path, capsys):
    # the exit codes today; the m-state line aborts its one trial and still
    # exits 0, as ROADMAP item 1 records
    commands = _commands()
    assert [argv[:2] for argv in commands] == [
        ["icsim", "capacity"], ["icsim", "simulate"], ["icsim", "simulate"],
        ["icsim", "simulate"], ["icsim", "simulate"], ["icsim", "coincidence"],
        ["icsim", "classify"], ["icsim", "classify"], ["icsim", "disjointness"],
        ["icsim", "sweep"]]
    monkeypatch.chdir(ROOT)  # the input files the commands name are under examples/
    monkeypatch.setenv("ICSIM_OUTDIR", str(tmp_path))
    start = time.perf_counter()
    codes = [main(argv[1:]) for argv in commands]
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert codes == [0] * len(commands), err
    assert err == ""
    written = ["cap.csv", "runs.csv", "runs.json", "sweep.csv", "sweep.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    assert elapsed < 5.0


def test_the_library_quick_start_prints_what_the_readme_says():
    code = _block("## Library quick start", "python")
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected
