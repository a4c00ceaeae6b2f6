"""The README's examples, run as written.

Every ``$ dlambda-fwm ...`` line of the README's shell block under
"Command line" goes through cli.main in a scratch directory, and each
output line the README shows under it must be printed (to stdout or
stderr).  The Python block under "Python API" runs as one script, and
each number a ``print`` line's comment shows (``0.9216…``) must begin
the number that line prints in the same place.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from dlambda_fwm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ dlambda-fwm "


def _block(heading: str, fence: str) -> str:
    """The first ``fence`` code block under ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _examples() -> list:
    """(argv, shown output lines) of each command in the CLI block."""
    examples = []
    for line in _block("Command line", "sh").splitlines():
        if line.startswith(PROMPT):
            command = line[len(PROMPT):].split("#", 1)[0]
            examples.append((shlex.split(command), []))
        elif line.strip():
            examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8
    assert any(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("argv, shown", EXAMPLES,
                         ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(tmp_path, monkeypatch, capsys, argv, shown):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    # 3: `validate` reports the documented check-10 failure
    assert code in (0, 3)
    printed = set(captured.out.splitlines()) | set(captured.err.splitlines())
    assert [line for line in shown if line not in printed] == []


def test_readme_python_api():
    code = _block("Python API", "python")
    # the leading digits each print line's comment shows, in order
    shown = [re.findall(r"(-?[\d.]+)…", line.partition("#")[2])
             for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(shown)
    checked = [(printed, digits)
               for line, prefixes in zip(lines, shown) if prefixes
               for printed, digits in zip(line.split(), prefixes)]
    assert len(checked) == 5
    assert [p for p, d in checked if not p.startswith(d)] == []
