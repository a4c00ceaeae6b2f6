"""The README's command-line examples, run as written.

Every ``$ dlambda-fwm ...`` line of the README's shell block under
"Command line" goes through cli.main in a scratch directory, and each
output line the README shows under it must be printed (to stdout or
stderr).
"""

import shlex
from pathlib import Path

import pytest

from dlambda_fwm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ dlambda-fwm "


def _examples() -> list:
    """(argv, shown output lines) of each command in the CLI block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
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
