"""README's "Command line" block, run as written.

Every `$ skewframes ...` line of the block runs through cli.run in a
fresh directory (so the files one command writes are there for the
next), and its stdout must equal the lines printed under it up to the
next command or blank line.
"""

import shlex
from pathlib import Path

from skewframes.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, expected stdout) for each command of the block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("$ skewframes "):
            commands.append((shlex.split(line)[2:], []))
        elif line:
            commands[-1][1].append(line + "\n")
    return [(argv, "".join(out)) for argv, out in commands]


def test_readme_command_line_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for argv, expected in commands:
        run(argv)
        assert capsys.readouterr().out == expected, argv
