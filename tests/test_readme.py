"""The README's CLI tour, run in-process.

Every `$ pargoid …` line of the tour's shell blocks goes through `cli.run`
in a directory holding a copy of the fixtures, and its stdout must equal
the lines shown under it byte for byte. `> file` writes stdout to the file
instead, and `echo $?` prints the exit code of the command before it.
"""
import contextlib
import io
import shlex
import shutil
from pathlib import Path

from pargoids import cli

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_steps():
    """(command, expected stdout) of each `$` line in the CLI tour."""
    text = README.read_text(encoding="utf-8")
    tour = text.split("\n## CLI tour\n", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in tour.split("```")[1::2]:
        lines = block.split("\n")[1:-1]  # drop the info string and the fence
        if not lines or not lines[0].startswith("$ "):
            continue
        for line in lines:
            if line.startswith("$ "):
                steps.append([line[2:], ""])
            else:
                steps[-1][1] += line + "\n"
    return steps


def run(argv):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
        stdout.flush()
    return code, stdout.buffer.getvalue()


def test_cli_tour_outputs(tmp_path, monkeypatch):
    shutil.copytree(oracles.FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    steps = tour_steps()
    assert sum(c.startswith("pargoid ") for c, _ in steps) >= 10
    code = None
    for command, expected in steps:
        words = shlex.split(command)
        if words == ["echo", "$?"]:
            out = f"{code}\n".encode()
        else:
            assert words[0] == "pargoid", command
            target = None
            if ">" in words:
                words, target = words[:words.index(">")], words[words.index(">") + 1]
            code, out = run(words[1:])
            if target is not None:
                Path(target).write_bytes(out)
                out = b""
        assert (command, out.decode()) == (command, expected)
