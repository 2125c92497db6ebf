"""The command lines of README.md run as documented."""

import pathlib
import re
import shlex

import pytest

from contactcurv import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


# the first plain code block after "## Command line"
_COMMAND_BLOCK = re.search(r"^## Command line\n+```\n(.*?)^```", README,
                           re.S | re.M).group(1)
COMMANDS = [shlex.split(line, comments=True)
            for line in _COMMAND_BLOCK.splitlines() if line.startswith("contactcurv ")]


def test_the_command_block_is_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    # "./my_manifold.json" is the manifold-file example of the README
    (tmp_path / "my_manifold.json").write_text(_blocks("json")[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
