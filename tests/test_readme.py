"""The README's library example runs, the names it shows exist, and its command
lines parse."""

import re
import shlex
from pathlib import Path

import torusbridge
from torusbridge import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(_library_block(), "README.md#library", "exec"), {})


def test_public_names_resolve():
    """Every exported name exists, and every ``tb.<name>`` the README shows
    is one, so a removed name cannot linger in the docs."""
    missing = [name for name in torusbridge.__all__ if not hasattr(torusbridge, name)]
    assert not missing
    shown = set(re.findall(r"\btb\.(\w+)", README.read_text()))
    assert shown and not sorted(shown - set(torusbridge.__all__))


def _cli_lines() -> list[str]:
    """Every ``torusbridge ...`` command of README's bash blocks, with its
    continuation lines joined and its trailing comment dropped."""
    lines = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("torusbridge "):
                lines.append(line.split("#")[0])
    return lines


def test_cli_lines_parse():
    """Each command line the README shows parses, so a retired command or
    flag cannot linger in the docs."""
    lines = _cli_lines()
    assert len(lines) >= 6
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line)[1:])  # ValueError if refused
