"""The README's library example runs, the names it shows exist, its command
lines parse, and the numbers it ties to constants equal them."""

import importlib
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


# A number tied to constants: "N (`mod.NAME`)" or "N × M (`mod.A` × `mod.B`)",
# up to three words between, as in "2048 paths (`engine.CHUNK_SIZE`)".  Numbers
# group thousands with spaces, as in "1 000 000".
_NUMBER = r"\d+(?: \d{3})*"
_TIED = re.compile(rf"\b({_NUMBER}(?: × {_NUMBER})*)(?: [a-z-]+){{0,3}} "
                   rf"\((`\w+\.\w+`(?: × `\w+\.\w+`)*)\)")


def _tied_numbers() -> list[tuple[int, str]]:
    """(number, ``module.NAME``) for each number README ties to a constant of
    a ``torusbridge`` module, line breaks read as spaces."""
    text = " ".join(README.read_text().split())
    pairs = []
    for numbers, names in _TIED.findall(text):
        numbers, names = numbers.split(" × "), re.findall(r"`(\w+\.\w+)`", names)
        assert len(numbers) == len(names), (numbers, names)
        pairs += [(int(n.replace(" ", "")), name) for n, name in zip(numbers, names)]
    return pairs


def test_tied_numbers_equal_their_constants():
    """A number README gives for a constant it names is that constant's value,
    so changing either alone fails here."""
    pairs = _tied_numbers()
    assert {name for _, name in pairs} >= {
        "cli._MIN_SPLIT_BLOCKS", "cli._G17_BLOCK", "engine.CHUNK_SIZE", "engine.NOISE_BLOCK",
        "engine._MIN_SPLIT_WORK", "engine._MIN_SPLIT_PATHS"}
    wrong = []
    for number, name in pairs:
        module, attr = name.split(".")
        value = getattr(importlib.import_module(f"torusbridge.{module}"), attr)
        if number != value:
            wrong.append((name, number, value))
    assert wrong == []
