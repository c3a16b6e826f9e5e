"""The README's library example runs, and the names it shows exist."""

import re
from pathlib import Path

import torusbridge

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
