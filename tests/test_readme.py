"""The README's list of top-level re-exports stays in step with aqrm.__all__."""

import re
from pathlib import Path

import aqrm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_reexport_list_matches_all():
    text = README.read_text()
    start = text.index("The package top level re-exports")
    paragraph = text[start:text.index("\n\n", start)]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(aqrm.__all__)
