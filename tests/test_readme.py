"""The README stays in step with the code: its list of top-level re-exports
with aqrm.__all__, its command lines with the CLI parser."""

import re
import shlex
from pathlib import Path

import aqrm
from aqrm.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_reexport_list_matches_all():
    text = README.read_text()
    start = text.index("The package top level re-exports")
    paragraph = text[start:text.index("\n\n", start)]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(aqrm.__all__)


def test_command_block_parses():
    text = README.read_text()
    start = text.index("```sh\n", text.index("## Command line")) + len("```sh\n")
    block = text[start:text.index("```", start)]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 10 and all(argv[0] == "aqrm" for argv in lines)
    for argv in lines:
        build_parser().parse_args(argv[1:])     # exits 2 on a stale flag
