"""The README stays in step with the code: its list of top-level re-exports
with aqrm.__all__, its command lines with the CLI parser, its library-layout
table with the modules."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import aqrm
from aqrm.cli import _parse_strict
from test_cli import GOLDEN, argparse_namespace

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
    # every README line and golden command takes the strict path, which
    # gives argparse's namespace without importing it; a stale flag fails both
    for argv in [argv[1:] for argv in lines] + [cmd.split() for cmd, _ in GOLDEN]:
        strict = _parse_strict(argv)
        assert strict is not None, argv
        assert vars(strict) == argparse_namespace(argv), argv


def test_layout_table_names_resolve():
    # each row: | `aqrm.<module>` | contents naming `name` or `name(arg, ...)` |
    rows = re.findall(r"^\| `(aqrm\.\w+)` +\| (.*) \|$", README.read_text(), re.M)
    assert len(rows) >= 6
    modules = {m: importlib.import_module(m) for m in ["aqrm"] + [m for m, _ in rows]}
    for module, contents in rows:
        for name, args in re.findall(r"`(\w+)(?:\(([^)]*)\))?`", contents):
            owners = [mod for mod in (modules[module], *modules.values()) if hasattr(mod, name)]
            assert owners or name in modules, f"{module} row: `{name}` is nowhere in aqrm"
            if args:
                params = list(inspect.signature(getattr(owners[0], name)).parameters)
                assert args.split(", ") == params, f"{module} row: `{name}({args})`"
