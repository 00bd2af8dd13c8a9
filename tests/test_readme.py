"""README, pyproject and the shipped schema stay in step with the package:
the names README lists as the package root's exports are exactly
``mdlrank.__all__``, every flag its command-line section names is a CLI
option, the version and schema version it states are the ones the code
reports, and the schema pins the schema version, gram modes and per-k
columns the code writes."""

import argparse
import importlib.resources
import json
import re
from pathlib import Path

import mdlrank
from mdlrank.cli import SCHEMA_VERSION, build_parser
from mdlrank.complexity import GRAM_MODES, ScoreTable

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_lists_exactly_the_root_exports():
    text = README.read_text(encoding="utf-8")
    start = text.index("The package root exports")
    listed = set(re.findall(r"`(\w+)`", text[start:text.index("Other helpers", start)]))
    assert listed == set(mdlrank.__all__)


def test_readme_cli_flags_are_parser_options():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start + 1)]
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    (subs,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for sub in subs.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }
    assert flags and flags <= options, sorted(flags - options)


def test_pyproject_version_is_the_package_version():
    # a regex, since tomllib is not in every supported Python
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == mdlrank.__version__


def test_readme_schema_version_is_the_reports():
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"schema_version (\d+)", text) == [str(SCHEMA_VERSION)]


def test_schema_pins_what_the_code_writes():
    ref = importlib.resources.files("mdlrank") / "schemas" / "run_report.schema.json"
    schema = json.loads(ref.read_text(encoding="utf-8"))
    assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION
    assert schema["$defs"]["gram_mode"]["enum"] == list(GRAM_MODES)
    assert schema["$defs"]["per_k"]["items"]["required"] == list(ScoreTable._fields)
