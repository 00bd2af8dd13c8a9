"""README, pyproject and the shipped schema stay in step with the package:
the names README lists as the package root's exports are exactly
``mdlrank.__all__``, every flag its command-line section names is a CLI
option, the version and schema version it states are the ones the code
reports, every warning the suite fails on is named, and the schema pins
the schema version, gram modes and per-k columns the code writes. The CLI
imports nothing from ``linalg``, as the module list in README says, and no
module imports a name it does not use."""

import argparse
import ast
import importlib.resources
import json
import re
from pathlib import Path

import pytest

import mdlrank
from mdlrank.cli import REPORT_COLUMNS, SCHEMA_VERSION, build_parser
from mdlrank.complexity import GRAM_MODES

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


def test_cli_imports_nothing_from_linalg():
    """The CLI reads spectra only through the package's analysis entry
    points, never from the decomposition module itself."""
    tree = ast.parse((ROOT / "src" / "mdlrank" / "cli.py").read_text(encoding="utf-8"))
    sources = {
        ("." * node.level) + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    sources |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not sources & {".linalg", "mdlrank.linalg"}, sorted(sources)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "mdlrank").glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    """A name a module imports is read somewhere in its code, not only in
    a docstring: the package root's ``__init__`` re-exports, so it is left
    out."""
    tree = ast.parse((ROOT / "src" / "mdlrank" / module).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)


def test_pyproject_version_is_the_package_version():
    # a regex, since tomllib is not in every supported Python
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == mdlrank.__version__


def test_readme_names_every_warning_the_suite_fails_on():
    """Each ``error::`` entry of pytest's filterwarnings, its category and
    any module it is limited to, is named in README's sentence on them."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    filters = re.search(r"^filterwarnings = \[(.*?)^\]", text, re.M | re.S).group(1)
    entries = re.findall(r'"error::([\w.]+)(?::([\w.]+))?"', filters)
    readme = README.read_text(encoding="utf-8")
    sentence = re.search(r"The suite treats as a failure .*?\.(?=\s)", readme, re.S).group(0)
    assert entries
    for category, module in entries:
        assert f"`{category.rsplit('.', 1)[-1]}`" in sentence, category
        assert not module or f"`{module}`" in sentence, module


def test_readme_schema_version_is_the_reports():
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"schema_version (\d+)", text) == [str(SCHEMA_VERSION)]


def _schema():
    ref = importlib.resources.files("mdlrank") / "schemas" / "run_report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def test_schema_pins_what_the_code_writes():
    schema = _schema()
    assert SCHEMA_VERSION == 3
    assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION
    assert schema["$id"].endswith(f"run_report-{SCHEMA_VERSION}.schema.json")
    assert schema["$defs"]["gram_mode"]["enum"] == list(GRAM_MODES)
    assert schema["$defs"]["per_k"]["items"]["required"] == list(REPORT_COLUMNS)


def test_schema_rejects_a_version_2_row():
    """A per_k row that still carries a column version 2 wrote, such as
    ratio_term, is not a version 3 row."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(_schema()["$defs"]["per_k"])
    row = {"k": 1, "tail_term": -5.0, "gram_term": 7.0, "lower_total": 1.5,
           "upper_total": 2.5, "floored": False}
    validator.validate([row])
    with pytest.raises(jsonschema.ValidationError):
        validator.validate([{**row, "ratio_term": 0.5}])
