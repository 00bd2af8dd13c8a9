"""README stays in step with the package: the names it lists as the
package root's exports are exactly ``mdlrank.__all__``."""

import re
from pathlib import Path

import mdlrank

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_root_exports():
    text = README.read_text(encoding="utf-8")
    start = text.index("The package root exports")
    listed = set(re.findall(r"`(\w+)`", text[start:text.index("Other helpers", start)]))
    assert listed == set(mdlrank.__all__)
