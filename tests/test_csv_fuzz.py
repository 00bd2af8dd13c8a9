"""Fuzzed CSV texts: the exit contract of the CLI, and agreement of the
vectorised read with the scanner it falls back to."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdlrank.cli import main
from mdlrank.datasets import _parse_cells, _read_fast
from mdlrank.errors import ParseError

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

NUMBERS = st.one_of(
    st.sampled_from(["1", "2.5", "100", "3e2", "7.0001", " 4 ", "-3", "0", "-0", "1e-320"]),
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
)
# cells on which float() and loadtxt may disagree, or which the scanner rejects
ODD = st.sampled_from(
    ["1e400", "nan", "inf", "-inf", "1_0", "", '"1"', '"2,5"', '"x\n9"', "#", "#1", "abc", "３"]
)
# mostly numbers, so that many texts parse
CELLS = st.integers(0, 19).flatmap(lambda roll: ODD if roll == 0 else NUMBERS)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["row"] * 12 + ["ragged", "blank", "space"]))
        if kind == "row":
            line = ",".join(draw(st.lists(CELLS, min_size=width, max_size=width)))
        elif kind == "ragged":
            line = ",".join(draw(st.lists(CELLS, min_size=1, max_size=5)))
        elif kind == "blank":
            line = ""
        else:
            line = draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(line + draw(LINE_ENDS))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text  # the byte-order mark of Excel's "CSV UTF-8"
    return text


@FUZZ
@given(text=csv_texts())
def test_fuzzed_csv(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for header in ("--header", "--no-header"):
            for mode in ([], ["--raw"]):
                argv = ["select", "--input", path, header, "--reproducible",
                        "--out", os.path.join(tmp, "report.json")] + mode
                assert main(argv) in (0, 2, 3, 4)
        for has_header in (True, False):
            fast = _read_fast(path, has_header)
            if fast is None:
                continue
            if not np.isfinite(fast[1]).all():
                # the loaders send such a file to the scanner, which names the cell
                with pytest.raises(ParseError, match="non-finite cell"):
                    _parse_cells(path, has_header)
                continue
            names, rows = _parse_cells(path, has_header)
            assert fast[0] == names
            scanned = np.array([row for _, row in rows], dtype=np.float64)
            assert fast[1].shape == scanned.shape
            assert fast[1].tobytes() == scanned.tobytes()
