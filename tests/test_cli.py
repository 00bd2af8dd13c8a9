import csv
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mdlrank import cli, complexity, linalg
from mdlrank.cli import main
from mdlrank.complexity import ScoreTable
from mdlrank.datasets import bundled_fixture_path
from helpers import full_gram_totals, kaiser_counts

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

requires_jsonschema = pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")


def _schema():
    import importlib.resources

    ref = importlib.resources.files("mdlrank") / "schemas" / "run_report.schema.json"
    return json.loads(ref.read_text())


def _run(args, capsys):
    status = main(args)
    out = capsys.readouterr()
    return status, out.out, out.err


def _write_diag321(tmp_path):
    p = tmp_path / "diag.csv"
    p.write_text("3,0,0\n0,2,0\n0,0,1\n")
    return p


LIN10 = [
    "select", "--synthetic", "lin", "--n", "500", "--m", "30",
    "--true-k", "10", "--noise", "0.1", "--seed", "7", "--reproducible",
]


class TestSelect:
    def test_fixture_defaults_and_auto_epsilon(self, capsys):
        status, out, err = _run(
            ["select", "--input", str(bundled_fixture_path()), "--reproducible"], capsys
        )
        assert status == 0 and err == ""
        report = json.loads(out)
        assert report["m"] == 30
        assert report["epsilon"] == pytest.approx(1 / 60, abs=0)
        assert report["input"]["kind"] == "csv"
        assert "timestamp" not in report
        assert "skipped" not in report["baselines"]

    def test_synthetic_planted_rank_in_bracket(self, capsys):
        status, out, _ = _run(LIN10, capsys)
        assert status == 0
        report = json.loads(out)
        assert report["k_bracket"][0] <= 10 <= report["k_bracket"][1]
        assert report["generator"]["seed"] == 7

    def test_empty_csv_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        status, out, err = _run(["select", "--input", str(p)], capsys)
        assert status == 3
        assert out == "" and "data error" in err

    def test_missing_input_is_usage_error(self, capsys):
        status, _, err = _run(["select"], capsys)
        assert status == 2 and "--input" in err

    def test_input_with_synthetic_is_usage_error(self, capsys):
        status, out, err = _run(LIN10 + ["--input", str(bundled_fixture_path())], capsys)
        assert status == 2 and out == ""
        assert "--input and --synthetic cannot be used together" in err

    def test_invalid_epsilon_is_usage_error(self, capsys):
        # 1e-400 rounds to 0.0; 1/999999999989 has no float with an integer
        # reciprocal; both parse as exact unit fractions
        for bad in ("0.3", "2/5", "banana", "1e-400", "1/999999999989"):
            status, _, err = _run(LIN10 + ["--epsilon", bad], capsys)
            assert status == 2, bad
            assert "epsilon" in err
        status, _, err = _run(LIN10 + ["--epsilon=-1/8"], capsys)
        assert status == 2 and "epsilon" in err

    def test_argparse_level_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--epsilon"])
        assert exc.value.code == 2

    def test_rational_epsilon_accepted(self, capsys):
        status, out, _ = _run(LIN10 + ["--epsilon", "1/64"], capsys)
        assert status == 0
        assert json.loads(out)["epsilon"] == pytest.approx(1 / 64, abs=0)

    def test_decimal_epsilon_parsed_exactly(self, capsys):
        status, out, _ = _run(LIN10 + ["--epsilon", "0.03125"], capsys)
        assert status == 0
        assert json.loads(out)["epsilon"] == pytest.approx(1 / 32, abs=0)

    def test_both_gram_modes_reports_alternative(self, capsys):
        status, out, _ = _run(LIN10 + ["--both-gram-modes"], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["gram_mode"] == "full_gram"
        assert report["alt"]["gram_mode"] == "per_row_sum"
        assert len(report["alt"]["per_k"]) == len(report["per_k"]) == 29

    def test_gram_mode_picks_the_top_block_with_both_modes(self, capsys):
        base = ["select", "--input", str(bundled_fixture_path()), "--reproducible",
                "--gram-mode", "per_row_sum"]
        _, single, _ = _run(base, capsys)
        _, both, _ = _run(base + ["--both-gram-modes"], capsys)
        report = json.loads(both)
        alt = report.pop("alt")
        assert report == json.loads(single)
        assert alt["gram_mode"] == "full_gram"

    def test_reproducible_runs_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(LIN10 + ["--out", str(a)]) == 0
        assert main(LIN10 + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_present_without_reproducible(self, capsys):
        args = [a for a in LIN10 if a != "--reproducible"]
        status, out, _ = _run(args, capsys)
        assert status == 0
        assert "timestamp" in json.loads(out)

    def test_per_k_table_csv(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        status, _, _ = _run(LIN10 + ["--table", str(table), "--out", str(tmp_path / "r.json")], capsys)
        assert status == 0
        text = table.read_text()
        assert not any(line.endswith(",") for line in text.splitlines())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "k", "tail_term", "gram_term", "ratio_term", "count_term", "delta_upper",
            "lower_total", "upper_total", "gap_ratio", "floored",
        ]
        assert len(rows) == 30  # header + k = 1..29
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(1, 30)]

    def test_per_k_rows_rebuild_the_totals_by_the_readme_formula(self, capsys):
        """The README formula rebuilds every per-k row's totals from its k,
        tail_term and gram_term and the report's n, m and epsilon, to 1e-12
        of the summed term magnitudes, in a select report with both gram
        modes and in each element of a compare report; each argmin is the
        smallest k attaining its minimum."""
        fixture = ["--input", str(bundled_fixture_path()), "--both-gram-modes", "--reproducible"]
        status, out, _ = _run(["select", *fixture], capsys)
        assert status == 0
        reports = [json.loads(out)]
        status, out, _ = _run(["compare", *fixture, "--lengths", "260,30,31,150"], capsys)
        assert status == 0
        reports += json.loads(out)
        for report in reports:
            n, m, epsilon = report["n"], report["m"], report["epsilon"]
            for block in (report, report["alt"]):
                rows = block["per_k"]
                assert all(row.keys() == set(cli.REPORT_COLUMNS) for row in rows)
                for row in rows:
                    k = row["k"]
                    terms = (
                        row["tail_term"],
                        row["gram_term"],
                        (m * n - k * n - 1) * math.log(m / (m - k)),
                        -(n * k + 1) * math.log(n * k),
                    )
                    tol = 1e-12 * sum(map(abs, terms))
                    lower = math.fsum(terms)
                    assert row["lower_total"] == pytest.approx(lower, rel=0, abs=tol)
                    upper = lower + m * k * math.log(2 / (m * epsilon))
                    assert row["upper_total"] == pytest.approx(upper, rel=0, abs=tol)
                for total, key in (("lower_total", "k_lower_opt"), ("upper_total", "k_upper_opt")):
                    best = min(row[total] for row in rows)
                    assert block[key] == min(row["k"] for row in rows if row[total] == best)

    @requires_jsonschema
    def test_report_validates_against_shipped_schema(self, capsys):
        for extra in ([], ["--both-gram-modes"]):
            _, out, _ = _run(LIN10 + extra, capsys)
            jsonschema.validate(json.loads(out), _schema())

    @requires_jsonschema
    def test_csv_report_validates_too(self, capsys):
        _, out, _ = _run(
            ["select", "--input", str(bundled_fixture_path()), "--reproducible"], capsys
        )
        jsonschema.validate(json.loads(out), _schema())

    def test_report_roundtrips_losslessly(self, capsys):
        _, out, _ = _run(LIN10, capsys)
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report


def _expanded(value):
    """*value* with each ScoreTable turned into its list of row dicts over
    the report's columns, the form json.dumps writes."""
    if isinstance(value, ScoreTable):
        columns = [getattr(value, name).tolist() for name in cli.REPORT_COLUMNS]
        return [dict(zip(cli.REPORT_COLUMNS, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {key: _expanded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_expanded(item) for item in value]
    return value


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(1 - 1e-9, 1 + 1e-9),
)


@st.composite
def score_tables(draw):
    """A ScoreTable of 1-40 rows: int k, seven float columns, a gap-ratio
    column of floats and None, as score_stack gives it, and a boolean
    floored column. Only the report's columns are written."""
    rows = draw(st.integers(1, 40))

    def column(elements):
        return draw(st.lists(elements, min_size=rows, max_size=rows))

    floats = [np.array(column(FLOATS), dtype=np.float64) for _ in range(7)]
    gap = np.array(column(st.none() | FLOATS), dtype=object)
    floored = np.array(column(st.booleans()), dtype=bool)
    return ScoreTable(np.arange(1, rows + 1), *floats, gap, floored)


def _nested(depth):
    """Payloads nested up to *depth* containers deep: score tables beside
    strings that need escaping, ints, floats, None and empty containers."""
    node = st.one_of(
        score_tables(),
        st.text(),
        st.sampled_from(['"', "\\", "\n\t\x00", "\u2028", "\ud800", "é"]),
        st.integers(),
        FLOATS,
        st.none(),
        st.booleans(),
        st.just({}),
        st.just([]),
    )
    for _ in range(depth):
        node = st.one_of(
            node,
            st.lists(node, max_size=3),
            st.dictionaries(st.text(), node, max_size=3),
        )
    return node


class TestEncode:
    """cli._encode writes exactly the bytes of json.dumps(indent=2), with
    each ScoreTable written as its list of row dicts."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(payload=st.integers(0, 3).flatmap(_nested))
    def test_equals_indented_json(self, payload):
        assert cli._encode(payload) == json.dumps(_expanded(payload), indent=2, allow_nan=False)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        table=score_tables(),
        column=st.sampled_from(cli.REPORT_COLUMNS[1:-1]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    def test_non_finite_cell_raises_as_json_does(self, table, column, bad, data):
        cells = getattr(table, column)
        cells[data.draw(st.integers(0, len(cells) - 1), label="row")] = bad
        payload = {"per_k": table}
        with pytest.raises(ValueError):
            json.dumps(_expanded(payload), indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            cli._encode(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"flag": True, "off": False, "none": None},
            [2**63, -(2**63) - 1, 2**64, 10**40, -(10**40)],
            {"value": np.float64(0.1), "values": [np.float64(-1e300), np.float64(5e-324)]},
            {"subclass": np.float64(2.0) ** 0.5, "text": "é\u2028"},
        ],
    )
    def test_leaves_written_directly_equal_json(self, payload):
        assert cli._encode(payload) == json.dumps(payload, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "leaf, error",
        [
            (math.nan, ValueError),
            (-math.inf, ValueError),
            (np.float64(math.inf), ValueError),
            (np.int64(3), TypeError),
            (np.bool_(True), TypeError),
        ],
    )
    def test_other_leaves_raise_as_json_does(self, leaf, error):
        payload = {"report": [leaf]}
        with pytest.raises(error):
            json.dumps(payload, indent=2, allow_nan=False)
        with pytest.raises(error):
            cli._encode(payload)


class TestReportBytes:
    """Reports of an exactly low-rank input, whose tails are floored, are
    the bytes json.dumps(indent=2) gives, and the --table rows keep all ten
    columns, of which the report's columns are the JSON per_k rows."""

    @pytest.fixture
    def low_rank(self, tmp_path):
        rng = np.random.default_rng(2)
        x = np.zeros((40, 6))
        x[:, :2] = rng.integers(-9, 10, (40, 2))  # rank 2, the other tails exactly 0
        path = tmp_path / "rank2.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
        return ["--input", str(path), "--raw", "--no-header", "--both-gram-modes", "--reproducible"]

    @staticmethod
    def _blocks(report):
        return [report["per_k"], report["alt"]["per_k"]]

    def test_select_and_table(self, tmp_path, capsys, low_rank):
        table = tmp_path / "table.csv"
        status, out, err = _run(["select", *low_rank, "--table", str(table)], capsys)
        assert status == 0, err
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert all(any(row["floored"] for row in rows) for rows in self._blocks(report))
        with table.open(newline="") as fh:
            header, *cells = csv.reader(fh)
        assert header == list(ScoreTable._fields)  # all ten columns
        kept = [header.index(name) for name in cli.REPORT_COLUMNS]
        assert [[row[i] for i in kept] for row in cells] == [
            [str(v) for v in row.values()] for row in report["per_k"]
        ]

    def test_compare(self, capsys, low_rank):
        status, out, err = _run(["compare", *low_rank, "--lengths", "40,6,25"], capsys)
        assert status == 0, err
        reports = json.loads(out)
        assert out == json.dumps(reports, indent=2) + "\n"
        for report in reports:
            assert all(any(row["floored"] for row in rows) for rows in self._blocks(report))


def _write_gaussian_csv(path, scale):
    x = np.random.default_rng(0).standard_normal((200, 8)) * scale
    lines = [",".join(f"c{j}" for j in range(8))]
    lines += [",".join(repr(float(v)) for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExtremeScales:
    """Energies are taken in log space, so data far outside unit scale
    still gives a finite report rather than an overflow traceback (exit 1)
    or an underflowed gram energy (exit 4)."""

    @staticmethod
    def _reports(path, capsys, command):
        status, out, err = _run(
            command + ["--input", str(path), "--raw", "--both-gram-modes", "--reproducible"],
            capsys,
        )
        assert status == 0 and err == ""
        reports = json.loads(out)
        return reports if command[0] == "compare" else [reports]

    def _check_finite(self, tmp_path, capsys, scale, command):
        units = self._reports(_write_gaussian_csv(tmp_path / "unit.csv", 1.0), capsys, command)
        scaled = self._reports(_write_gaussian_csv(tmp_path / "scaled.csv", scale), capsys, command)
        for unit, report in zip(units, scaled, strict=True):
            for block in (report, report["alt"]):
                for row in block["per_k"]:
                    assert math.isfinite(row["lower_total"]) and math.isfinite(row["upper_total"])
            assert report["baselines"] == unit["baselines"]
            floored = [row["floored"] for row in report["per_k"]]
            # residual energies below the 1e-300 floor are floored and marked
            assert any(floored) == (scale < 1.0)
            assert not any(row["floored"] for row in unit["per_k"])

    # at 1e300 the largest singular value is about 4e301
    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e300, 1e-160, 1e-300])
    def test_select_exits_cleanly_with_finite_totals(self, tmp_path, capsys, scale):
        self._check_finite(tmp_path, capsys, scale, ["select"])

    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e300, 1e-160, 1e-300])
    def test_compare_exits_cleanly_with_finite_totals(self, tmp_path, capsys, scale):
        # m = 8 columns: prefixes of m and m + 1 rows, and either side of
        # the first grid block of 4 * (m + 1) = 36 rows
        self._check_finite(tmp_path, capsys, scale, ["compare", "--lengths", "200,8,9,36,37,100"])

    @requires_jsonschema
    def test_flat_price_column_skips_kaiser_only(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        prices = np.exp(rng.normal(0, 0.01, (200, 6)).cumsum(0)) * 100
        prices[:, 3] = 42.0
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(
            ["a,b,c,d,e,f"] + [",".join(f"{v:.4f}" for v in row) for row in prices]
        ) + "\n")
        status, out, err = _run(["select", "--input", str(p), "--reproducible"], capsys)
        assert status == 0 and err == ""
        report = json.loads(out)
        assert report["baselines"]["kaiser"] is None
        assert "column 4 is constant" in report["baselines"]["skipped"]["kaiser"]
        assert 1 <= report["k_lower_opt"] <= 5
        jsonschema.validate(report, _schema())

    def test_raw_column_of_one_value_skips_kaiser(self, tmp_path, capsys):
        # 0.1 has no exact binary form: the computed standard deviation of
        # this column is rounding noise, yet the column is constant
        x = np.random.default_rng(0).standard_normal((500, 8))
        x[:, 5] = 0.1
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n")
        status, out, err = _run(
            ["select", "--input", str(p), "--raw", "--no-header", "--reproducible"], capsys
        )
        assert status == 0 and err == ""
        report = json.loads(out)
        assert report["baselines"]["kaiser"] is None
        assert "column 6 is constant" in report["baselines"]["skipped"]["kaiser"]


KNEE_TOO_SHORT = "knee detection needs at least 3 scree points, got 2"


class TestTwoColumns:
    """With m = 2 the scree has too few points for a knee: kneedle is
    reported as null with its reason, and the selection still runs."""

    @requires_jsonschema
    @pytest.mark.parametrize(
        "command", [[], ["compare", "--lengths", "10,30"]], ids=["select", "compare"]
    )
    def test_kneedle_skipped(self, tmp_path, capsys, command):
        p = tmp_path / "g.csv"
        x = np.random.default_rng(3).standard_normal((30, 2))
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n")
        argv = (command or ["select"]) + ["--input", str(p), "--raw", "--no-header", "--reproducible"]
        status, out, err = _run(argv, capsys)
        assert status == 0 and err == ""
        reports = json.loads(out)
        for report in reports if command else [reports]:
            assert report["baselines"]["kneedle"] is None
            assert report["baselines"]["skipped"]["kneedle"] == KNEE_TOO_SHORT
            assert isinstance(report["baselines"]["kaiser"], int)
            assert report["k_lower_opt"] == 1
            jsonschema.validate(report, _schema())

    @requires_jsonschema
    def test_both_baselines_skipped(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        x = np.random.default_rng(3).standard_normal((30, 2))
        x[:, 1] = 0.7
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n")
        argv = ["select", "--input", str(p), "--raw", "--no-header", "--reproducible"]
        status, out, err = _run(argv, capsys)
        assert status == 0 and err == ""
        report = json.loads(out)
        assert report["baselines"] == {
            "kaiser": None,
            "kneedle": None,
            "skipped": {
                "kaiser": "column 2 is constant and cannot be standardized",
                "kneedle": KNEE_TOO_SHORT,
            },
        }
        jsonschema.validate(report, _schema())


class TestOneDecompositionPerMatrix:
    """Selection, both gram modes and the baselines read one streamed R
    factor of [X | 1] per analysed matrix. Every SVD is values-only, of a
    stack of at most one chunk of matrices (complexity.STACK_BYTES) with at
    most m + 1 rows, so P prefixes take 2·⌈P/chunk⌉ of them, half for the
    spectra and half for Kaiser. Each input row is factored at most twice,
    once in its grid block and once in the partial block of a prefix,
    whether it enters a Gram product (the Cholesky route these inputs
    take) or a QR."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"svd": [], "rows": []}
        real_svd, real_qr, real_dot = np.linalg.svd, np.linalg.qr, np.dot

        def svd(a, *args, **kwargs):
            calls["svd"].append((a.shape, kwargs.get("compute_uv", True)))
            return real_svd(a, *args, **kwargs)

        def rows(a):
            # input rows are the ones that hold the 1 of [X | 1]; the rows
            # of R and the zero padding do not. Their (distinct) scaled
            # first-column values name them.
            return a[a[:, -1] == 1.0, 0]

        def qr(a, *args, **kwargs):
            calls["rows"].append(rows(a))
            return real_qr(a, *args, **kwargs)

        def dot(a, b, *args, **kwargs):
            if a.base is b:  # the Gram product b^T b
                calls["rows"].append(rows(b))
            return real_dot(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr(np, "dot", dot)
        return calls

    @staticmethod
    def _chunk(m):
        return max(1, complexity.STACK_BYTES // (8 * (m + 1) ** 2))

    def _check(self, calls, m, prefixes, svds, rows):
        assert len(calls["svd"]) == svds
        for shape, uv in calls["svd"]:
            assert len(shape) == 3 and not uv
            assert shape[0] <= min(prefixes, self._chunk(m)) and shape[1] <= m + 1
        seen = Counter(np.concatenate(calls["rows"]).tolist())
        assert len(seen) == rows
        assert max(seen.values()) <= 2

    def test_select_both_gram_modes(self, calls, capsys):
        status, _, _ = _run(LIN10 + ["--both-gram-modes"], capsys)
        assert status == 0
        self._check(calls, m=30, prefixes=1, svds=2, rows=500)

    def test_compare_once_per_prefix(self, calls, capsys):
        status, _, _ = _run(
            ["compare", "--synthetic", "lin", "--n", "500", "--m", "30", "--true-k", "5",
             "--seed", "7", "--lengths", "300,200,500,200", "--reproducible"],
            capsys,
        )
        assert status == 0
        self._check(calls, m=30, prefixes=3, svds=2, rows=500)

    def test_compare_over_more_prefixes_than_one_chunk(self, calls, capsys):
        m = 150
        chunk, step = self._chunk(m), linalg.BLOCK_FACTOR * (m + 1)
        # one prefix ending inside each grid block, so no row is in the
        # partial block of two prefixes
        lengths = [block * step + step // 2 for block in range(chunk + 1)]
        status, _, err = _run(
            ["compare", "--synthetic", "lin", "--n", str(lengths[-1]), "--m", str(m),
             "--true-k", "5", "--seed", "7", "--lengths", ",".join(map(str, lengths)),
             "--reproducible"],
            capsys,
        )
        assert status == 0, err
        svds = 2 * math.ceil(len(lengths) / chunk)  # two chunks
        self._check(calls, m=m, prefixes=len(lengths), svds=svds, rows=lengths[-1])

    def test_scree(self, calls, tmp_path, capsys):
        p = _write_gaussian_csv(tmp_path / "g.csv", 1.0)
        status, _, _ = _run(["scree", "--input", str(p), "--raw"], capsys)
        assert status == 0
        self._check(calls, m=8, prefixes=1, svds=1, rows=200)


class TestScree:
    def test_diagonal_fixture(self, tmp_path, capsys):
        p = _write_diag321(tmp_path)
        status, out, _ = _run(["scree", "--input", str(p), "--raw", "--no-header"], capsys)
        assert status == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["component", "variance"]
        got = [(int(r[0]), float(r[1])) for r in rows[1:]]
        assert got == [(1, 9.0), (2, 4.0), (3, 1.0)]

    def test_normalized_rows_sum_to_one(self, tmp_path, capsys):
        p = _write_diag321(tmp_path)
        status, out, _ = _run(
            ["scree", "--input", str(p), "--raw", "--no-header", "--normalized"], capsys
        )
        assert status == 0
        values = [float(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_planted_rank_shows_spectral_drop(self, capsys):
        status, out, _ = _run(
            ["scree", "--synthetic", "lin", "--n", "60", "--m", "8", "--true-k", "3",
             "--noise", "1e-6", "--seed", "11"],
            capsys,
        )
        assert status == 0
        values = [float(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]]
        assert values[2] / values[3] > 10.0

    def test_no_trailing_delimiter(self, tmp_path, capsys):
        p = _write_diag321(tmp_path)
        _, out, _ = _run(["scree", "--input", str(p), "--raw", "--no-header"], capsys)
        assert not any(line.endswith(",") for line in out.splitlines())


class TestScreeRange:
    """The plain curve squares in linear space; where a nonzero square
    leaves float64, scree exits 4 pointing at --normalized, with no numpy
    warning."""

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_out_of_range_squares_are_a_domain_error(self, tmp_path, capsys, scale):
        p = _write_gaussian_csv(tmp_path / "g.csv", scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = _run(["scree", "--input", str(p), "--raw"], capsys)
        assert status == 4 and out == ""
        assert "--normalized" in err
        status, out, _ = _run(["scree", "--input", str(p), "--raw", "--normalized"], capsys)
        assert status == 0 and "inf" not in out


class TestSpectrumRange:
    """Finite entries whose largest singular value is beyond the float64
    range (about 4.5e308 here): every command exits 4 naming the range,
    writes nothing and shows no numpy warning or traceback. Each runs in a
    new process, so stderr is exactly what a user sees."""

    @pytest.fixture(scope="class", params=["all", "one-column"])
    def huge(self, request, tmp_path_factory):
        """2000 x 5 Gaussian entries, all of them or only column 3 scaled
        by 1e307."""
        x = np.random.default_rng(0).standard_normal((2000, 5))
        x[:, 2 if request.param == "one-column" else slice(None)] *= 1e307
        path = tmp_path_factory.mktemp("range") / f"{request.param}.csv"
        lines = [",".join(f"c{j}" for j in range(5))]
        lines += [",".join(repr(float(v)) for v in row) for row in x]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["select", "--both-gram-modes"], ["select", "--gram-mode", "per_row_sum"],
         ["compare", "--lengths", "100,2000"], ["scree"], ["scree", "--normalized"]],
        ids=["select", "per_row_sum", "compare", "scree", "normalized"],
    )
    def test_exits_4_naming_the_range(self, huge, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "mdlrank.cli", *argv, "--input", huge, "--raw"],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
        assert "float64 range" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


class TestCompare:
    def test_prefix_longer_than_dataset_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        p = tmp_path / "small.csv"
        rows = ["a,b,c"] + [",".join(f"{v:.4f}" for v in row)
                            for row in np.exp(rng.normal(0, 0.01, (51, 3)).cumsum(0)) * 100]
        p.write_text("\n".join(rows) + "\n")
        status, _, err = _run(["compare", "--input", str(p), "--lengths", "100"], capsys)
        assert status == 2 and "100" in err

    def test_two_prefixes_on_planted_rank(self, capsys):
        status, out, _ = _run(
            ["compare", "--synthetic", "lin", "--n", "500", "--m", "30", "--true-k", "5",
             "--noise", "0.1", "--seed", "7", "--lengths", "200,500", "--reproducible"],
            capsys,
        )
        assert status == 0
        reports = json.loads(out)
        assert [r["length"] for r in reports] == [200, 500]
        for r in reports:
            assert {"kaiser", "kneedle"} <= set(r["baselines"])
            assert "k_bracket" in r
        # recorded observation with the shipped seed, not a universal law
        last = reports[-1]
        assert last["baselines"]["kneedle"] <= last["baselines"]["kaiser"]

    @requires_jsonschema
    def test_each_element_validates(self, capsys):
        _, out, _ = _run(
            ["compare", "--synthetic", "lin", "--n", "120", "--m", "6", "--true-k", "2",
             "--noise", "0.05", "--seed", "3", "--lengths", "60,120", "--reproducible"],
            capsys,
        )
        schema = _schema()
        for element in json.loads(out):
            jsonschema.validate(element, schema)

    def test_reports_follow_the_order_of_lengths(self, tmp_path, capsys):
        """Unsorted and repeated lengths come back as given, and each report
        is the select report of that prefix."""
        fixture = bundled_fixture_path()
        lines = fixture.read_text().splitlines(keepends=True)
        status, out, _ = _run(["compare", "--input", str(fixture), "--lengths",
                               "259,100,200,100", "--reproducible"], capsys)
        assert status == 0
        reports = json.loads(out)
        assert [r.pop("length") for r in reports] == [259, 100, 200, 100]
        assert reports[1] == reports[3]
        for length, report in zip([259, 100, 200], reports):
            prefix = tmp_path / f"prefix{length}.csv"
            prefix.write_text("".join(lines[: length + 2]))  # header, length + 1 prices
            status, out, _ = _run(["select", "--input", str(prefix), "--reproducible"], capsys)
            assert status == 0
            expected = json.loads(out)
            assert expected.pop("input") == {**report.pop("input"), "path": str(prefix)}
            assert report == expected

    def test_blas_thread_count_changes_no_selection(self):
        """The BLAS thread count may move the last bits of a report but
        never a selected k, its bracket or a baseline."""
        picks = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", "compare", "--input",
                 str(bundled_fixture_path()), "--lengths", "259,30,100", "--reproducible"],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            keys = ("length", "k_lower_opt", "k_upper_opt", "k_bracket", "baselines")
            picks.append([{key: r[key] for key in keys} for r in json.loads(proc.stdout)])
        assert picks[0] == picks[1]
        assert [p["length"] for p in picks[0]] == [259, 30, 100]

    def test_peak_memory_is_bounded_by_the_report(self, tmp_path):
        """Each report is encoded from its score columns, with no dict per
        per-k row, so 75 prefixes peak at a few times the report's size."""
        rng = np.random.default_rng(8)
        prices = 100 * np.exp(np.cumsum(0.01 * rng.standard_normal((801, 20)), axis=0))
        path = tmp_path / "prices.csv"
        path.write_text("".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in prices))
        report = tmp_path / "r.json"
        argv = ["compare", "--input", str(path), "--no-header", "--reproducible",
                "--lengths", ",".join(map(str, range(60, 800, 10))), "--out", str(report)]
        assert main(argv) == 0  # warm any lazy imports out of the measurement
        tracemalloc.start()
        try:
            status = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak <= 4 * report.stat().st_size

    def test_bad_lengths_are_usage_errors(self, capsys):
        base = ["compare", "--synthetic", "lin", "--n", "50", "--m", "4", "--true-k", "2"]
        for bad in ("abc", "", "0", "3"):  # 3 rows < m = 4 columns
            status, _, err = _run(base + ["--lengths", bad], capsys)
            assert status == 2, bad
        assert "4-column" in err


class TestStreamedReport:
    """compare writes its list of reports one element at a time, so that
    the whole text is never held at once, with the bytes of json.dumps."""

    ARGV = ["compare", "--input", str(bundled_fixture_path()), "--reproducible",
            "--both-gram-modes", "--lengths", "100,60,259,100"]

    def test_one_element_per_write(self, monkeypatch):
        class Recording(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        stream = Recording()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(self.ARGV) == 0
        text = stream.getvalue()
        elements = json.loads(text)
        assert len(elements) == 4
        assert text == json.dumps(elements, indent=2) + "\n"
        # an element's text as the report holds it, every line indented
        longest = max(len(textwrap.indent(json.dumps(e, indent=2), "  ")) for e in elements)
        assert max(map(len, stream.writes)) <= longest < len(text) / 3

    def test_a_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        """A write that fails partway through the staged --out file, after
        the first element, is exit 2 naming the file, and neither it nor
        the staged file is left behind."""
        real_open = cli._open

        class Failing:
            def __init__(self, stream):
                self.stream, self.writes = stream, 0

            def write(self, text):
                self.writes += 1
                if self.writes == 4:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.stream.write(text)

            def flush(self):
                self.stream.flush()

            def close(self):
                self.stream.close()

        def failing_open(path, fd, mode):
            stream, move = real_open(path, fd, mode)
            assert move is not None  # a staged file
            return Failing(stream), move

        monkeypatch.setattr(cli, "_open", failing_open)
        out = tmp_path / "r.json"
        status, stdout, err = _run(self.ARGV + ["--out", str(out)], capsys)
        assert status == 2 and stdout == ""
        assert err == f"mdlrank: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        assert list(tmp_path.iterdir()) == []


class TestCompareEqualsSelect:
    """Each compare element is the select report of its prefix, byte for
    byte, and its k and Kaiser count agree with independent oracles."""

    M = 4
    STEP = 4 * (M + 1)  # rows of one grid block of the streamed R factor
    N = 3 * STEP + 5
    LENGTHS = st.lists(
        st.one_of(
            st.sampled_from([M, M + 1, STEP - 1, STEP, STEP + 1, 2 * STEP - 1, 2 * STEP + 1, N]),
            st.integers(M, N),
        ),
        min_size=1,
        max_size=6,
    )

    # capsys may span examples: _run reads and clears it after every command
    @settings(
        max_examples=25, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        log2_scale=st.integers(-900, 900),
        offsets=st.lists(st.integers(-4, 4), min_size=M, max_size=M),
        data=st.data(),
    )
    def test_each_element_is_the_select_report_of_its_prefix(
        self, tmp_path_factory, capsys, seed, log2_scale, offsets, data
    ):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((self.N, 2)) @ rng.standard_normal((2, self.M))
        base += 0.3 * rng.standard_normal((self.N, self.M))
        cols = np.array(data.draw(st.permutations(range(self.M)), label="cols"))
        y = np.ldexp(base[:, cols], offsets)
        lengths = data.draw(self.LENGTHS, label="lengths")
        work = tmp_path_factory.mktemp("prefixes")
        lines = [",".join(repr(float(v)) for v in row) + "\n" for row in np.ldexp(y, log2_scale)]
        path = work / "x.csv"
        path.write_text("".join(lines))
        flags = ["--raw", "--no-header", "--reproducible"]
        status, out, err = _run(
            ["compare", "--input", str(path), "--lengths", ",".join(map(str, lengths))] + flags,
            capsys,
        )
        assert status == 0, err
        reports = json.loads(out)
        assert [r.pop("length") for r in reports] == lengths
        for length, report in zip(lengths, reports):
            prefix = work / f"prefix{length}.csv"
            prefix.write_text("".join(lines[:length]))
            status, expected, _ = _run(["select", "--input", str(prefix)] + flags, capsys)
            assert status == 0
            report["input"]["path"] = str(prefix)
            assert json.dumps(report, indent=2) + "\n" == expected

            lower, upper, scale = full_gram_totals(y[:length], report["epsilon"], log2_scale)
            tie = 2e-9 * float(np.max(scale))
            assert lower[report["k_lower_opt"] - 1] <= lower.min() + tie
            assert upper[report["k_upper_opt"] - 1] <= upper.min() + tie
            assert report["baselines"]["kaiser"] in kaiser_counts(y[:length])

    def test_prefixes_either_side_of_the_gate(self, tmp_path, capsys, monkeypatch):
        """Early prefixes, whose first two columns are equal but for 1e-9,
        fail the Gram route's gate and take the folds; later ones, past
        the rows that part them, pass it. Each element is still the select
        report of its prefix."""
        rng = np.random.default_rng(24)
        y = rng.standard_normal((self.N, self.M))
        y[:30, 1] = y[:30, 0] + 1e-9 * rng.standard_normal(30)
        routes, real = [], linalg._gram_factor

        def recording(grams):
            factors = real(grams)
            routes.extend("gram" if r is not None else "fold" for r in factors)
            return factors

        monkeypatch.setattr(linalg, "_gram_factor", recording)
        lines = [",".join(repr(float(v)) for v in row) + "\n" for row in y]
        path = tmp_path / "x.csv"
        path.write_text("".join(lines))
        lengths = [self.M, self.STEP - 1, self.STEP, 29, 31, 2 * self.STEP + 1, self.N]
        flags = ["--raw", "--no-header", "--reproducible"]
        status, out, err = _run(
            ["compare", "--input", str(path), "--lengths", ",".join(map(str, lengths))] + flags,
            capsys,
        )
        assert status == 0, err
        assert routes == ["fold"] * 4 + ["gram"] * 3
        for length, report in zip(lengths, json.loads(out)):
            assert report.pop("length") == length
            prefix = tmp_path / f"prefix{length}.csv"
            prefix.write_text("".join(lines[:length]))
            status, expected, _ = _run(["select", "--input", str(prefix)] + flags, capsys)
            assert status == 0
            report["input"]["path"] = str(prefix)
            assert json.dumps(report, indent=2) + "\n" == expected

    def test_both_gram_modes(self, tmp_path, capsys):
        """With both gram modes, the per_row_sum block of each element, whose
        log row energies are taken once for all prefixes, is still its
        prefix's own. A zero row and rows of far apart scales are in every
        prefix but the shortest."""
        rng = np.random.default_rng(26)
        y = rng.standard_normal((self.N, 2)) @ rng.standard_normal((2, self.M))
        y += 0.3 * rng.standard_normal((self.N, self.M))
        y[self.M + 1] = 0.0
        y[self.STEP :: 3] *= 2.0**300
        lines = [",".join(repr(float(v)) for v in row) + "\n" for row in y]
        path = tmp_path / "x.csv"
        path.write_text("".join(lines))
        lengths = [self.N, self.M, self.STEP + 1, 2 * self.STEP - 1, self.STEP + 1]
        flags = ["--raw", "--no-header", "--reproducible", "--both-gram-modes"]
        status, out, err = _run(
            ["compare", "--input", str(path), "--lengths", ",".join(map(str, lengths))] + flags,
            capsys,
        )
        assert status == 0, err
        for length, report in zip(lengths, json.loads(out)):
            assert report.pop("length") == length
            assert report["alt"]["gram_mode"] == "per_row_sum"
            prefix = tmp_path / f"prefix{length}.csv"
            prefix.write_text("".join(lines[:length]))
            status, expected, _ = _run(["select", "--input", str(prefix)] + flags, capsys)
            assert status == 0
            report["input"]["path"] = str(prefix)
            assert json.dumps(report, indent=2) + "\n" == expected


class TestOneStackedPass:
    """select and compare score every prefix in one call of the stacked
    kernel per gram mode, however many prefixes there are."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The stack height of each call of the kernel."""
        calls, real = [], complexity.score_stack

        def spy(spectra, log_gram, epsilon):
            calls.append(len(spectra.n))
            return real(spectra, log_gram, epsilon)

        monkeypatch.setattr(complexity, "score_stack", spy)
        return calls

    @pytest.mark.parametrize("lengths", ["500", "300,200,500,200", ",".join(map(str, range(30, 501, 5)))])
    @pytest.mark.parametrize("modes", [[], ["--both-gram-modes"]])
    def test_compare(self, calls, capsys, lengths, modes):
        status, out, err = _run(
            ["compare", "--synthetic", "lin", "--n", "500", "--m", "30", "--true-k", "5",
             "--seed", "7", "--lengths", lengths, "--reproducible"] + modes,
            capsys,
        )
        assert status == 0, err
        assert calls == [len(set(lengths.split(",")))] * (1 + len(modes))
        assert len(json.loads(out)) == len(lengths.split(","))

    def test_select(self, calls, capsys):
        status, _, err = _run(LIN10 + ["--both-gram-modes"], capsys)
        assert status == 0, err
        assert calls == [1, 1]


class TestGenerate:
    BASE = ["generate", "--kind", "lin", "--n", "10", "--m", "4", "--true-k", "2",
            "--noise", "0", "--seed", "1"]

    def test_written_matrix_has_planted_rank(self, tmp_path, capsys):
        out_csv = tmp_path / "lin.csv"
        assert main(self.BASE + ["--out", str(out_csv)]) == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        matrix = np.array([[float(c) for c in r] for r in rows[1:]])
        assert matrix.shape == (10, 4)
        assert np.linalg.matrix_rank(matrix) == 2

    def test_repeat_runs_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.BASE + ["--out", str(a)]) == 0
        assert main(self.BASE + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == (
            tmp_path / "b.csv.meta.json"
        ).read_bytes()

    def test_sidecar_records_noise_interpretation(self, tmp_path, capsys):
        out_csv = tmp_path / "lin.csv"
        assert main(self.BASE + ["--out", str(out_csv)]) == 0
        meta = json.loads((tmp_path / "lin.csv.meta.json").read_text())
        assert "standard deviation" in meta["generator"]["noise_note"]
        assert meta["generator"]["seed"] == 1

    def test_generated_csv_reloads_through_select(self, tmp_path, capsys):
        out_csv = tmp_path / "lin.csv"
        args = ["generate", "--kind", "lin", "--n", "80", "--m", "6", "--true-k", "2",
                "--noise", "0.01", "--seed", "4", "--out", str(out_csv)]
        assert main(args) == 0
        status, out, _ = _run(
            ["select", "--input", str(out_csv), "--raw", "--reproducible"], capsys
        )
        assert status == 0
        report = json.loads(out)
        assert report["k_bracket"][0] <= 2 <= report["k_bracket"][1]

    def test_result_does_not_depend_on_how_the_matrix_was_made(self, tmp_path, capsys):
        """--synthetic analyses the generator's column-major matrix, --raw
        --input a row-major one parsed from its CSV; on this spec numpy sums
        a column-major row of it in another order. The selections, the
        baselines and the alternative gram mode agree as JSON text."""
        spec = ["--n", "500", "--m", "30", "--true-k", "5", "--seed", "5"]
        path = tmp_path / "lin.csv"
        assert main(["generate", *spec, "--out", str(path)]) == 0
        keys = ("per_k", "k_lower_opt", "k_upper_opt", "k_bracket", "baselines", "alt")
        flags = ["--both-gram-modes", "--reproducible"]
        for command in (["select"], ["compare", "--lengths", "500,30,123,124,125,248,311"]):
            texts = []
            for source in (["--synthetic", "lin", *spec], ["--raw", "--input", str(path)]):
                status, out, err = _run([*command, *source, *flags], capsys)
                assert status == 0, err
                reports = json.loads(out)
                for report in reports if isinstance(reports, list) else [reports]:
                    texts.append(json.dumps({key: report[key] for key in keys}, indent=2))
            half = len(texts) // 2
            assert texts[:half] == texts[half:]

    def test_invalid_spec_is_usage_error(self, capsys):
        status, _, err = _run(
            ["generate", "--kind", "lin", "--n", "10", "--m", "4", "--true-k", "9"], capsys
        )
        assert status == 2 and "synthetic spec" in err

    def test_peak_memory_is_bounded_by_the_matrix(self, tmp_path):
        """Rows go to the file one at a time, so the CSV text is never held
        whole."""
        n, m = 20000, 30
        argv = ["generate", "--n", str(n), "--m", str(m), "--true-k", "5",
                "--out", str(tmp_path / "lin.csv")]
        assert main(argv) == 0  # warm any lazy imports out of the measurement
        tracemalloc.start()
        try:
            status = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak <= 2 * n * m * 8


class TestBadFlagValues:
    """Flag values outside their domain are usage errors (exit 2), whatever
    the input; generate then writes no file."""

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "x"])
    @pytest.mark.parametrize("m", [2, 8])
    def test_kneedle_sensitivity(self, tmp_path, capsys, m, bad):
        p = tmp_path / "g.csv"
        x = np.random.default_rng(5).standard_normal((40, m))
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(p), "--raw", "--no-header",
                  f"--kneedle-sensitivity={bad}"])
        assert exc.value.code == 2
        assert "--kneedle-sensitivity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--noise", "nan"], ["--noise", "inf"], ["--mix-low", "nan"],
         ["--mix-high", "inf"], ["--mix-low=-1e308", "--mix-high", "1e308"],
         ["--seed", "-1"]],
        ids=["noise-nan", "noise-inf", "mix-low-nan", "mix-high-inf", "mix-too-wide",
             "seed-negative"],
    )
    def test_synthetic_spec(self, tmp_path, capsys, flags):
        spec = ["--n", "10", "--m", "4", "--true-k", "2", *flags]
        status, _, err = _run(["select", "--synthetic", "lin", *spec], capsys)
        assert status == 2 and "synthetic spec" in err
        out_csv = tmp_path / "lin.csv"
        status, _, err = _run(["generate", "--kind", "lin", *spec, "--out", str(out_csv)], capsys)
        assert status == 2 and "synthetic spec" in err
        assert list(tmp_path.iterdir()) == []

    def _assert_overflow_is_numerical_error(self, tmp_path, capsys, spec):
        """select and generate on ``spec`` both exit 4 naming the mix range
        and noise_sigma, with no numpy warning; generate writes no file."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, _, err = _run(["select", "--synthetic", "lin", *spec], capsys)
            assert status == 4 and "float64 range" in err and "noise_sigma" in err
            status, _, err = _run(["generate", *spec, "--out", str(tmp_path / "big.csv")], capsys)
        assert status == 4 and "mixed column" in err and "noise_sigma" in err
        assert "Warning" not in err
        assert list(tmp_path.iterdir()) == []

    def test_mix_range_overflowing_a_column(self, tmp_path, capsys):
        """Finite bounds whose mixtures leave float64 are a numerical error
        (exit 4) with no numpy warning; generate then writes no file."""
        spec = ["--n", "50", "--m", "6", "--true-k", "3", "--mix-low=-1e308", "--mix-high", "0"]
        self._assert_overflow_is_numerical_error(tmp_path, capsys, spec)

    def test_noise_overflowing_a_column(self, tmp_path, capsys):
        """A finite noise_sigma that overflows a column under the default mix
        range is the same numerical error, and the message names noise_sigma."""
        spec = ["--n", "50", "--m", "4", "--true-k", "2", "--noise", "1e308"]
        self._assert_overflow_is_numerical_error(tmp_path, capsys, spec)

    @pytest.mark.parametrize("n", [str(10**17), str(10**20)], ids=["1e17", "1e20"])
    @pytest.mark.parametrize(
        "command",
        [["select", "--synthetic", "lin"], ["scree", "--synthetic", "lin"],
         ["compare", "--synthetic", "lin", "--lengths", "10"], ["generate", "--kind", "lin"]],
        ids=["select", "scree", "compare", "generate"],
    )
    def test_oversize_synthetic_shape(self, tmp_path, capsys, command, n):
        """A shape numpy cannot allocate (10**17 rows of 8 bytes are more
        than any machine can map, so the allocation fails at once and no
        memory is touched) or whose size exceeds numpy's dimension limit
        (10**20 rows) is a usage error naming the shape."""
        argv = [*command, "--n", n, "--m", "3", "--true-k", "1", "--out", str(tmp_path / "x")]
        status, _, err = _run(argv, capsys)
        assert status == 2
        assert f"{n} x 3" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error (exit 2)
    with its reason, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--input", "{fixture}", "--out", "{bad}"],
            ["select", "--input", "{fixture}", "--table", "{bad}"],
            ["scree", "--input", "{fixture}", "--out", "{bad}"],
            ["compare", "--input", "{fixture}", "--lengths", "100", "--out", "{bad}"],
            ["generate", "--n", "10", "--m", "4", "--true-k", "2", "--out", "{bad}"],
        ],
        ids=["select-out", "select-table", "scree-out", "compare-out", "generate-out"],
    )
    def test_missing_directory(self, tmp_path, capsys, argv):
        paths = {"fixture": str(bundled_fixture_path()), "bad": str(tmp_path / "missing" / "x")}
        status, _, err = _run([arg.format(**paths) for arg in argv], capsys)
        assert status == 2
        assert "cannot write" in err and "Traceback" not in err

    def test_select_writes_no_report_when_the_table_fails(self, tmp_path, capsys):
        """Every output is opened before any is written, and files replace
        their paths only at the end: a failing --table leaves no report,
        neither a new file nor a changed old one, and prints nothing."""
        report = tmp_path / "r.json"
        bad = str(tmp_path / "missing" / "x.csv")
        base = ["select", "--input", str(bundled_fixture_path()), "--table", bad]
        for out in (["--out", str(report)], ["--out", "-"], []):
            status, stdout, err = _run(base + out, capsys)
            assert status == 2 and stdout == ""
            assert f"cannot write {bad}" in err
            assert list(tmp_path.iterdir()) == []
        report.write_text("kept\n")
        assert _run(base + ["--out", str(report)], capsys)[0] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
        assert report.read_text() == "kept\n"

    @pytest.mark.parametrize("flag", ["--out", "--table"])
    @pytest.mark.parametrize(
        "bad, reason",
        [("loop", errno.ELOOP), ("file.txt/x", errno.ENOTDIR)],
        ids=["symlink-loop", "under-a-file"],
    )
    def test_path_that_cannot_be_resolved(self, tmp_path, capsys, flag, bad, reason):
        """A path that os.stat rejects for a reason other than its absence
        is a usage error naming the path and the reason."""
        (tmp_path / "loop").symlink_to("loop")
        (tmp_path / "file.txt").write_text("kept\n")
        path = str(tmp_path / bad)
        status, stdout, err = _run(["select", "--input", str(bundled_fixture_path()), flag, path], capsys)
        assert status == 2 and stdout == ""
        assert f"mdlrank: cannot write {path}: {os.strerror(reason)}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt", "loop"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--input", "{fixture}", "--out", "d/"],
            ["select", "--input", "{fixture}", "--out", "d//"],
            ["select", "--input", "{fixture}", "--out", "d/."],
            ["select", "--input", "{fixture}", "--out", "d/.."],
            ["select", "--input", "{fixture}", "--out", ""],
            ["select", "--input", "{fixture}", "--table", "d/"],
            ["scree", "--input", "{fixture}", "--out", "d/"],
            ["generate", "--n", "10", "--m", "4", "--true-k", "2", "--out", "d/"],
        ],
        ids=["out-slash", "out-slashes", "out-dot", "out-dotdot", "out-empty",
             "table-slash", "scree-slash", "generate-slash"],
    )
    def test_missing_path_that_names_a_directory(self, tmp_path, capsys, monkeypatch, argv):
        """A missing path whose last component is empty, "." or ".." names
        a directory: a usage error before any file is opened, so no file
        takes the directory's name and nothing is staged beside it."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [arg.format(fixture=bundled_fixture_path()) for arg in argv]
        status, stdout, err = _run(argv, capsys)
        assert status == 2 and stdout == ""
        path = argv[argv.index("--table" if "--table" in argv else "--out") + 1]
        assert f"mdlrank: cannot write {path}: the path does not end in a file name" in err
        assert list(work.iterdir()) == [] and list(tmp_path.iterdir()) == [work]

    @pytest.mark.parametrize("directory", ["lin.csv", "lin.csv.meta.json"])
    def test_generate_leaves_no_file(self, tmp_path, capsys, directory):
        """When either the CSV or its sidecar is an existing directory,
        generate writes neither file."""
        (tmp_path / directory).mkdir()
        argv = ["generate", "--n", "10", "--m", "4", "--true-k", "2",
                "--out", str(tmp_path / "lin.csv")]
        status, _, err = _run(argv, capsys)
        assert status == 2
        assert f"cannot write {tmp_path / directory}" in err
        assert [p.name for p in tmp_path.iterdir()] == [directory]


class TestOutputDestination:
    """Every output writes the same bytes to stdout as to a file."""

    @pytest.mark.parametrize(
        "argv, to_stdout, to_file",
        [
            (["select", "--input", "{fixture}", "--reproducible"], [], ["--out", "{file}"]),
            (["select", "--input", "{fixture}", "--reproducible", "--out", "{report}"],
             ["--table", "-"], ["--table", "{file}"]),
            (["scree", "--input", "{fixture}"], [], ["--out", "{file}"]),
            (["compare", "--input", "{fixture}", "--lengths", "100,200", "--reproducible"],
             [], ["--out", "{file}"]),
            (["generate", "--n", "10", "--m", "4", "--true-k", "2"], ["--out", "-"],
             ["--out", "{file}"]),
        ],
        ids=["select", "select-table", "scree", "compare", "generate"],
    )
    def test_stdout_matches_file(self, tmp_path, capsys, argv, to_stdout, to_file):
        paths = {"fixture": str(bundled_fixture_path()), "file": str(tmp_path / "out"),
                 "report": str(tmp_path / "report.json")}
        status, stdout, _ = _run([a.format(**paths) for a in argv + to_stdout], capsys)
        assert status == 0
        status, _, _ = _run([a.format(**paths) for a in argv + to_file], capsys)
        assert status == 0
        assert stdout.encode("utf-8") == (tmp_path / "out").read_bytes()


class TestOutputTargets:
    """A missing or regular output file gets a new file, moved onto it once
    every output is written; any other path is written as it is."""

    FIXTURE = str(bundled_fixture_path())

    def test_device_is_written_in_place(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        status, out, _ = _run(
            ["select", "--input", self.FIXTURE, "--out", os.devnull, "--table", str(table)], capsys
        )
        assert status == 0 and out == ""
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "scree.fifo"
        os.mkfifo(fifo)
        # a reader first, so that opening the writer does not block; the
        # scree is far smaller than the pipe buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            status, _, _ = _run(["scree", "--input", self.FIXTURE, "--out", str(fifo)], capsys)
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert status == 0 and data.startswith(b"component,variance\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["scree.fifo"]

    def test_link_is_written_through_and_mode_kept(self, tmp_path, capsys):
        real = tmp_path / "real.json"
        real.write_text("old\n")
        real.chmod(0o600)
        link = tmp_path / "link.json"
        link.symlink_to(real.name)
        status, _, _ = _run(["select", "--input", self.FIXTURE, "--out", str(link)], capsys)
        assert status == 0 and link.is_symlink()
        assert json.loads(real.read_text())["tool"] == "mdlrank"
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_stdout_failure_passes_through_and_leaves_no_table(self, tmp_path, monkeypatch):
        class Broken(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Broken())
        with pytest.raises(BrokenPipeError):
            main(["select", "--input", self.FIXTURE, "--table", str(tmp_path / "t.csv")])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", [["--out", "-"], [], ["--out", "/dev/stdout"]],
                             ids=["dash", "default", "dev-stdout"])
    @pytest.mark.parametrize("stdout", ["full", "closed"])
    def test_stdout_write_failure_is_a_usage_error(self, tmp_path, stdout, out):
        """A stdout that is full or closed, however it is named, is exit 2
        with the reason, and the --table file is not left behind."""
        if stdout == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = [sys.executable, "-m", "mdlrank.cli", "select", "--input", self.FIXTURE,
                "--table", str(tmp_path / "t.csv"), *out]
        if stdout == "full":
            with open("/dev/full", "w", encoding="utf-8") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
            reason = errno.ENOSPC
        else:
            proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            reason = errno.EBADF
        assert proc.returncode == 2, proc.stderr
        assert f"mdlrank: cannot write stdout: {os.strerror(reason)}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestCollidingOutputs:
    """Two outputs that reach one file, by name or through a link, or that
    both go to stdout, are a usage error raised before any is opened."""

    FIXTURE = str(bundled_fixture_path())

    @pytest.mark.parametrize("linked", [False, True], ids=["same-path", "link"])
    def test_one_file(self, tmp_path, capsys, linked):
        table = tmp_path / "r.json"
        table.write_text("kept\n")
        out = table
        if linked:
            out = tmp_path / "link.json"
            out.symlink_to(table.name)
        status, stdout, err = _run(
            ["select", "--input", self.FIXTURE, "--out", str(out), "--table", str(table)], capsys
        )
        assert status == 2 and stdout == ""
        assert f"two outputs go to one file, {out} and {table}" in err
        assert table.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({out.name, table.name})

    @pytest.mark.parametrize("out", [["--out", "-"], []], ids=["dash", "default"])
    def test_both_on_stdout(self, tmp_path, capsys, out):
        status, stdout, err = _run(["select", "--input", self.FIXTURE, "--table", "-", *out], capsys)
        assert status == 2 and stdout == ""
        assert "two outputs go to stdout" in err

    @staticmethod
    def _appending_to(path, argv):
        """Run the CLI in a new process whose stdout appends to *path*."""
        with open(path, "a", encoding="utf-8") as stdout:
            return subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", *argv], stdout=stdout,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize(
        "flags",
        [["--table", "/dev/stdout"], ["--out", "/dev/stdout", "--table", "-"],
         ["--out", "/dev/stdout", "--table", "/dev/fd/1"]],
        ids=["table", "out", "two-spellings"],
    )
    def test_stdout_named_by_path(self, tmp_path, flags):
        """/dev/stdout is the file stdout is open on, so it collides with
        stdout: nothing is written and no new file is left beside it."""
        both = tmp_path / "both.txt"
        both.write_text("kept\n")
        proc = self._appending_to(both, ["select", "--input", self.FIXTURE, "--reproducible", *flags])
        assert proc.returncode == 2
        assert "two outputs go to stdout" in proc.stderr
        assert both.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["both.txt"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_stdout_file_is_appended_to_not_replaced(self, tmp_path, capsys):
        """A path to the file stdout appends to is written through stdout."""
        log = tmp_path / "log.txt"
        log.write_text("kept\n")
        proc = self._appending_to(log, ["scree", "--input", self.FIXTURE, "--out", "/dev/stdout"])
        assert proc.returncode == 0, proc.stderr
        status, scree, _ = _run(["scree", "--input", self.FIXTURE], capsys)
        assert status == 0
        assert log.read_text() == "kept\n" + scree
        assert [p.name for p in tmp_path.iterdir()] == ["log.txt"]

    @pytest.mark.parametrize(
        "path",
        ["/dev/stderr", "/dev/fd/2", "/proc/self/fd/2", "{log}", "/dev/fd/{fd}", "/proc/self/fd/{fd}"],
        ids=["dev-stderr", "dev-fd-2", "proc-fd-2", "stderr-file", "dev-fd-n", "proc-fd-n"],
    )
    def test_descriptor_file_is_appended_to_not_replaced(self, tmp_path, capsys, path):
        """A path that names an open descriptor, or the file stderr appends
        to, is written through that descriptor: the file keeps its earlier
        lines and no new file is staged beside it."""
        if not os.path.isdir(os.path.dirname(path) or "."):
            pytest.skip(f"no {os.path.dirname(path)}")
        log = tmp_path / "err.log"
        log.write_text("kept\n")
        with open(log, "a", encoding="utf-8") as err, open(log, "a", encoding="utf-8") as extra:
            out = path.format(log=log, fd=extra.fileno())
            proc = subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", "scree", "--input", self.FIXTURE, "--out", out],
                stdout=subprocess.PIPE, stderr=err, pass_fds=(extra.fileno(),), text=True, timeout=120,
            )
        assert proc.returncode == 0 and proc.stdout == ""
        status, scree, _ = _run(["scree", "--input", self.FIXTURE], capsys)
        assert status == 0
        assert log.read_text() == "kept\n" + scree
        assert [p.name for p in tmp_path.iterdir()] == ["err.log"]

    @pytest.mark.parametrize(
        "path, cwd",
        [("/dev//fd/{fd}", None), ("/proc/thread-self/fd/{fd}", None), ("{fd}", "/dev/fd")],
        ids=["doubled-slash", "thread-self", "relative"],
    )
    def test_descriptor_spelled_another_way_is_appended_to(self, tmp_path, capsys, path, cwd):
        """A descriptor path is told by where its directory resolves to, not
        by its spelling. Stderr is a pipe, so only the path can name the log."""
        directory = cwd or os.path.dirname(path)
        if not os.path.isdir(directory):
            pytest.skip(f"no {directory}")
        # the package by an absolute path, for the child run from cwd
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        log = tmp_path / "log.txt"
        log.write_text("kept\n")
        with open(log, "a", encoding="utf-8") as extra:
            proc = subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", "scree", "--input", self.FIXTURE,
                 "--out", path.format(fd=extra.fileno())],
                capture_output=True, pass_fds=(extra.fileno(),), cwd=cwd, env=env,
                text=True, timeout=120,
            )
        assert proc.returncode == 0 and proc.stdout == "", proc.stderr
        status, scree, _ = _run(["scree", "--input", self.FIXTURE], capsys)
        assert status == 0
        assert log.read_text() == "kept\n" + scree
        assert [p.name for p in tmp_path.iterdir()] == ["log.txt"]

    @pytest.mark.parametrize(
        "target", ["/dev/fd/{fd}", "/proc/self/fd/{fd}", "hop"], ids=["dev-fd-n", "proc-fd-n", "two-hops"],
    )
    def test_symlink_to_a_descriptor_is_appended_to(self, tmp_path, capsys, target):
        """The path's own symlinks are followed one hop at a time, and each
        hop is told by the descriptor rule, so the file behind the
        descriptor keeps its earlier lines."""
        if not os.path.isdir("/dev/fd") or not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /dev/fd or /proc/self/fd")
        log = tmp_path / "log.txt"
        log.write_text("kept\n")
        link = tmp_path / "link"
        with open(log, "a", encoding="utf-8") as extra:
            if target == "hop":
                (tmp_path / "hop").symlink_to(f"/dev/fd/{extra.fileno()}")
                link.symlink_to("hop")
            else:
                link.symlink_to(target.format(fd=extra.fileno()))
            proc = subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", "scree", "--input", self.FIXTURE,
                 "--out", str(link)],
                capture_output=True, pass_fds=(extra.fileno(),), text=True, timeout=120,
            )
        assert proc.returncode == 0 and proc.stdout == "", proc.stderr
        status, scree, _ = _run(["scree", "--input", self.FIXTURE], capsys)
        assert status == 0
        assert log.read_text() == "kept\n" + scree
        assert {p.name for p in tmp_path.iterdir()} == {"log.txt", "link"} | (
            {"hop"} if target == "hop" else set()
        )

    def test_generate_through_a_descriptor_writes_no_sidecar(self, tmp_path, capsys):
        """generate writes its sidecar only beside a staged file."""
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        argv = ["generate", "--n", "5", "--m", "3", "--true-k", "1"]
        target = tmp_path / "g.csv"
        with open(target, "a", encoding="utf-8") as extra:
            proc = subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", *argv, "--out", f"/dev/fd/{extra.fileno()}"],
                capture_output=True, pass_fds=(extra.fileno(),), text=True, timeout=120,
            )
        assert proc.returncode == 0 and proc.stdout == "", proc.stderr
        status, expected, _ = _run(argv, capsys)
        assert status == 0
        assert target.read_text() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]

    # a descriptor the child does not have open, and one open read-only
    @pytest.mark.parametrize("path", ["/dev/fd/987", "/dev/stdin"], ids=["closed", "read-only"])
    def test_unwritable_descriptor_is_a_usage_error(self, tmp_path, path):
        """The file behind the descriptor is not opened anew and replaced."""
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        data = tmp_path / "in.txt"
        data.write_text("kept\n")
        with open(data, encoding="utf-8") as stdin:
            proc = subprocess.run(
                [sys.executable, "-m", "mdlrank.cli", "scree", "--input", self.FIXTURE,
                 "--out", path],
                stdin=stdin, capture_output=True, text=True, timeout=120,
            )
        assert proc.returncode == 2 and f"cannot write {path}" in proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert data.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


class TestErrorTaxonomy:
    @pytest.mark.parametrize("status", [2, 3, 4])
    def test_status_survives_an_unwritable_stderr(self, tmp_path, status):
        """The mdlrank: message is lost when stderr is full, but not the
        documented status."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3,4\n5,6,7,8\n")
        argv = {
            2: ["select", "--input", str(bundled_fixture_path()), "--table", "-"],
            3: ["scree", "--input", str(tmp_path / "missing.csv")],
            4: ["select", "--input", str(wide), "--raw", "--no-header"],
        }[status]
        with open("/dev/full", "w", encoding="utf-8") as full:
            proc = subprocess.run([sys.executable, "-m", "mdlrank.cli", *argv],
                                  stdout=subprocess.PIPE, stderr=full, timeout=120)
        assert proc.returncode == status and proc.stdout == b""

    def test_wide_matrix_is_numerical_error(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n")
        status, _, err = _run(["select", "--input", str(p), "--raw", "--no-header"], capsys)
        assert status == 4 and "numerical" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--input", "{wide}", "--raw", "--no-header"],
            ["scree", "--input", "{wide}", "--raw", "--no-header"],
            ["select", "--synthetic", "lin", "--n", "4", "--m", "5", "--true-k", "2"],
        ],
        ids=["select-raw", "scree-raw", "select-synthetic"],
    )
    def test_wide_matrix_names_its_shape(self, tmp_path, capsys, argv):
        """The message says what the input lacks, not which function
        refused it or what a library caller could do instead."""
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3,4,5\n5,6,7,8,9\n1,1,2,3,4\n0,2,2,2,1\n")
        status, out, err = _run([arg.format(wide=wide) for arg in argv], capsys)
        assert (status, out) == (4, "")
        assert err == "mdlrank: numerical error: need at least as many rows as columns, got 4 x 5\n"

    def test_all_zero_matrix_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text("0,0\n0,0\n0,0\n")
        status, _, err = _run(["select", "--input", str(p), "--raw", "--no-header"], capsys)
        assert status == 3 and "data error" in err

    def test_all_zero_prefix_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        x = np.random.default_rng(4).standard_normal((30, 3))
        x[:10] = 0.0
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in x) + "\n")
        argv = ["compare", "--input", str(p), "--raw", "--no-header", "--lengths"]
        assert _run(argv + ["30,11"], capsys)[0] == 0
        status, out, err = _run(argv + ["30,10"], capsys)
        assert status == 3 and out == "" and "all-zero" in err

    def test_nonpositive_price_without_raw_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "neg.csv"
        p.write_text("1,2\n-3,4\n5,6\n")
        status, _, _ = _run(["select", "--input", str(p), "--no-header"], capsys)
        assert status == 3

    def test_return_beyond_float64_is_numerical_error(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text("1e-320,1\n100,2\n5,6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, _, err = _run(["select", "--input", str(p), "--no-header"], capsys)
        assert status == 4
        assert "data row 1 to 2 in column 1" in err and "Warning" not in err
