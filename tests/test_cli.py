import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mdlrank.cli import main
from mdlrank.datasets import bundled_fixture_path

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

    def test_per_k_rows_follow_the_score_formula_exactly(self, capsys):
        """Every per-k row's derived columns equal, bit for bit, the module
        formula applied to its other columns, and each argmin is the
        smallest k attaining its minimum."""
        status, out, _ = _run(
            ["select", "--input", str(bundled_fixture_path()), "--both-gram-modes",
             "--reproducible"],
            capsys,
        )
        assert status == 0
        report = json.loads(out)
        for block in (report, report["alt"]):
            rows = block["per_k"]
            for row in rows:
                lower, upper = row["lower_total"], row["upper_total"]
                assert lower == (
                    row["tail_term"] + row["gram_term"] + row["ratio_term"] - row["count_term"]
                )
                assert upper == lower + row["delta_upper"]
                assert row["gap_ratio"] == (upper - lower) / abs(lower)
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
    def _select(path, capsys):
        status, out, err = _run(
            ["select", "--input", str(path), "--raw", "--both-gram-modes", "--reproducible"],
            capsys,
        )
        assert status == 0 and err == ""
        return json.loads(out)

    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e-160])
    def test_select_exits_cleanly_with_finite_totals(self, tmp_path, capsys, scale):
        unit = self._select(_write_gaussian_csv(tmp_path / "unit.csv", 1.0), capsys)
        report = self._select(_write_gaussian_csv(tmp_path / "scaled.csv", scale), capsys)
        for block in (report, report["alt"]):
            for row in block["per_k"]:
                assert math.isfinite(row["lower_total"]) and math.isfinite(row["upper_total"])
        assert report["baselines"] == unit["baselines"]
        floored = [row["floored"] for row in report["per_k"]]
        # residual energies below the 1e-300 floor are floored and marked
        assert any(floored) == (scale < 1.0)
        assert not any(row["floored"] for row in unit["per_k"])

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
    """Selection, both gram modes and the baselines share one values-only
    decomposition of each analysed matrix."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_select_both_gram_modes(self, svd_calls, capsys):
        status, _, _ = _run(LIN10 + ["--both-gram-modes"], capsys)
        assert status == 0
        assert svd_calls == [False]

    def test_compare_once_per_prefix(self, svd_calls, capsys):
        status, _, _ = _run(
            ["compare", "--synthetic", "lin", "--n", "500", "--m", "30", "--true-k", "5",
             "--seed", "7", "--lengths", "200,300,500", "--reproducible"],
            capsys,
        )
        assert status == 0
        assert svd_calls == [False, False, False]

    def test_scree(self, svd_calls, tmp_path, capsys):
        p = _write_diag321(tmp_path)
        status, _, _ = _run(["scree", "--input", str(p), "--raw", "--no-header"], capsys)
        assert status == 0
        assert svd_calls == [False]


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

    def test_bad_lengths_are_usage_errors(self, capsys):
        base = ["compare", "--synthetic", "lin", "--n", "50", "--m", "4", "--true-k", "2"]
        for bad in ("abc", "", "0", "3"):  # 3 rows < m = 4 columns
            status, _, err = _run(base + ["--lengths", bad], capsys)
            assert status == 2, bad
        assert "4-column" in err


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

    def test_mix_range_overflowing_a_column(self, tmp_path, capsys):
        """Finite bounds whose mixtures leave float64 are a numerical error
        (exit 4) with no numpy warning; generate then writes no file."""
        spec = ["--n", "50", "--m", "6", "--true-k", "3", "--mix-low=-1e308", "--mix-high", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, _, err = _run(["select", "--synthetic", "lin", *spec], capsys)
            assert status == 4 and "float64 range" in err
            status, _, err = _run(["generate", *spec, "--out", str(tmp_path / "big.csv")], capsys)
        assert status == 4 and "mixed column" in err and "Warning" not in err
        assert list(tmp_path.iterdir()) == []

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


class TestErrorTaxonomy:
    def test_wide_matrix_is_numerical_error(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n")
        status, _, err = _run(["select", "--input", str(p), "--raw", "--no-header"], capsys)
        assert status == 4 and "numerical" in err

    def test_all_zero_matrix_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text("0,0\n0,0\n0,0\n")
        status, _, err = _run(["select", "--input", str(p), "--raw", "--no-header"], capsys)
        assert status == 3 and "data error" in err

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
