import os
import tracemalloc
import warnings

import numpy as np
import pytest

from mdlrank import datasets
from mdlrank import (
    DegenerateInputError,
    DomainError,
    ParseError,
    PriceTable,
    SyntheticSpec,
    frobenius_sq,
    generate_lin,
    load_csv,
    load_matrix_csv,
    returns_transform,
    svd,
    tail_energy,
)


def _table(columns):
    prices = np.array(columns, dtype=np.float64).T
    names = tuple(f"c{j}" for j in range(prices.shape[1]))
    return PriceTable(column_names=names, prices=prices)


class TestReturnsTransform:
    def test_direct_formula(self):
        r = returns_transform(_table([[100.0, 110.0, 99.0]]))
        np.testing.assert_allclose(r[:, 0], [10.0, -10.0])

    def test_constant_prices_give_zero_returns(self):
        r = returns_transform(_table([[50.0, 50.0, 50.0]]))
        np.testing.assert_allclose(r[:, 0], [0.0, 0.0])

    def test_doubling_is_plus_hundred(self):
        for c in (0.01, 1.0, 123.4):
            r = returns_transform(_table([[c, 2.0 * c]]))
            np.testing.assert_allclose(r[:, 0], [100.0])

    def test_roundtrip_reconstructs_prices(self):
        rng = np.random.default_rng(60)
        prices = np.exp(rng.normal(0.0, 0.02, (40, 6)).cumsum(axis=0)) * 50.0
        table = PriceTable(tuple("abcdef"), prices)
        r = returns_transform(table)
        rebuilt = np.empty_like(prices)
        rebuilt[0] = prices[0]
        for i in range(r.shape[0]):
            rebuilt[i + 1] = rebuilt[i] * (1.0 + r[i] / 100.0)
        np.testing.assert_allclose(rebuilt, prices, rtol=1e-9)

    def test_return_beyond_float64_names_rows_and_column(self):
        # 100 / 1e-320 overflows; the true return, 1e324 percent, is past float64
        table = _table([[1e-320, 100.0, 5.0], [1.0, 2.0, 6.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"data row 1 to 2 in column 1 \('c0'\)"):
                returns_transform(table)

    def test_nonpositive_prices_rejected_at_construction(self):
        with pytest.raises(DomainError):
            _table([[100.0, -1.0, 99.0]])
        with pytest.raises(DomainError):
            _table([[100.0, 0.0, 99.0]])

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            PriceTable(("a",), np.array([[100.0]]))

    @pytest.mark.parametrize(
        "names, prices, message",
        [(("a",), np.ones(3), "prices must be 2-D, got ndim=1"),
         (("a", "b", "c"), np.ones((3, 2)), "3 names for 2 columns"),
         (("a",), np.ones((3, 2)), "1 names for 2 columns")],
    )
    def test_shape_checked_at_construction(self, names, prices, message):
        with pytest.raises(DomainError, match=message):
            PriceTable(names, prices)


class TestGenerateLin:
    def test_zero_noise_is_exactly_low_rank(self):
        spec = SyntheticSpec(n=40, m=8, true_k=3, noise_sigma=0.0, seed=5)
        x = generate_lin(spec)
        sv = svd(x).singular_values
        assert np.all(sv[3:] <= 1e-9 * sv[0])
        assert tail_energy(svd(x), 3) <= 1e-16 * frobenius_sq(x)

    def test_identical_seed_bit_identical(self):
        spec = SyntheticSpec(n=500, m=30, true_k=10, noise_sigma=0.1, seed=7)
        a, b = generate_lin(spec), generate_lin(spec)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = generate_lin(SyntheticSpec(n=20, m=5, true_k=2, seed=1))
        b = generate_lin(SyntheticSpec(n=20, m=5, true_k=2, seed=2))
        assert not np.array_equal(a, b)

    def test_spectral_gap_with_shipped_defaults(self):
        spec = SyntheticSpec(n=500, m=30, true_k=5, noise_sigma=0.1, seed=7)
        sv = svd(generate_lin(spec)).singular_values
        assert np.all(sv[5:] * 5.0 < sv[4])

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SyntheticSpec(n=10, m=4, true_k=5)
        with pytest.raises(DomainError):
            SyntheticSpec(n=10, m=4, true_k=2, noise_sigma=-0.1)
        with pytest.raises(DomainError):
            SyntheticSpec(n=10, m=4, true_k=2, mix_low=1.0, mix_high=-1.0)
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"noise_sigma": nan},
            {"noise_sigma": inf},
            {"mix_low": nan},
            {"mix_high": nan},
            {"mix_low": -inf},
            {"mix_high": inf},
            {"mix_low": -1e308, "mix_high": 1e308},  # width overflows float64
        ):
            with pytest.raises(DomainError):
                SyntheticSpec(n=10, m=4, true_k=2, **bad)

    def test_no_rows_rejected(self):
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            SyntheticSpec(n=0, m=4, true_k=2)

    @staticmethod
    def _recipe(spec):
        """The documented recipe on a row-major array, with NaN/Inf kept: the
        sources, then for each mixed column its coefficients and its noise,
        all drawn from one PCG64 stream in that order."""
        rng = np.random.default_rng(spec.seed)
        sources = rng.standard_normal((spec.n, spec.true_k))
        x = np.empty((spec.n, spec.m))
        x[:, : spec.true_k] = sources
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(spec.true_k, spec.m):
                coeffs = rng.uniform(spec.mix_low, spec.mix_high, size=spec.true_k)
                noise = rng.normal(0.0, spec.noise_sigma, size=spec.n)
                x[:, j] = sources @ coeffs + noise
        return x

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(n=500, m=30, true_k=5, seed=5),
            SyntheticSpec(n=40, m=6, true_k=6, seed=3),
            SyntheticSpec(n=60, m=9, true_k=3, noise_sigma=0.0, seed=11),
            SyntheticSpec(n=80, m=12, true_k=4, noise_sigma=2.5, mix_low=-3.0, mix_high=5.0, seed=2),
            SyntheticSpec(n=1, m=4, true_k=1, mix_low=0.5, mix_high=0.5, seed=8),
            SyntheticSpec(n=2000, m=40, true_k=10, seed=2),
        ],
        ids=["default", "all-sources", "noiseless", "mix-range", "one-row", "tall"],
    )
    def test_follows_the_documented_recipe_bit_for_bit(self, spec):
        """The matrix is column-major, and equal bit for bit, the sign of
        every zero included, to the recipe built on a row-major array."""
        x = generate_lin(spec)
        assert x.flags.f_contiguous
        assert x.tobytes() == self._recipe(spec).tobytes()

    def test_mix_overflow_names_the_first_bad_column(self):
        spec = SyntheticSpec(n=5, m=8, true_k=2, mix_low=-1e308, mix_high=0.0, seed=3)
        finite = np.isfinite(self._recipe(spec)).all(axis=0)
        first = int(np.argmin(finite)) + 1
        assert not finite.all() and first > spec.true_k + 1  # not just the first mixed column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^mixed column {first} leaves the float64 range"):
                generate_lin(spec)

    def test_metadata_records_generator_identity(self):
        spec = SyntheticSpec(n=10, m=4, true_k=2, seed=9)
        meta = datasets.generator_metadata(spec)
        assert meta["generator"] == "numpy.random.Generator(PCG64)"
        assert meta["numpy_version"] == np.__version__
        assert meta["seed"] == 9
        assert "standard deviation" in meta["noise_note"]


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("a,b\n1.0,2.0\n1.5,2.5\n2.0,3.0\n")
        table = load_csv(p)
        assert table.column_names == ("a", "b")
        assert table.prices.shape == (3, 2)

    def test_headerless_names_synthesized(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("1.0,2.0\n1.5,2.5\n")
        table = load_csv(p, has_header=False)
        assert table.column_names == ("col_1", "col_2")

    def test_non_numeric_cell_cites_coordinates(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\nabc,2.5\n3.0,3.5\n")
        with pytest.raises(ParseError, match=r"row 2, column 1"):
            load_csv(p, has_header=False)

    def test_header_only_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b\n")
        with pytest.raises(DegenerateInputError, match="2"):
            load_csv(p)

    def test_ragged_row_cites_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1.0,2.0\n1.5\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(p)

    def test_nonpositive_price_cites_coordinates(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("a,b\n1.0,2.0\n1.5,-2.5\n")
        with pytest.raises(ParseError, match=r"row 3, column 2"):
            load_csv(p)

    def test_non_finite_token_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1.0,2.0\ninf,2.5\n")
        with pytest.raises(ParseError, match="row 2, column 1"):
            load_csv(p, has_header=False)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv")


class TestFileLineCoordinates:
    """Blank lines count: an error cites the file line on which the
    offending record starts."""

    @pytest.mark.parametrize(
        "text, load, message",
        [
            ("a,b\n\n1,2\n\nx,3\n", load_matrix_csv, "non-numeric cell 'x' (row 5, column 1)"),
            ("a,b\n\n1,2\n\n\n1.5\n", load_csv, "ragged row: expected 2 cells, got 1 (row 6)"),
            ("\na,b\n1,2\r\n\r\n1.5,-2.5\n", load_csv, "nonpositive price -2.5 (row 5, column 2)"),
            ('a,b\n"1\n",2\nx,3\n', load_matrix_csv, "non-numeric cell 'x' (row 4, column 1)"),
            ("a,b\n1,2\n\n3,nan\n", load_csv, "non-finite cell 'nan' (row 4, column 2)"),
            ("a,b\n1,2\n\n3,nan\n", load_matrix_csv, "non-finite cell 'nan' (row 4, column 2)"),
            ("a,b\n\n-inf,2\n3,4\n", load_csv, "non-finite cell '-inf' (row 3, column 1)"),
            ("a,b\n\ninf,2\n3,4\n", load_matrix_csv, "non-finite cell 'inf' (row 3, column 1)"),
        ],
        ids=["bad-cell", "ragged-row", "nonpositive-price", "after-multi-line-record",
             "price-nan", "matrix-nan", "price-minus-inf", "matrix-inf"],
    )
    def test_error_cites_file_line(self, tmp_path, text, load, message):
        p = tmp_path / "blanks.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with pytest.raises(ParseError) as info:
            load(p)
        assert str(info.value) == message


class TestUnreadableFile:
    """Decoding and csv-module failures are data errors, not tracebacks."""

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"a,b\n1,2\n\xff,3\n")
        with pytest.raises(ParseError, match="cannot read"):
            load_matrix_csv(p)

    def test_field_over_csv_limit(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("a,b\n1," + "1" * 200_000 + "\n2,3\n")
        with pytest.raises(ParseError, match="cannot read"):
            load_csv(p)


def _write_prices(path, rows, cols, header=True):
    prices = np.exp(np.random.default_rng(64).normal(0, 0.01, (rows, cols)).cumsum(0)) * 500
    lines = [",".join(f"p{j + 1}" for j in range(cols))] if header else []
    lines += [",".join(f"{v:.4f}" for v in row) for row in prices]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestVectorisedRead:
    """Well-formed files take one loadtxt pass; the scanner runs only for
    files that pass needs its verdict on."""

    @staticmethod
    def _read_without_the_scanner(monkeypatch, paths, header, expected):
        """Both loaders read each of *paths* to the scanner's *expected*
        names and bytes without calling the scanner."""

        def scanner(*args):
            raise AssertionError("the scanner ran on a well-formed file")

        monkeypatch.setattr(datasets, "_parse_cells", scanner)
        want = np.array([r for _, r in expected[1]], dtype=np.float64)
        for path in paths:
            table = load_csv(path, has_header=header)
            names, matrix = load_matrix_csv(path, has_header=header)
            assert table.column_names == names == expected[0]
            assert table.prices.tobytes() == matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("header", [True, False])
    def test_well_formed_files_skip_the_scanner(self, tmp_path, monkeypatch, header):
        """A leading byte-order mark, as Excel's "CSV UTF-8" writes, changes
        neither the names nor the values."""
        p = _write_prices(tmp_path / "p.csv", 30, 4, header=header)
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + p.read_text(), encoding="utf-8")
        expected = datasets._parse_cells(p, header)
        self._read_without_the_scanner(monkeypatch, (p, bom), header, expected)

    @pytest.mark.parametrize("header", [True, False])
    def test_blank_lines_around_the_header_skip_the_scanner(self, tmp_path, monkeypatch, header):
        """loadtxt skips exactly the lines the header read took, blank ones
        of every line end included."""
        first, rest = _write_prices(tmp_path / "p.csv", 30, 4, header=header).read_text().split("\n", 1)
        text = "\n\r\n\r" + first + "\r\n" + "\r\n\n\r" + rest
        paths = (tmp_path / "blank.csv", tmp_path / "bom.csv")
        for path, bom in zip(paths, ("", "\ufeff")):
            path.write_text(bom + text, encoding="utf-8", newline="")
        expected = datasets._parse_cells(paths[0], header)
        assert len(expected[1]) == 30
        self._read_without_the_scanner(monkeypatch, paths, header, expected)

    @pytest.mark.parametrize("header", [True, False])
    def test_loadtxt_is_handed_the_path(self, tmp_path, monkeypatch, header):
        """A path, not an open file: numpy then reads the text in blocks."""
        p = _write_prices(tmp_path / "p.csv", 30, 4, header=header)
        real, firsts = np.loadtxt, []

        def spy(fname, *args, **kwargs):
            firsts.append(fname)
            return real(fname, *args, **kwargs)

        monkeypatch.setattr(datasets.np, "loadtxt", spy)
        assert datasets._read_fast(p, header) is not None
        assert len(firsts) == 1 and isinstance(firsts[0], (str, os.PathLike))

    @pytest.mark.parametrize("name", ["p.gz", "http://host/p.csv"])
    def test_names_numpy_would_not_read_as_text_go_to_the_scanner(self, tmp_path, monkeypatch, name):
        """Handed such a path, numpy would decompress the file by its suffix
        or fetch it as a URL; the scanner reads it as the plain text it is."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        p = _write_prices(tmp_path / name, 30, 4)
        expected = datasets._parse_cells(p, True)

        real = np.loadtxt

        def refuse(fname, *args, **kwargs):
            assert not isinstance(fname, (str, os.PathLike)), "np.loadtxt was handed the path"
            return real(fname, *args, **kwargs)

        monkeypatch.setattr(datasets.np, "loadtxt", refuse)
        names, matrix = load_matrix_csv(name)
        assert names == expected[0]
        assert matrix.tobytes() == np.array([r for _, r in expected[1]]).tobytes()

    @pytest.mark.parametrize("load", [load_csv, load_matrix_csv])
    def test_one_finiteness_pass_per_file(self, tmp_path, monkeypatch, load):
        """A well-formed file's matrix is checked finite once: by
        load_matrix_csv itself, or by the PriceTable that load_csv makes."""
        p = _write_prices(tmp_path / "p.csv", 30, 4)
        real, passes = np.isfinite, []

        def counting(x, *args, **kwargs):
            passes.append(np.shape(x) == (30, 4))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        load(p)
        assert passes.count(True) == 1

    def test_cells_only_float_accepts_fall_back_to_the_scanner(self, tmp_path):
        p = tmp_path / "odd.csv"
        p.write_text('a,b\n1_0,"2"\n\uff13,4\n', encoding="utf-8")
        names, matrix = load_matrix_csv(p)
        assert names == ("a", "b")
        np.testing.assert_array_equal(matrix, [[10.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("load", [load_csv, load_matrix_csv])
    def test_header_only_file_warns_nothing(self, tmp_path, load):
        p = tmp_path / "header.csv"
        p.write_text("a,b\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError):
                load(p)

    def test_parse_peak_memory_is_bounded_by_the_result(self, tmp_path):
        p = _write_prices(tmp_path / "p.csv", 2000, 40)
        load_csv(p)  # warm any lazy imports out of the measurement
        tracemalloc.start()
        try:
            table = load_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.prices.nbytes


class TestLoadMatrixCsv:
    def test_signed_entries_allowed(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,y\n-1.0,0.0\n2.0,-3.0\n")
        names, matrix = load_matrix_csv(p)
        assert names == ("x", "y")
        np.testing.assert_allclose(matrix, [[-1.0, 0.0], [2.0, -3.0]])

    def test_empty_data_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,y\n")
        with pytest.raises(DegenerateInputError):
            load_matrix_csv(p)

