"""Data ingestion, the percent-returns transform and seeded synthetic
generators with planted linear structure."""

import csv
import importlib.resources
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, ParseError


@dataclass(frozen=True)
class PriceTable:
    """Strictly positive prices; rows are trading periods in order."""

    column_names: tuple
    prices: np.ndarray

    def __post_init__(self):
        p = self.prices
        if p.ndim != 2:
            raise DomainError(f"prices must be 2-D, got ndim={p.ndim}")
        if p.shape[0] < 2:
            raise DegenerateInputError(
                f"need at least 2 price rows to form returns, got {p.shape[0]}"
            )
        if len(self.column_names) != p.shape[1]:
            raise DomainError(
                f"{len(self.column_names)} names for {p.shape[1]} columns"
            )
        if not np.all(np.isfinite(p)):
            raise DomainError("prices must be finite")
        if not np.all(p > 0):
            raise DomainError("prices must be strictly positive")


def returns_transform(table: PriceTable) -> np.ndarray:
    """Percent change between consecutive rows: 100*(c[i+1] - c[i])/c[i].

    A return beyond the float64 range (a tiny price followed by an ordinary
    one) raises DomainError naming its data rows, counted from 1 without the
    header, and its column.
    """
    p = table.prices
    with np.errstate(over="ignore"):
        returns = 100.0 * (p[1:] - p[:-1]) / p[:-1]
    if not np.isfinite(returns).all():
        i, j = np.argwhere(~np.isfinite(returns))[0]
        raise DomainError(
            f"the percent return from data row {i + 1} to {i + 2} in column "
            f"{j + 1} ({table.column_names[j]!r}) is beyond the float64 range"
        )
    return returns


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a planted-rank matrix.

    The first ``true_k`` columns are sources; the rest are random mixtures
    of the sources plus Gaussian noise. ``noise_sigma`` is the noise
    standard deviation.
    """

    n: int
    m: int
    true_k: int
    noise_sigma: float = 0.1
    mix_low: float = -1.0
    mix_high: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.true_k <= self.m:
            raise DomainError(f"true_k={self.true_k} outside [1, m={self.m}]")
        if not 0 <= self.noise_sigma < math.inf:
            raise DomainError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.mix_low > self.mix_high:
            raise DomainError(
                f"mix range is empty: [{self.mix_low}, {self.mix_high}]"
            )
        # a NaN or infinite bound also makes the width non-finite
        if not math.isfinite(self.mix_high - self.mix_low):
            raise DomainError(
                f"mix range [{self.mix_low}, {self.mix_high}] needs finite bounds "
                "and a width within the float64 range"
            )


def generate_lin(spec: SyntheticSpec) -> np.ndarray:
    """Generate the planted-rank matrix described by *spec*.

    The sources are i.i.d. standard normal from the seeded generator. The
    same spec always produces the bit-identical matrix. It is column-major
    (Fortran order), so each column is written where it is made.
    """
    rng = np.random.default_rng(spec.seed)
    sources = rng.standard_normal((spec.n, spec.true_k))
    # filled column by column in place, so the matrix is held only once
    x = np.empty((spec.n, spec.m), order="F")
    x[:, : spec.true_k] = sources
    noise = np.empty(spec.n)
    # finite but huge mix bounds can carry a mixture past the float64 range
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(spec.true_k, spec.m):
            coeffs = rng.uniform(spec.mix_low, spec.mix_high, size=spec.true_k)
            # rng.normal(0.0, sigma) drawn in place: it is 0.0 + sigma * z,
            # and adding 0.0 turns a -0.0 product into +0.0 as it does
            rng.standard_normal(out=noise)
            noise *= spec.noise_sigma
            noise += 0.0
            col = x[:, j]
            np.dot(sources, coeffs, out=col)
            col += noise
            if not np.isfinite(col).all():
                raise DomainError(
                    f"mixed column {j + 1} leaves the float64 range with mix range "
                    f"[{spec.mix_low}, {spec.mix_high}] and noise_sigma {spec.noise_sigma}"
                )
    return x


def generator_metadata(spec: SyntheticSpec) -> dict:
    """Reproducibility metadata embedded in reports and sidecar files."""
    return {
        "generator": "numpy.random.Generator(PCG64)",
        "numpy_version": np.__version__,
        "kind": "lin",
        "n": spec.n,
        "m": spec.m,
        "true_k": spec.true_k,
        "noise_sigma": spec.noise_sigma,
        "noise_note": (
            "noise_sigma is the standard deviation of the additive Gaussian noise"
        ),
        "mix_low": spec.mix_low,
        "mix_high": spec.mix_high,
        "seed": spec.seed,
        "source_columns": "seeded standard normal",
    }


def _read_fast(path, has_header):
    """One ``np.loadtxt`` read of a numeric CSV, handed the file's path.

    Returns (names, matrix) with at least one row and every row as wide as
    the names; returns None whenever the file needs the scanner's verdict
    instead (a cell loadtxt cannot convert, a ragged row, no data, a quoted
    header, an unreadable file). Its cells may be NaN or infinite: each
    caller checks them once, and sends such a file to the scanner.

    loadtxt gets the path, not an open file: it opens a path itself and
    its C reader pulls the text in blocks, where a file object costs one
    Python string and one reader call per line. It skips the physical
    lines the header read took; both count lines the same way, as
    universal newlines do. The file is opened twice, so only a regular
    file takes this read: a second open of a pipe would miss what the
    first one buffered, and the scanner reads its input once. A name
    numpy would decompress by its suffix (or fetch, as a URL) goes to
    the scanner too, which reads every file as plain text.
    """
    path = os.fsdecode(path)
    if (
        not os.path.isfile(path)
        or path.endswith((".gz", ".bz2", ".xz", ".lzma"))
        or "://" in path
    ):
        return None
    try:
        names, skip = None, 0
        if has_header:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                line = fh.readline()
                skip = 1
                while line and not line.strip("\r\n"):  # csv drops blank lines
                    line = fh.readline()
                    skip += 1
            if not line or '"' in line:
                return None
            names = tuple(cell.strip() for cell in next(csv.reader([line])))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            matrix = np.loadtxt(
                path, delimiter=",", comments=None, quotechar=None, ndmin=2,
                dtype=np.float64, skiprows=skip, encoding="utf-8-sig",
            )
    except (OSError, ValueError, csv.Error):
        return None
    if names is None:
        names = tuple(f"col_{j + 1}" for j in range(matrix.shape[1]))
    if matrix.shape[0] == 0 or matrix.shape[1] != len(names):
        return None
    return names, matrix


def _parse_cells(path, has_header):
    """Shared CSV scanner: returns (names, rows of floats), with 1-based
    file coordinates on any parse failure. A row number is the file line
    on which its record starts."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            raw = []
            first_line = 1
            for record in reader:
                if record:  # drop blank lines
                    raw.append((first_line, record))
                first_line = reader.line_num + 1
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise ParseError(f"{path} is empty")
    start = 0
    if has_header:
        names = tuple(cell.strip() for cell in raw[0][1])
        start = 1
    else:
        names = tuple(f"col_{j + 1}" for j in range(len(raw[0][1])))
    width = len(names)
    rows = []
    for line, record in raw[start:]:
        if len(record) != width:
            raise ParseError(
                f"ragged row: expected {width} cells, got {len(record)}", row=line
            )
        parsed = []
        for j, cell in enumerate(record):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric cell {cell!r}", row=line, col=j + 1) from None
            if not np.isfinite(value):
                raise ParseError(f"non-finite cell {cell!r}", row=line, col=j + 1)
            parsed.append(value)
        rows.append((line, parsed))
    return names, rows


def load_csv(path, has_header: bool = True) -> PriceTable:
    """Load a comma-separated price table: finite, strictly positive reals."""
    fast = _read_fast(path, has_header)
    if fast is not None:
        try:
            return PriceTable(column_names=fast[0], prices=fast[1])
        except (DegenerateInputError, DomainError):
            pass  # the scanner names the rule the file breaks, with its coordinates
    names, rows = _parse_cells(path, has_header)
    if len(rows) < 2:
        raise DegenerateInputError(
            f"{path} has {len(rows)} data rows; need at least 2 to form returns"
        )
    for file_row, parsed in rows:
        for j, value in enumerate(parsed):
            if value <= 0:
                raise ParseError(
                    f"nonpositive price {value}", row=file_row, col=j + 1
                )
    prices = np.array([parsed for _, parsed in rows], dtype=np.float64)
    return PriceTable(column_names=names, prices=prices)


def load_matrix_csv(path, has_header: bool = True):
    """Load a comma-separated numeric matrix (any finite reals).

    Returns (column_names, matrix).
    """
    fast = _read_fast(path, has_header)
    if fast is not None and np.isfinite(fast[1]).all():
        return fast
    names, rows = _parse_cells(path, has_header)
    if not rows:
        raise DegenerateInputError(f"{path} has no data rows")
    return names, np.array([parsed for _, parsed in rows], dtype=np.float64)


def bundled_fixture_path():
    """Path of the shipped 30-column synthetic price fixture."""
    return importlib.resources.files("mdlrank") / "fixtures" / "prices30.csv"
