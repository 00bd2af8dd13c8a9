"""Command-line front end: rank selection, scree export, baseline
comparison over dataset prefixes, and synthetic generation.

Exit statuses: 0 success, 2 usage errors, 3 data errors, 4 numerical-domain
errors. All error text goes to stderr; reports go to --out or stdout.
"""

import argparse
import contextlib
import csv
import datetime
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys
from fractions import Fraction

import numpy as np

from . import __version__, singular_spectrum
from .baselines import scree
from .complexity import GRAM_MODES, ScoreTable, analyse, default_epsilon
from .datasets import (
    SyntheticSpec,
    generate_lin,
    generator_metadata,
    load_csv,
    load_matrix_csv,
    returns_transform,
)
from .errors import ConvergenceError, DegenerateInputError, DomainError, ParseError
from .quantization import validate_epsilon

SCHEMA_VERSION = 3
# the fields that open every JSON document the CLI writes
HEADER = {"schema_version": SCHEMA_VERSION, "tool": "mdlrank", "version": __version__}
# the per_k columns of a JSON report. The ScoreTable's other four are
# closed forms of the report's n, m and epsilon and the row's k, or of its
# totals (README), so only select --table writes them.
REPORT_COLUMNS = ("k", "tail_term", "gram_term", "lower_total", "upper_total", "floored")


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit status 2."""


def _resolve_epsilon(text: str, m: int) -> float:
    """Exact-rational parse of --epsilon, "auto" meaning 1/(2m); the value
    must then pass validate_epsilon, the one owner of the epsilon rule."""
    if text == "auto":
        value = default_epsilon(m)
    else:
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--epsilon {text!r} is not a rational number") from None
        if frac.numerator != 1:
            raise UsageError(f"--epsilon must be a positive unit fraction 1/q, got {text}")
        value = float(frac)
    try:
        validate_epsilon(value, m)
    except DomainError as exc:
        raise UsageError(f"--epsilon {text}: {exc}") from None
    return value


def _positive_float(text: str) -> float:
    """argparse type of a finite value > 0; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _synthetic(args):
    """The synthetic spec of the flags and its matrix. A bad flag combination
    or a shape too large for numpy to allocate is a usage error, not a crash."""
    if args.n is None or args.m is None or args.true_k is None:
        raise UsageError("--synthetic needs --n, --m and --true-k")
    try:
        spec = SyntheticSpec(
            n=args.n,
            m=args.m,
            true_k=args.true_k,
            noise_sigma=args.noise,
            mix_low=args.mix_low,
            mix_high=args.mix_high,
            seed=args.seed,
        )
    except DomainError as exc:
        raise UsageError(f"invalid synthetic spec: {exc}") from exc
    try:
        return spec, generate_lin(spec)
    except DomainError:
        raise  # a mixture beyond the float64 range is a numerical error
    except (MemoryError, ValueError):
        raise UsageError(
            f"a {spec.n} x {spec.m} synthetic matrix is too large to allocate"
        ) from None


def _load_input(args):
    """Resolve --input/--synthetic into (descriptor, matrix)."""
    if args.synthetic is not None and args.input is not None:
        raise UsageError("--input and --synthetic cannot be used together")
    if args.synthetic is not None:
        spec, matrix = _synthetic(args)
        return {"kind": "synthetic", "synthetic": generator_metadata(spec)}, matrix
    if args.input is None:
        raise UsageError("provide --input PATH or --synthetic lin")
    descriptor = {"kind": "csv", "path": args.input, "raw": bool(args.raw)}
    if args.raw:
        _, matrix = load_matrix_csv(args.input, has_header=args.header)
    else:
        matrix = returns_transform(load_csv(args.input, has_header=args.header))
    return descriptor, matrix


def _run_reports(args, descriptor, matrix, epsilon, lengths):
    """The report of each prefix of *matrix* whose row count is in
    *lengths*, in ascending order of length: the flags' gram modes and
    knee sensitivity go to :func:`~mdlrank.complexity.analyse`, and each
    prefix's analysis comes back as a report dict."""
    modes = [args.gram_mode]
    if args.both_gram_modes:  # the other mode, reported under "alt"
        modes += [mode for mode in GRAM_MODES if mode != args.gram_mode]
    analyses = analyse(matrix, lengths, epsilon, modes, args.kneedle_sensitivity)
    stamp = {}
    if not args.reproducible:
        stamp["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    reports = []
    for spectrum, selections, baselines in analyses:
        block, *alt = ({"gram_mode": mode, **report._asdict()} for mode, report in zip(modes, selections))
        out = {
            **HEADER,
            "input": descriptor,
            "n": spectrum.n,
            "m": matrix.shape[1],
            "epsilon": epsilon,
            "generator": descriptor.get("synthetic"),
            "baselines": baselines,
            **block,
        }
        if alt:
            out["alt"] = alt[0]
        out.update(stamp)
        reports.append(out)
    return reports


# the directories whose numbered entries are this process's open descriptors
_DESCRIPTOR_DIRS = ("/dev/fd", "/proc/self/fd", "/proc/thread-self/fd")
# the entries of /dev that name descriptors 0, 1 and 2
_STANDARD_NAMES = ("stdin", "stdout", "stderr")
# symlinks followed from an output path, as many as Linux follows itself
_MAX_HOPS = 40


def _named_descriptor(path):
    """The descriptor *path* names, or None: by where its directory
    resolves to, however it is spelled, and then the same for each of its
    own symlinks, one hop at a time. A loop ends at the cap, and the
    os.stat of the path then reports it."""
    for _ in range(_MAX_HOPS):
        head, name = os.path.split(path)
        where = os.path.realpath(head or os.curdir)
        if where == os.path.realpath("/dev") and name in _STANDARD_NAMES:
            return _STANDARD_NAMES.index(name)
        if name.isascii() and name.isdigit() and where in map(os.path.realpath, _DESCRIPTOR_DIRS):
            return int(name)
        try:
            path = os.path.join(head, os.readlink(path))
        except OSError:  # not a symlink, or not there
            return None
    return None


def _resolve(path):
    """(path, descriptor, identity, mode) of output *path*, stat-ed once.

    The descriptor is 1 for None or "-", the one a path names
    (:func:`_named_descriptor`), 1 or 2 for a path to the file stdout or
    stderr is open on, and None for any other path. The identity is the
    (device, inode) the output reaches, or the resolved path of a file not
    made yet, or "fd N" for a descriptor with no file.
    The mode is the permission bits of the new file staged for a missing or
    regular file, and None for an output written in place. A path that
    cannot be stat-ed for any reason but its absence is a usage error, and
    so is a missing path whose last component is empty, "." or "..", which
    names a directory that the resolved path would drop."""
    streams = {1: sys.stdout, 2: sys.stderr}

    def identity(fd):
        # 1 and 2 through sys.stdout and sys.stderr (None if closed at startup)
        try:
            info = os.fstat(streams[fd].fileno() if fd in streams else fd)
        except (AttributeError, OSError, ValueError):
            return f"fd {fd}"
        return info.st_dev, info.st_ino

    fd = 1 if path in (None, "-") else _named_descriptor(path)
    if fd is not None:
        return path, fd, identity(fd), None
    try:
        info = os.stat(path)
    except FileNotFoundError:
        if os.path.basename(path) in ("", ".", ".."):
            raise UsageError(f"cannot write {path}: the path does not end in a file name") from None
        return path, None, os.path.realpath(path), 0o666
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    reached = info.st_dev, info.st_ino
    fd = next((fd for fd in streams if identity(fd) == reached), None)
    mode = stat.S_IMODE(info.st_mode) if fd is None and stat.S_ISREG(info.st_mode) else None
    return path, fd, reached, mode


def _open(path, fd, mode):
    """A text stream for a resolved output, and the (new, final) pair of
    paths to move once every output is written, or None. Descriptors 1 and
    2 are written through sys.stdout and sys.stderr, any other through a
    duplicate, which shares its offset and append mode and can be closed
    without closing it. A staged output gets a new file beside its
    resolved path, made with O_EXCL and *mode*; any other path, such as a
    device or a FIFO, is written as it is."""
    if fd in (1, 2):
        stream = (sys.stdout, sys.stderr)[fd - 1]
        if stream is None:  # Python leaves it None when started with it closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return stream, None
    if fd is not None:
        return os.fdopen(os.dup(fd), "w", encoding="utf-8", newline=""), None
    if mode is None:
        return open(path, "w", encoding="utf-8", newline=""), None
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    return os.fdopen(fd, "w", encoding="utf-8", newline=""), (temp, target)


def _write_outputs(outputs):
    """Write each (resolved output, write) pair, *write* taking a text
    stream. A command leaves all of its files or none: every output is
    opened before any is written, and each staged file is moved onto its
    path once all are written. Two outputs that reach one file, or both
    stdout, are a usage error. An OSError on an output is a usage error
    naming it ("stdout" for descriptor 1), except a broken pipe on stdout,
    which passes through."""
    seen = {}
    for (path, fd, identity, _), _ in outputs:
        if identity in seen:
            first, first_fd = seen[identity]
            where = "stdout" if 1 in (fd, first_fd) else f"one file, {first} and {path}"
            raise UsageError(f"two outputs go to {where}")
        seen[identity] = path, fd
    opened = []
    try:
        for (path, fd, _, mode), _ in outputs:
            opened.append(_open(path, fd, mode))
        for ((path, fd, *_), write), (stream, _) in zip(outputs, opened):
            write(stream)
            stream.flush()
        for ((path, fd, *_), _), (stream, move) in zip(outputs, opened):
            if move:
                stream.close()
                os.replace(*move)
    except OSError as exc:
        if fd == 1 and isinstance(exc, BrokenPipeError):
            raise
        raise UsageError(f"cannot write {'stdout' if fd == 1 else path}: {exc.strerror or exc}") from None
    finally:
        for stream, move in opened:
            if stream not in (sys.stdout, sys.stderr):
                with contextlib.suppress(OSError):
                    stream.close()
            if move and os.path.lexists(move[0]):
                os.remove(move[0])


# json.dumps(leaf, allow_nan=False) with one encoder, for the leaves _LEAVES does not write
_json_leaf = json.JSONEncoder(allow_nan=False).encode
# the JSON text of a leaf of each of these exact types; a float only if finite
_LEAVES = {
    str: json.encoder.encode_basestring_ascii,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: float.__repr__,
    type(None): lambda value: "null",
}


def _leaf(value):
    """json.dumps(value, allow_nan=False): a str, bool, int, finite float or
    None written directly, any other leaf, such as a non-finite float or a
    numpy scalar, through json itself."""
    kind = type(value)
    if kind in _LEAVES and (kind is not float or math.isfinite(value)):
        return _LEAVES[kind](value)
    return _json_leaf(value)


def _tokens(column):
    """The JSON text of each cell of one score column, by the _LEAVES entry
    of its type. A non-finite float raises json's own ValueError."""
    values = column.tolist()
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        _leaf(next(value for value in values if not math.isfinite(value)))
    return list(map(_LEAVES[type(values[0])], values))


@functools.lru_cache
def _table_template(pad, ranks):
    """The text of a score table of *ranks* rows, as json.dumps(indent=2)
    writes its list of row dicts over REPORT_COLUMNS on a line indented by
    *pad*: each row's k, which is its 1-based position, written in, and a
    %s slot for each of its other cells."""
    inner = pad + "  "
    fields = "".join(f",\n{inner}  {_leaf(name)}: %s" for name in REPORT_COLUMNS[1:])
    k_key = _leaf(REPORT_COLUMNS[0])
    rows = ",\n".join(f"{inner}{{\n{inner}  {k_key}: {k}{fields}\n{inner}}}" for k in range(1, ranks + 1))
    return f"[\n{rows}\n{pad}]" if rows else "[]"


def _encode(value, pad=""):
    """The text of json.dumps(value, indent=2, allow_nan=False) for string
    keys, reading a ScoreTable, whose k is 1..m-1, as its list of row dicts
    over REPORT_COLUMNS: a table is its template (:func:`_table_template`)
    filled by one % over the row-major cells, with no dict per row, and
    every other leaf is written by :func:`_leaf`. *pad* is the indent of
    the line *value* starts on."""
    inner = pad + "  "
    if isinstance(value, ScoreTable):
        columns = [_tokens(getattr(value, name)) for name in REPORT_COLUMNS[1:]]
        return _table_template(pad, len(value.k)) % tuple(itertools.chain.from_iterable(zip(*columns)))
    if isinstance(value, dict):
        body = ",\n".join(
            f"{inner}{_leaf(key)}: {_leaf(item) if type(item) in _LEAVES else _encode(item, inner)}"
            for key, item in value.items()
        )
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        body, brackets = ",\n".join(inner + _encode(item, inner) for item in value), "[]"
    else:
        return _leaf(value)
    return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}" if body else brackets


def _json(payload):
    """A writer of json.dumps(payload, indent=2) + "\n" that never holds
    the whole text: a list payload, such as compare's reports, is written
    one element at a time."""

    def write(stream):
        if isinstance(payload, list) and payload:
            separator = "[\n  "
            for item in payload:
                stream.write(separator)
                stream.write(_encode(item, "  "))
                separator = ",\n  "
            stream.write("\n]")
        else:
            stream.write(_encode(payload))
        stream.write("\n")

    return write


def _csv(header, rows):
    """The header, then the rows one by one; csv writes None as an empty cell."""

    def write(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    return write


def cmd_select(args) -> list:
    descriptor, matrix = _load_input(args)
    epsilon = _resolve_epsilon(args.epsilon, matrix.shape[1])
    (out,) = _run_reports(args, descriptor, matrix, epsilon, [len(matrix)])
    outputs = [(_resolve(args.out), _json(out))]
    if args.table is not None:
        rows = zip(*(column.tolist() for column in out["per_k"]))
        outputs.append((_resolve(args.table), _csv(ScoreTable._fields, rows)))
    return outputs


def cmd_scree(args) -> list:
    _, matrix = _load_input(args)
    variances = scree(singular_spectrum(matrix), normalized=args.normalized).tolist()
    rows = enumerate(variances, start=1)
    return [(_resolve(args.out), _csv(["component", "variance"], rows))]


def cmd_compare(args) -> list:
    descriptor, matrix = _load_input(args)
    try:
        lengths = [int(tok) for tok in args.lengths.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    if not lengths:
        raise UsageError("--lengths is empty")
    total, width = matrix.shape
    for length in lengths:
        if length > total:
            raise UsageError(f"prefix length {length} exceeds the {total} available rows")
        if length < max(2, width):
            raise UsageError(
                f"prefix length {length} is too short to analyze: a prefix of the "
                f"{width}-column input needs at least {max(2, width)} rows"
            )
    epsilon = _resolve_epsilon(args.epsilon, width)
    # one pass over the sorted distinct lengths, emitted as given
    reports = {}
    for out in _run_reports(args, descriptor, matrix, epsilon, lengths):
        out["length"] = out["n"]
        reports[out["n"]] = out
    return [(_resolve(args.out), _json([reports[length] for length in lengths]))]


def cmd_generate(args) -> list:
    spec, matrix = _synthetic(args)
    header = [f"col_{j + 1}" for j in range(spec.m)]
    out = _resolve(args.out)
    outputs = [(out, _csv(header, (row.tolist() for row in matrix)))]
    *_, mode = out
    if mode is not None:  # the CSV goes to a staged file, so a sidecar goes beside it
        sidecar = {**HEADER, "generator": generator_metadata(spec)}
        outputs.append((_resolve(args.out + ".meta.json"), _json(sidecar)))
    return outputs


def _add_input_flags(sub):
    sub.add_argument("--input", help="CSV input path")
    sub.add_argument(
        "--raw",
        action="store_true",
        help="treat the CSV as a plain numeric matrix; default interprets "
        "columns as prices and analyzes their percent returns",
    )
    sub.add_argument(
        "--header",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="whether the CSV has a header row",
    )
    sub.add_argument("--synthetic", choices=["lin"], help="generate input instead of reading a file")
    _add_spec_flags(sub, required=False)


def _add_spec_flags(sub, required):
    sub.add_argument("--n", type=int, required=required, help="synthetic row count")
    sub.add_argument("--m", type=int, required=required, help="synthetic column count")
    sub.add_argument("--true-k", type=int, dest="true_k", required=required, help="planted source-column count")
    sub.add_argument("--noise", type=float, default=0.1, help="noise standard deviation (default 0.1)")
    sub.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    sub.add_argument("--mix-low", type=float, dest="mix_low", default=-1.0, help="mixing coefficient lower bound")
    sub.add_argument("--mix-high", type=float, dest="mix_high", default=1.0, help="mixing coefficient upper bound")


def _add_select_flags(sub):
    sub.add_argument("--epsilon", default="auto", help="quantization step, a unit fraction like 1/60 or 'auto' for 1/(2m)")
    sub.add_argument("--gram-mode", dest="gram_mode", choices=GRAM_MODES, default="full_gram")
    sub.add_argument("--both-gram-modes", dest="both_gram_modes", action="store_true", help="report both gram aggregations")
    sub.add_argument("--kneedle-sensitivity", dest="kneedle_sensitivity", type=_positive_float, default=1.0)
    sub.add_argument("--reproducible", action="store_true", help="suppress the timestamp for byte-identical output")
    sub.add_argument("--out", help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, and building it is 64 add_argument calls."""
    parser = argparse.ArgumentParser(
        prog="mdlrank",
        description="Select the number of principal components by code-length minimization.",
    )
    parser.add_argument("--version", action="version", version=f"mdlrank {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_select = subs.add_parser("select", help="score every candidate rank and report the argmin bracket")
    _add_input_flags(p_select)
    _add_select_flags(p_select)
    p_select.add_argument("--table", help="also write the per-k table as CSV to this path")
    p_select.set_defaults(func=cmd_select)

    p_scree = subs.add_parser("scree", help="export the explained-variance curve as CSV")
    _add_input_flags(p_scree)
    p_scree.add_argument("--normalized", action="store_true", help="scale variances to sum to 1")
    p_scree.add_argument("--out", help="output path (default stdout)")
    p_scree.set_defaults(func=cmd_scree)

    p_compare = subs.add_parser("compare", help="run selection and baselines over row prefixes")
    _add_input_flags(p_compare)
    _add_select_flags(p_compare)
    p_compare.add_argument("--lengths", required=True, help="comma-separated prefix row counts")
    p_compare.set_defaults(func=cmd_compare)

    p_generate = subs.add_parser("generate", help="write a synthetic planted-rank matrix as CSV")
    p_generate.add_argument("--kind", choices=["lin"], default="lin")
    _add_spec_flags(p_generate, required=True)
    p_generate.add_argument("--out", help="output CSV path (default stdout; file output adds a .meta.json sidecar)")
    p_generate.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_outputs(args.func(args))
    except UsageError as exc:
        status, message = 2, f"mdlrank: {exc}"
    except (ParseError, DegenerateInputError) as exc:
        status, message = 3, f"mdlrank: data error: {exc}"
    except (DomainError, ConvergenceError) as exc:
        status, message = 4, f"mdlrank: numerical error: {exc}"
    else:
        return 0
    # an unwritable stderr loses the message, not the status
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
