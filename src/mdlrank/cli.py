"""Command-line front end: rank selection, scree export, baseline
comparison over dataset prefixes, and synthetic generation.

Exit statuses: 0 success, 2 usage errors, 3 data errors, 4 numerical-domain
errors. All error text goes to stderr; reports go to --out or stdout.
"""

import argparse
import contextlib
import csv
import datetime
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .baselines import correlation_eigenvalues, kaiser, kneedle, scree
from .complexity import GRAM_MODES, ScoreTable, default_epsilon, select_rank
from .datasets import (
    SyntheticSpec,
    generate_lin,
    generator_metadata,
    load_csv,
    load_matrix_csv,
    returns_transform,
)
from .errors import ConvergenceError, DegenerateInputError, DomainError, ParseError
from .linalg import singular_spectrum
from .quantization import validate_epsilon

SCHEMA_VERSION = 2
# the fields that open every JSON document the CLI writes
HEADER = {"schema_version": SCHEMA_VERSION, "tool": "mdlrank", "version": __version__}


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


def _baselines(matrix, spectrum, sensitivity):
    """Kaiser count on correlation eigenvalues plus knee of the scree.

    A baseline that cannot use the input (Kaiser on a constant column, the
    knee on a scree too short to bend) raises DegenerateInputError; it is
    reported as null with the reason under ``skipped``, and the run goes
    on, since the selection does not depend on it.
    """
    rules = {
        "kaiser": lambda: kaiser(correlation_eigenvalues(matrix)),
        "kneedle": lambda: kneedle(scree(spectrum, normalized=True), sensitivity),
    }
    out = {}
    skipped = {}
    for name, rule in rules.items():
        try:
            out[name] = rule()
        except DegenerateInputError as exc:
            out[name] = None
            skipped[name] = str(exc)
    if skipped:
        out["skipped"] = skipped
    return out


def _selection_block(matrix, spectrum, epsilon, gram_mode):
    report = select_rank(matrix, epsilon=epsilon, gram_mode=gram_mode, spectrum=spectrum)
    return {
        "gram_mode": gram_mode,
        "per_k": [
            dict(zip(ScoreTable._fields, row))
            for row in zip(*(column.tolist() for column in report.per_k))
        ],
        "k_lower_opt": report.k_lower_opt,
        "k_upper_opt": report.k_upper_opt,
        "k_bracket": list(report.k_bracket),
    }


def _run_report(args, descriptor, matrix, epsilon):
    n, m = matrix.shape
    spectrum = singular_spectrum(matrix)
    block = _selection_block(matrix, spectrum, epsilon, args.gram_mode)
    out = {
        **HEADER,
        "input": descriptor,
        "n": n,
        "m": m,
        "epsilon": epsilon,
        "generator": descriptor.get("synthetic"),
        "baselines": _baselines(matrix, spectrum, args.kneedle_sensitivity),
    }
    out.update(block)
    if args.both_gram_modes:
        (alt_mode,) = (mode for mode in GRAM_MODES if mode != args.gram_mode)
        out["alt"] = _selection_block(matrix, spectrum, epsilon, alt_mode)
    if not args.reproducible:
        out["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    return out


@contextlib.contextmanager
def _output(path):
    """stdout for no path or "-", otherwise the file at *path*; a file that
    cannot be opened or written is a usage error."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_json(payload, path):
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with _output(path) as fh:
        fh.write(text)


def _emit_csv(path, header, rows):
    """The header, then the rows one by one; csv writes None as an empty cell."""
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_select(args) -> int:
    descriptor, matrix = _load_input(args)
    epsilon = _resolve_epsilon(args.epsilon, matrix.shape[1])
    out = _run_report(args, descriptor, matrix, epsilon)
    _emit_json(out, args.out)
    if args.table is not None:
        _emit_csv(args.table, ScoreTable._fields, (row.values() for row in out["per_k"]))
    return 0


def cmd_scree(args) -> int:
    _, matrix = _load_input(args)
    variances = scree(singular_spectrum(matrix), normalized=args.normalized)
    _emit_csv(args.out, ["component", "variance"], enumerate(variances.tolist(), start=1))
    return 0


def cmd_compare(args) -> int:
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
    reports = []
    for length in lengths:
        out = _run_report(args, descriptor, matrix[:length], epsilon)
        out["length"] = length
        reports.append(out)
    _emit_json(reports, args.out)
    return 0


def cmd_generate(args) -> int:
    spec, matrix = _synthetic(args)
    header = [f"col_{j + 1}" for j in range(spec.m)]
    rows = (row.tolist() for row in matrix)
    if args.out is None or args.out == "-":
        _emit_csv(args.out, header, rows)
        return 0
    # the sidecar first, removed again if the CSV cannot be written, so
    # that a usage error leaves neither file
    sidecar = args.out + ".meta.json"
    _emit_json({**HEADER, "generator": generator_metadata(spec)}, sidecar)
    try:
        _emit_csv(args.out, header, rows)
    except UsageError:
        os.remove(sidecar)
        raise
    return 0


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


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except UsageError as exc:
        print(f"mdlrank: {exc}", file=sys.stderr)
        return 2
    except (ParseError, DegenerateInputError) as exc:
        print(f"mdlrank: data error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConvergenceError) as exc:
        print(f"mdlrank: numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
