"""Command-line surface: fit, evaluate, condition, sample, compare.

Subcommands
-----------
fit          train a model on a headerless CSV of samples
density      evaluate a model on a grid or at points from a CSV
conditional  write the child model for ``--on idx=value[,...]``
sample       draw seeded samples to CSV
mse          mean squared difference of the density columns of two CSVs
student      generate Student-t samples / evaluate analytic conditionals

Exit codes: 0 success, 1 validation or data error, 2 usage error.  Every
setting comes from its flag.  Every theta sum is certified to the package's
fixed relative tolerance, 1e-12.  Data and point CSVs with no rows, with
cells that are not numbers or with NaN or infinite values in the columns
used, column indices outside a CSV, model files that are not UTF-8 JSON or
have a missing or ill-typed field, flag items that do not parse, non-finite
``--grid`` bounds, a ``--grid`` whose dimension count is not the width of the
model or of the conditional or whose nodes multiply past ``GRID_POINT_CAP``,
a ``--count`` whose draws hold more than ``DRAW_VALUE_CAP`` values, ``--on``
values or Student-t parameters, and requests too large to allocate are
rejected as data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import re
import sys
import time
import warnings

import numpy as np

from . import __version__, pool
from .density import condition_on, log_pdf_many
from .errors import RtbmError
from .fit import FitConfig, fit_density
from .model import load_model, save_model, validate, write_atomic, write_json
from .oracle import (StudentTParams, conditional_logpdf, sample_student,
                     student_conditional)
from .sampling import RNG_NAME, sample_visible
from .theta import Lattice

GRID_POINT_CAP = 1 << 22    # most points a --grid may mesh: 4,194,304
DRAW_VALUE_CAP = 1 << 24    # most values (--count x width) a sample command may draw
CSV_BLOCK_ROWS = 1 << 14    # most rows of an output formatted in one block, in-process
CSV_ITEM_ROWS = 1 << 12     # rows of each block of a longer output, made on the pool
CSV_BATCH_ITEMS = 16        # blocks of a longer output made per batch, held as text at once


def conditional_mse(reference, candidate) -> float:
    """Mean squared difference of two aligned density-value arrays."""
    reference = np.asarray(reference, dtype=float).ravel()
    candidate = np.asarray(candidate, dtype=float).ravel()
    if reference.shape != candidate.shape or reference.size == 0:
        raise ValueError("reference and candidate must have equal nonzero length")
    return float(np.mean((reference - candidate) ** 2))


def _write_csv(path, rows, count=None):
    """Write ``rows`` as ``np.savetxt(fmt="%.17g", delimiter=",")`` would, byte for byte.

    ``rows`` is an array of rows, or a function giving the rows of a slice of
    the output's ``count`` rows.  Each block of rows is one ``%`` of the row
    format, repeated per row, against the block's values as Python floats
    (whose ``%.17g`` is the one savetxt applies to each numpy float).  An
    output of at most ``CSV_BLOCK_ROWS`` rows is one block, made in this
    process.  A longer one is cut into blocks of ``CSV_ITEM_ROWS`` rows, which
    :func:`rtbm.pool.scorer` makes and formats on one process per CPU,
    ``CSV_BATCH_ITEMS`` at a time, so that only those are held as text.
    """
    if not callable(rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        count, rows = rows.shape[0], rows.__getitem__

    def text(part):
        block = rows(part)
        line = ",".join(["%.17g"] * block.shape[1]) + "\n"
        return (line * block.shape[0]) % tuple(block.ravel().tolist())

    def write(fh):
        step = CSV_ITEM_ROWS if count > CSV_BLOCK_ROWS else max(count, 1)
        parts = [slice(i, i + step) for i in range(0, count, step)]
        with pool.scorer(text, min(len(parts), CSV_BATCH_ITEMS)) as score:
            for first in range(0, len(parts), CSV_BATCH_ITEMS):
                fh.writelines(score(parts[first:first + CSV_BATCH_ITEMS]))
    write_atomic(path, write)


def _density_rows(pts, logp):
    """The density CSV's rows: each point's coordinates, density and log-density."""
    return np.column_stack([pts, np.exp(logp), logp])


def _line_of_row(path, row):
    """The line of ``path``, from 1, of its data row ``row``, from 1.

    ``np.loadtxt`` counts as rows the lines that are not empty and do not
    start with ``#``; its errors and the NaN check count data rows.
    """
    with open(path, encoding="latin-1") as fh:     # any bytes, the same line ends
        lines = (i for i, line in enumerate(fh, 1) if line[:1] not in ("\n", "#"))
        return next(itertools.islice(lines, row - 1, None), row)


def _read_csv(path, cols=None):
    """The rows of a headerless CSV; an error names the file and the line, from 1, of a row."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:       # a cell that is not a number, among others
        # numpy counts a bad cell's data row from 0, a changed column count's from 1
        message = re.sub(r"at row (\d+)(, column)?", lambda m: (
            f"at row {_line_of_row(path, int(m[1]) + bool(m[2]))}{m[2] or ''}"), str(exc))
        raise RtbmError(f"{path}: {message}") from None
    if data.shape[0] == 0:
        raise RtbmError(f"{path}: no data rows")
    if cols is not None:
        width = data.shape[1]
        outside = [c for c in cols if not -width <= c < width]
        if outside:
            raise RtbmError(f"{path}: column {outside[0]} is out of range "
                            f"for its {width} column(s)")
        data = data[:, cols]
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise RtbmError(f"{path}: {bad.size} row(s) with NaN or infinite values, "
                        f"first at row {_line_of_row(path, bad[0] + 1)}")
    return data


def _comma_items(spec, parse, what):
    """``parse`` of each comma-separated item of ``spec``; the ValueError of
    an item it rejects is re-raised as "``what`` '<item>': <reason>"."""
    values = []
    for item in spec.split(","):
        try:
            values.append(parse(item))
        except ValueError as exc:
            raise ValueError(f"{what} {item!r}: {exc}") from None
    return values


def _number(kind, text):
    """``kind(text)`` for ``kind`` int or float; a ValueError saying which it is not."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError("not an integer" if kind is int else "not a number") from None


def _grid_component(part):
    """(lo, hi, nodes) of one 'lo:hi:nodes' component of a ``--grid``."""
    pieces = part.split(":")
    if len(pieces) != 3:
        raise ValueError("want lo:hi:nodes")
    lo, hi, nodes = _number(float, pieces[0]), _number(float, pieces[1]), _number(int, pieces[2])
    if nodes < 2 or not lo < hi:
        raise ValueError("need lo < hi, nodes >= 2")
    if not np.isfinite(hi - lo):    # an infinite bound, or a span past the range
        raise ValueError("lo, hi and hi - lo must be finite")
    return lo, hi, nodes


def _grid_points(spec, width):
    """The (points, width) rows of a ``--grid`` over ``width`` coordinates.

    Its dimension count and its number of points are checked against
    ``width`` and ``GRID_POINT_CAP`` before anything is meshed, so a bad
    request fails naming the flag without allocating its rows.
    """
    parts = _comma_items(spec, _grid_component, "bad grid component")
    if len(parts) != width:
        raise ValueError(f"--grid has {len(parts)} dimension(s), expected {width}")
    count = math.prod(nodes for _, _, nodes in parts)
    if count > GRID_POINT_CAP:
        raise ValueError(f"--grid has {count} points, above the cap of {GRID_POINT_CAP}")
    mesh = np.meshgrid(*(np.linspace(*part) for part in parts), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _draw_count(count, width):
    """``--count`` checked against ``DRAW_VALUE_CAP`` before anything is drawn.

    A draw of ``width`` coordinates holds ``width`` values, and all of them
    are drawn at once, so the cap bounds the memory of the draws.
    """
    if count * width > DRAW_VALUE_CAP:
        raise ValueError(f"--count {count} draws {count * width} values, "
                         f"above the cap of {DRAW_VALUE_CAP}")
    return count


def _on_component(part):
    """(index, value) of one 'idx=value' component of an ``--on``."""
    if "=" not in part:
        raise ValueError("want idx=value")
    idx, val = part.split("=", 1)
    return _number(int, idx), _number(float, val)


def _parse_on(spec):
    """Parse 'idx=value[,idx=value...]' into (indices, values)."""
    pairs = _comma_items(spec, _on_component, "bad conditioning component")
    return [idx for idx, _ in pairs], [val for _, val in pairs]


def _seed(text):
    """A --seed value: a non-negative integer, else a usage error naming the flag."""
    if not re.fullmatch(r"[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _load_valid_model(path):
    params = load_model(path)
    report = validate(params)
    if not report.valid:
        raise RtbmError(f"model {path} is invalid: {report}")
    return params


def _eval_points(args, width):
    """The evaluation points of ``--grid`` or ``--points-csv`` for ``width`` coordinates."""
    if args.grid and args.points_csv:
        raise ValueError("give either --grid or --points-csv, not both")
    if args.points_cols is not None and not args.points_csv:
        raise ValueError("--points-cols selects columns of --points-csv, which is not given")
    if args.grid:
        return _grid_points(args.grid, width)
    if args.points_csv:
        cols = (_comma_items(args.points_cols, functools.partial(_number, int),
                             "bad --points-cols item") if args.points_cols else None)
        return _read_csv(args.points_csv, cols)
    raise ValueError("one of --grid or --points-csv is required")


def _cmd_fit(args):
    data = _read_csv(args.data)
    config = FitConfig(
        n_h=args.nh, restarts=args.restarts, max_evals=args.max_evals,
        seed=args.seed, lattice=args.lattice)
    start = time.perf_counter()
    result = fit_density(data, config)
    wall = time.perf_counter() - start
    save_model(result.params, args.out)
    trace_path = args.trace or args.out + ".trace.csv"
    _write_csv(trace_path, [(e, f) for e, f in result.trace])
    meta_path = args.meta or args.out + ".meta.json"
    write_json(meta_path, {
        "command": "fit",
        "data": args.data,
        "rows": int(data.shape[0]),
        "nll": result.nll,
        "evals": result.evals,
        "wall_time_s": wall,
        "rng": RNG_NAME,
        "config": dataclasses.asdict(config),
    })
    print(f"nll {result.nll:.6f}")
    print(f"model {args.out}")
    return 0


def _cmd_density(args):
    params = _load_valid_model(args.model)
    pts = _eval_points(args, params.n_v)
    try:
        _write_csv(args.out, lambda part: _density_rows(
            pts[part], log_pdf_many(params, pts[part])), len(pts))
    except RtbmError as exc:
        try:    # a block's error counts its block's points, not the input's
            log_pdf_many(params, pts)
        except RtbmError as whole:
            exc = whole
        raise RtbmError(f"model {args.model}: {exc}") from exc
    return 0


def _cmd_conditional(args):
    params = _load_valid_model(args.model)
    indices, values = _parse_on(args.on)
    child, free = condition_on(params, indices, values)
    save_model(child, args.out)
    print(f"child over coordinates {free} -> {args.out}")
    return 0


def _cmd_sample(args):
    params = _load_valid_model(args.model)
    samples = sample_visible(params, _draw_count(args.count, params.n_v), args.seed)
    _write_csv(args.out, samples)
    if args.meta:
        write_json(args.meta, {
            "command": "sample", "model": args.model, "count": args.count,
            "seed": args.seed, "rng": RNG_NAME,
        })
    return 0


def _cmd_mse(args):
    col = [-2]    # the density column of every CSV that density commands write
    print(f"{conditional_mse(_read_csv(args.ref, col), _read_csv(args.cand, col)):.12g}")
    return 0


def _student_params(args):
    number = functools.partial(_number, float)
    mu = np.array(_comma_items(args.mu, number, "bad --mu item"))
    sigma = np.array(_comma_items(args.sigma, number, "bad --sigma item"))
    if sigma.size != mu.size ** 2:
        raise ValueError(f"--sigma: expected {mu.size ** 2} row-major entries, "
                         f"got {sigma.size}")
    return StudentTParams(mu=mu, sigma=sigma.reshape(mu.size, mu.size), nu=args.nu)


def _cmd_student_sample(args):
    tp = _student_params(args)
    _write_csv(args.out, sample_student(tp, _draw_count(args.count, tp.p), args.seed))
    return 0


def _cmd_student_conditional(args):
    ct = student_conditional(_student_params(args), *_parse_on(args.on))
    pts = _eval_points(args, ct.p)
    _write_csv(args.out, _density_rows(pts, conditional_logpdf(ct, pts)))
    return 0


def _add_student_flags(p):
    p.add_argument("--mu", required=True)
    p.add_argument("--sigma", required=True, help="row-major entries")
    p.add_argument("--nu", required=True, type=float)


def _add_eval_point_flags(p):
    p.add_argument("--grid", help="per-dimension lo:hi:nodes, comma separated")
    p.add_argument("--points-csv", help="headerless CSV of evaluation points")
    p.add_argument("--points-cols",
                   help="comma-separated column indices to take from --points-csv")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like '-10:10:401' after a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser():
    parser = _Parser(
        prog="rtbm",
        description="Riemann-Theta Boltzmann machine densities and conditionals")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a model on CSV samples")
    p.add_argument("--data", required=True)
    p.add_argument("--nh", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=FitConfig.seed)
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--max-evals", type=int, default=FitConfig.max_evals)
    p.add_argument("--lattice", choices=[l.value for l in Lattice],
                   default=FitConfig.lattice.value)
    p.add_argument("--trace", help="trace CSV path (default <out>.trace.csv)")
    p.add_argument("--meta", help="metadata JSON path (default <out>.meta.json)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("density", help="evaluate a model density")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_eval_point_flags(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("conditional", help="derive a child model")
    p.add_argument("--model", required=True)
    p.add_argument("--on", required=True, metavar="IDX=VAL[,IDX=VAL...]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("sample", help="draw seeded samples")
    p.add_argument("--model", required=True)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", help="optional run metadata JSON path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("mse", help="mean squared difference of two density CSVs")
    p.add_argument("--ref", required=True)
    p.add_argument("--cand", required=True)
    p.set_defaults(func=_cmd_mse)

    p = sub.add_parser("student", help="Student-t reference utilities")
    ssub = p.add_subparsers(dest="action", required=True)
    ps = ssub.add_parser("sample", help="draw Student-t samples")
    _add_student_flags(ps)
    ps.add_argument("--count", required=True, type=int)
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_student_sample)
    pc = ssub.add_parser("conditional",
                         help="evaluate the analytic conditional density")
    _add_student_flags(pc)
    pc.add_argument("--on", required=True, metavar="IDX=VAL[,IDX=VAL...]")
    pc.add_argument("--out", required=True)
    _add_eval_point_flags(pc)
    pc.set_defaults(func=_cmd_student_conditional)

    return parser


# built on the first invocation and reused: parse_args returns a new
# namespace each time and changes nothing in the parser
_shared_parser = functools.cache(build_parser)


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RtbmError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
