"""Command-line entry point: ``effham report MODEL [options]``.

Exit codes: 0 on success, 2 for usage errors, for model problems (an
unknown ``builtin:`` name, a model path that cannot be read, such as a
missing file or a directory, a file that is not UTF-8 text, parse or
compile diagnostics) and for output paths that cannot be written (``--out``
or ``--csv`` naming a directory or a file in a missing directory, both
naming the same file, or either naming the model file, is refused before
anything is computed), 3 for
numerical-guard failures (term budget, power cap, dimension cap,
quadrature refinement budget, a ``--sweep`` factor that scales an order
out of the float range, such as ``1e200``, and an allocation that runs
out of memory, such as the time grid of a huge ``--grid``); each prints a
one-line message. A usage error is
an option that does not parse or is out of range: ``--orders`` outside
``[2, MAX_ORDER]``, a ``--tmax`` that is not finite and > 0, a ``--grid``
below 2, a ``--sweep`` factor that is not finite, a ``--tol-zero`` or
``--gap-min`` that is negative or not finite, or ``--tol-zero >=
--gap-min``; argparse prints the usage and a one-line message before
anything is computed. A sweep list may start with a negative factor in
either form, ``--sweep -0.3,0.2`` or ``--sweep=-0.3,0.2``.
``EFFHAM_MAX_TERMS`` overrides the term budget (series keys, and key
pairs per product); a value that is not an integer >= 1 exits 3 as well.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys

from .errors import (
    DimensionCapError,
    ModelError,
    PowerCapError,
    QuadratureError,
    SweepOverflowError,
    TermBudgetError,
)
from .builder import MAX_ORDER
from .diagnostics import ZOO_NAMES, run_report
from .model import DEFAULT_GAP_MIN
from .tones import TOL_ZERO

_GUARD_ERRORS = (TermBudgetError, PowerCapError, DimensionCapError, QuadratureError,
                 SweepOverflowError, MemoryError)


def _checked(convert, ok, what: str, expected: str):
    """argparse ``type`` that converts the text, checks the value with ``ok``,
    and otherwise fails with ``bad <what> <text!r>; expected <expected>``."""

    def parse(text: str):
        try:
            value = convert(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}; expected {expected}")
        return value

    return parse


def _numbers(convert):
    """Convert a comma-separated list with ``convert``."""
    return lambda text: tuple(convert(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effham",
        description="Closed-form effective Hamiltonians for multi-tone models "
                    "and their numerical adjudication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser(
        "report",
        help="build effective orders for a model and emit defect diagnostics",
        description="MODEL is a .ham file path, or builtin:NAME with NAME one of: "
                    + ", ".join(ZOO_NAMES),
    )
    threshold = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                         "threshold", "a finite number >= 0")
    rep.add_argument("model", help=".ham file or builtin:NAME")
    rep.add_argument("--orders", default=(2, 3),
                     type=_checked(_numbers(int), lambda v: all(2 <= n <= MAX_ORDER for n in v),
                                   "order list", f"integers in [2, {MAX_ORDER}], e.g. 2,3"),
                     help="comma-separated expansion orders (default 2,3)")
    rep.add_argument("--tmax", default=None,
                     type=_checked(float, lambda v: math.isfinite(v) and v > 0,
                                   "end time", "a finite number > 0"),
                     help="end of the time grid (default 10 / min carrier)")
    rep.add_argument("--grid", default=64,
                     type=_checked(int, lambda v: v >= 2, "grid size", "an integer >= 2"),
                     help="number of grid points (default 64)")
    rep.add_argument("--sweep", default=None,
                     type=_checked(_numbers(float), lambda v: all(map(math.isfinite, v)),
                                   "sweep", "finite numbers, e.g. 0.4,0.2"),
                     help="comma-separated coupling scale factors")
    rep.add_argument("--tol-zero", type=threshold, default=TOL_ZERO,
                     help="threshold for exactly-zero frequency sums")
    rep.add_argument("--gap-min", type=threshold, default=DEFAULT_GAP_MIN,
                     help="threshold for safely-nonzero frequency sums")
    rep.add_argument("--out", default=None, help="write the JSON report here")
    rep.add_argument("--csv", default=None, help="write the CSV time series here")
    return parser


def _join_negative_sweep(argv: list[str]) -> list[str]:
    """Rewrite ``--sweep -0.3,0.2`` as ``--sweep=-0.3,0.2``.

    argparse takes a value that starts with ``-`` and is not a plain
    negative number for an option, so a sweep list that starts with a
    negative factor would otherwise end in "expected one argument".
    """
    args = list(argv)
    for i in range(len(args) - 2, -1, -1):
        if args[i] == "--sweep" and re.match(r"-[\d.]", args[i + 1]):
            args[i:i + 2] = [f"--sweep={args[i + 1]}"]
    return args


def _unwritable(path: str) -> int | None:
    """The ``errno`` that writing a file at ``path`` would surely fail with:
    ``path`` is a directory, or its parent is missing or not a directory."""
    if os.path.isdir(path):
        return errno.EISDIR
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    return None


def _os_reason(exc: OSError) -> str:
    return f"{exc.filename!r}: {exc.strerror}" if exc.filename else str(exc)


def _fail(kind: str, message: str, code: int) -> int:
    print(f"effham: {kind}: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_sweep(sys.argv[1:] if argv is None else argv))
    if not args.tol_zero < args.gap_min:
        parser.error(f"--tol-zero ({args.tol_zero}) must be smaller than --gap-min ({args.gap_min})")
    for path in filter(None, (args.out, args.csv)):
        code = _unwritable(path)
        if code is not None:
            return _fail("output error", f"cannot write {path!r}: {os.strerror(code)}", 2)
    if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
        return _fail("output error", f"--out {args.out!r} and --csv {args.csv!r} "
                                     "name the same file", 2)
    for option, path in (("--out", args.out), ("--csv", args.csv)):
        if path and os.path.realpath(path) == os.path.realpath(args.model):
            return _fail("output error", f"{option} {path!r} names the model file "
                                         f"{args.model!r}", 2)
    try:
        report = run_report(
            args.model,
            orders=args.orders,
            tmax=args.tmax,
            grid=args.grid,
            sweep=args.sweep,
            tol_zero=args.tol_zero,
            gap_min=args.gap_min,
        )
    except ModelError as exc:
        return _fail("model error", str(exc), 2)
    except OSError as exc:  # the model file is the only thing run_report reads
        return _fail("model error", f"cannot read {_os_reason(exc)}", 2)
    except _GUARD_ERRORS as exc:
        return _fail("numerical guard", str(exc) or type(exc).__name__, 3)
    try:
        report.write(args.out, args.csv)
    except OSError as exc:
        return _fail("output error", f"cannot write {_os_reason(exc)}", 2)
    if not args.out:
        print(report.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
