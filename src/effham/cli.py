"""Command-line entry point: ``effham report MODEL [options]``.

Exit codes: 0 on success, 2 for usage errors, for model problems (an
unknown ``builtin:`` name, a model path that cannot be read, such as a
missing file or a directory, a file that is not UTF-8 text, parse or
compile diagnostics, such as couplings so large that a sample of H is
not finite, a tone of norm ``1e308``, or a carrier at or below
``TOL_ZERO``, such as ``omega = 1e-300``) and for output paths that cannot
be written (``--out`` or ``--csv`` naming a directory or a file in a
missing directory, both naming the same file, or either naming the model
file, is refused before anything is computed), 3 for numerical-guard
failures: any ``errors.NumericalGuardError`` (such as a series product or
integral, or a quadrature level, whose projected bytes pass
``errors.BYTE_BUDGET``, the power cap, the dimension cap, a
quadrature whose nested chain overflows, such as at a ``--tmax`` of
1e100, a defect or gap on the report's time grid that is not finite,
such as at a ``--tmax`` of 1e300, couplings so large that a series
coefficient is not finite, such as a tone of norm ``1e200``, or a
``--sweep`` factor that scales an order out of the float range, such as
``1e200``) and an allocation that runs out
of memory, such as the time grid of a huge ``--grid``; each prints a
one-line message. A usage error is
an option that does not parse, or whose value the library refuses: each
option takes the check of the ``run_report`` keyword of its name
(``diagnostics.OPTION_CHECKS``), and ``--tol-zero`` and ``--gap-min``
together take ``model.check_thresholds``; README's "Argument rules" table
lists the rules. argparse prints the usage and a one-line message before
anything is computed. A sweep list may start with a negative factor in
either form, ``--sweep -0.3,0.2`` or ``--sweep=-0.3,0.2``. No
environment variable changes a run.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys

from .errors import ModelError, NumericalGuardError, OperatorValueError
from .diagnostics import OPTION_CHECKS, ZOO_NAMES, run_report
from .model import DEFAULT_GAP_MIN, check_thresholds
from .tones import TOL_ZERO


def _option(convert, keyword: str):
    """argparse ``type`` that converts the text and checks the value with the
    ``run_report`` check of ``keyword``; a text that does not convert, or a
    value the check refuses, fails with ``bad value <text!r>: <reason>``."""
    check = OPTION_CHECKS[keyword]

    def parse(text: str):
        try:
            return check(convert(text))
        except (ValueError, OperatorValueError) as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None

    return parse


def _numbers(convert):
    """Convert a comma-separated list with ``convert``."""
    return lambda text: tuple(convert(x) for x in text.split(","))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``effham`` parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` shares it."""
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
    rep.add_argument("model", help=".ham file or builtin:NAME")
    rep.add_argument("--orders", default=(2, 3), type=_option(_numbers(int), "orders"),
                     help="comma-separated expansion orders (default 2,3)")
    rep.add_argument("--tmax", default=None, type=_option(float, "tmax"),
                     help="end of the time grid (default 10 / min carrier)")
    rep.add_argument("--grid", default=64, type=_option(int, "grid"),
                     help="number of grid points (default 64)")
    rep.add_argument("--sweep", default=None, type=_option(_numbers(float), "sweep"),
                     help="comma-separated coupling scale factors")
    rep.add_argument("--tol-zero", default=TOL_ZERO, type=_option(float, "tol_zero"),
                     help="threshold for exactly-zero frequency sums")
    rep.add_argument("--gap-min", default=DEFAULT_GAP_MIN, type=_option(float, "gap_min"),
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
    try:
        check_thresholds(args.tol_zero, args.gap_min)
    except OperatorValueError as exc:
        parser.error(f"--tol-zero, --gap-min: {exc}")
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
        report = run_report(args.model, **{key: getattr(args, key) for key in OPTION_CHECKS})
    except ModelError as exc:
        return _fail("model error", str(exc), 2)
    except OSError as exc:  # the model file is the only thing run_report reads
        return _fail("model error", f"cannot read {_os_reason(exc)}", 2)
    except (NumericalGuardError, MemoryError) as exc:
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
