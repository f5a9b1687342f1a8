"""Command-line entry point: ``effham report MODEL [options]``.

Exit codes: 0 on success, 2 for usage errors and for model problems
(missing file, parse or compile diagnostics), 3 for numerical-guard
failures (term budget, power cap, dimension cap, quadrature refinement
budget). A usage error is an option that does not parse or is out of
range: ``--orders`` outside ``[2, MAX_ORDER]``, a ``--tmax`` that is not
finite and > 0, a ``--grid`` below 2, a ``--sweep`` factor that is not
finite, a ``--tol-zero`` or ``--gap-min`` that is negative or not
finite, or ``--tol-zero >= --gap-min``; argparse prints the usage and a
one-line message before anything is computed.
``EFFHAM_MAX_TERMS`` overrides the term budget (series keys, and key
pairs per product); a value that is not an integer >= 1 exits 3 as well.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    DimensionCapError,
    ModelError,
    PowerCapError,
    QuadratureError,
    TermBudgetError,
)
from .builder import MAX_ORDER
from .diagnostics import ZOO_NAMES, run_report
from .model import DEFAULT_GAP_MIN
from .tones import TOL_ZERO

_GUARD_ERRORS = (TermBudgetError, PowerCapError, DimensionCapError, QuadratureError)


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}; expected e.g. 2,3")
    if not all(2 <= n <= MAX_ORDER for n in orders):
        raise argparse.ArgumentTypeError(
            f"bad order list {text!r}; orders must lie in [2, {MAX_ORDER}]")
    return orders


def _parse_sweep(text: str) -> tuple[float, ...]:
    try:
        factors = tuple(float(x) for x in text.split(","))
    except ValueError:
        factors = (math.nan,)
    if not all(math.isfinite(x) for x in factors):
        raise argparse.ArgumentTypeError(
            f"bad sweep {text!r}; expected finite numbers, e.g. 0.4,0.2")
    return factors


def _parse_threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"bad threshold {text!r}; expected a finite number >= 0")
    return value


def _parse_tmax(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"bad end time {text!r}; expected a finite number > 0")
    return value


def _parse_grid(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(f"bad grid size {text!r}; expected an integer >= 2")
    return value


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
    rep.add_argument("model", help=".ham file or builtin:NAME")
    rep.add_argument("--orders", type=_parse_orders, default=(2, 3),
                     help="comma-separated expansion orders (default 2,3)")
    rep.add_argument("--tmax", type=_parse_tmax, default=None,
                     help="end of the time grid (default 10 / min carrier)")
    rep.add_argument("--grid", type=_parse_grid, default=64,
                     help="number of grid points (default 64)")
    rep.add_argument("--sweep", type=_parse_sweep, default=None,
                     help="comma-separated coupling scale factors")
    rep.add_argument("--tol-zero", type=_parse_threshold, default=TOL_ZERO,
                     help="threshold for exactly-zero frequency sums")
    rep.add_argument("--gap-min", type=_parse_threshold, default=DEFAULT_GAP_MIN,
                     help="threshold for safely-nonzero frequency sums")
    rep.add_argument("--out", default=None, help="write the JSON report here")
    rep.add_argument("--csv", default=None, help="write the CSV time series here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.tol_zero < args.gap_min:
        parser.error(f"--tol-zero ({args.tol_zero}) must be smaller than --gap-min ({args.gap_min})")
    try:
        report = run_report(
            args.model,
            orders=args.orders,
            tmax=args.tmax,
            grid=args.grid,
            sweep=args.sweep,
            tol_zero=args.tol_zero,
            gap_min=args.gap_min,
            out=args.out,
            csv_path=args.csv,
        )
    except (ModelError, FileNotFoundError) as exc:
        print(f"effham: model error: {exc}", file=sys.stderr)
        return 2
    except _GUARD_ERRORS as exc:
        print(f"effham: numerical guard: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        print(report.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
