"""Command-line surface: case-study demos, trace summaries, plot-data export.

``--data`` names the returns file of the sp500 demo; with any other demo it
is a usage error, as is a ``--draws`` too small to summarize.  ``--seed``
defaults to 1.  ``plotdata`` computes every panel before it writes, and a
sample error names the trace column.

Exit codes: 0 success, 2 usage errors, 3 any ``DataError`` (a missing,
unreadable or malformed data file or trace, samples too few or not finite to
summarize, output that cannot be written), 4 any other ``MiniprobError`` (a
numeric failure during inference).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import demos
from .backends import TextBackend, load
from .exceptions import (
    DataError,
    IoFailure,
    MiniprobError,
)
from .stats import MC_BATCHES, summary, write_plot_data

# name: (run function, default draws); each run function returns the trace last
DEMOS = {
    "linear": (demos.run_linear, 2000),
    "sp500": (demos.run_sp500, 2000),
    "disasters": (demos.run_disasters, 10000),
    "glm_linear": (demos.run_glm_linear, 2000),
    "glm_logistic": (demos.run_glm_logistic, 5000),
}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _draws(text: str) -> int:
    value = int(text)
    if value < MC_BATCHES:
        raise argparse.ArgumentTypeError(
            f"must be at least {MC_BATCHES}, the fewest a summary takes, got {value}")
    return value


def _progress(chain, draw, total):
    sys.stderr.write(f"\rchain {chain}: {draw} of {total} complete")
    if draw == total:
        sys.stderr.write("\n")
    sys.stderr.flush()


@contextlib.contextmanager
def _writing(path: str):
    """Raise an OS error from the block as ``IoFailure`` naming ``path``."""
    try:
        yield
    except OSError as e:
        raise IoFailure(f"cannot write {path!r}: {e}") from e


def _run_demo(args) -> int:
    out_dir = args.out
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    run, default_draws = DEMOS[args.name]
    data = {} if args.data is None else {"data_path": args.data}
    trace = run(default_draws if args.draws is None else args.draws, args.seed,
                backend=TextBackend(os.path.join(out_dir, "trace")),
                progress=None if args.quiet else _progress, **data)[-1]
    _, text = summary(trace)
    sys.stdout.write(text + "\n")
    with _writing(out_dir):
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
        write_plot_data(trace, os.path.join(out_dir, "plots"))
    return EXIT_OK


def _run_summary(args) -> int:
    trace = load(args.trace_dir)
    vars = args.vars.split(",") if args.vars else None
    _, text = summary(trace, vars=vars)
    sys.stdout.write(text + "\n")
    return EXIT_OK


def _run_plotdata(args) -> int:
    trace = load(args.trace_dir)
    vars = [args.var] if args.var else None
    with _writing(args.out):
        paths = write_plot_data(trace, args.out, vars=vars)
    for path in paths:
        sys.stdout.write(path + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miniprob",
        description="Bayesian model demos, trace summaries, and plot-data export.")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a bundled case-study workflow")
    demo.add_argument("name", choices=sorted(DEMOS))
    demo.add_argument("--draws", type=_draws, default=None,
                      help="posterior draws (default depends on the demo)")
    demo.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    demo.add_argument("--out", default="miniprob_out",
                      help="output directory for trace/, summary.txt, plots/")
    demo.add_argument("--data", default=None,
                      help="returns CSV for the sp500 demo only (bundled fixture by default)")
    demo.add_argument("--quiet", action="store_true", help="suppress progress output")
    demo.set_defaults(fn=_run_demo)

    summ = sub.add_parser("summary", help="print posterior statistics for a stored trace")
    summ.add_argument("trace_dir")
    summ.add_argument("--vars", default=None, help="comma-separated variable names")
    summ.set_defaults(fn=_run_summary)

    plot = sub.add_parser("plotdata", help="export density/draw CSVs from a stored trace")
    plot.add_argument("trace_dir")
    plot.add_argument("--var", default=None, help="single variable (default: all)")
    plot.add_argument("--out", required=True, help="output directory")
    plot.set_defaults(fn=_run_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo" and args.data is not None and args.name != "sp500":
        parser.error(f"--data applies to the sp500 demo only, not {args.name!r}")
    try:
        return args.fn(args)
    except DataError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DATA
    except MiniprobError as e:
        sys.stderr.write(f"numeric failure: {e}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
