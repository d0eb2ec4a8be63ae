"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error, 3 domain
error (e.g. adding images of different sizes). Diagnostics go to stderr and
processed data goes to files only, so the tool composes in scripts. Output
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import os
import sys

# grayfilt never calls BLAS, yet numpy's bundled OpenBLAS starts one thread
# per CPU when it loads, and those threads spin before they sleep: on 2 CPUs
# that is about 70 ms of CPU per process. OpenBLAS reads this once, as numpy
# loads. Nothing this module imports loads numpy: the handlers import the
# engine when they run, so --version, --help and usage errors exit without
# numpy, and this line always runs before it loads. A library import of
# grayfilt does not run it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .errors import DomainError, FormatError
from .kinds import (
    BENCH_ITERS,
    BENCH_KSIZE,
    BENCH_SIZE,
    FLAG,
    MAX_BENCH_ITERS,
    MAX_BENCH_KSIZE,
    MAX_BENCH_SIZE,
    PATH,
    POSITIVE_INT,
)
from .pipeline import OPS, parse_pipeline, run_pipeline

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _arg_type(kind):
    """argparse type for a parameter kind: parse the text, then apply the
    kind's check; either failure becomes a usage error."""
    def convert(text):
        value = kind.parse(text)
        try:
            return kind.check(value, "value")  # argparse's message names the flag
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.__name__ = kind.parse.__name__  # argparse: "invalid int value: 'x'"
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grayfilt",
                     description="Spatial-domain filters for 8-bit grayscale PGM images.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    path = _arg_type(PATH)
    reads = _Parser(add_help=False)
    reads.add_argument("-i", "--input", required=True, metavar="PGM", type=path,
                       help="input image (PGM, maxval 255)")
    writes = _Parser(add_help=False)
    writes.add_argument("-o", "--output", required=True, metavar="PGM", type=path,
                        help="output image path")
    writes.add_argument("--format", choices=("p2", "p5"), default="p5",
                        help="output PGM encoding (default p5)")

    for name, op in OPS.items():
        p = sub.add_parser(name, parents=[reads, writes], help=op.help)
        for param in op.params:
            flags = param.flags or (f"--{param.name}",)
            if param.kind is FLAG:
                p.add_argument(*flags, dest=param.name, action="store_true", help=param.help)
            else:
                p.add_argument(*flags, dest=param.name, help=param.help, metavar=param.metavar,
                               required=param.default is None, default=param.default,
                               choices=param.kind.choices or None, type=_arg_type(param.kind))
        p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("histogram", parents=[reads],
                       help="gray-level histogram as CSV and optional bar chart")
    p.add_argument("--csv", required=True, metavar="FILE", type=path,
                   help="where to write the level,count table")
    p.add_argument("--render", metavar="PGM", type=path,
                   help="also write a 256x100 bar-chart image")
    p.add_argument("--format", choices=("p2", "p5"), default="p5",
                   help="encoding for the rendered chart (default p5)")
    p.set_defaults(handler=_cmd_histogram)

    p = sub.add_parser("pipeline", parents=[reads, writes],
                       help="run a JSON-specified chain of filters")
    p.add_argument("--spec", required=True, metavar="JSON", type=path,
                   help='spec file, e.g. {"stages":[{"op":"negate"}]}')
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("bench",
                       help="time the correlation engine on a seeded random image")
    p.add_argument("--size", type=_arg_type(BENCH_SIZE), default=256,
                   help=f"image side length, at most {MAX_BENCH_SIZE} (default 256)")
    p.add_argument("--ksize", type=_arg_type(BENCH_KSIZE), default=3,
                   help=f"ones-kernel side length, odd, at most {MAX_BENCH_KSIZE} (default 3)")
    p.add_argument("--iters", type=_arg_type(BENCH_ITERS), default=5,
                   help=f"timed repetitions, at most {MAX_BENCH_ITERS} (default 5)")
    p.add_argument("--workers", type=_arg_type(POSITIVE_INT), default=1,
                   help="row-parallel workers; checksum is identical for any count")
    p.set_defaults(handler=_cmd_bench)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

# Each handler imports the engine it runs: that is where numpy first loads.

def _cmd_filter(args):
    from .imgio import load_pgm, save_pgm

    op = OPS[args.command]
    step = op.build({param.name: getattr(args, param.name) for param in op.params})
    save_pgm(args.output, step(load_pgm(args.input)), args.format.upper())
    return EXIT_OK


def _cmd_histogram(args):
    from .histogram import compute_histogram, histogram_csv, render_histogram
    from .imgio import load_pgm, save_pgm, write_bytes_atomic

    hist = compute_histogram(load_pgm(args.input))
    write_bytes_atomic(args.csv, histogram_csv(hist).encode("ascii"))
    if args.render:
        save_pgm(args.render, render_histogram(hist), args.format.upper())
    return EXIT_OK


def _cmd_pipeline(args):
    from .imgio import load_pgm, load_text, save_pgm

    spec = parse_pipeline(load_text(args.spec))
    save_pgm(args.output, run_pipeline(spec, load_pgm(args.input)), args.format.upper())
    return EXIT_OK


def _cmd_bench(args):
    from .bench import bench_convolve

    report = bench_convolve(args.size, args.ksize, args.iters, args.workers)
    sys.stderr.write(report)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, OSError) as exc:
        print(f"grayfilt: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"grayfilt: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
