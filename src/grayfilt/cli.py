"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error, 3 domain
error (e.g. adding images of different sizes). Diagnostics go to stderr and
processed data goes to files only, so the tool composes in scripts. Output
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import atexit
import gc
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

from . import __version__, _bytes, _swar
from .errors import DomainError, FormatError
from .kinds import (
    BENCH_ITERS,
    BENCH_KSIZE,
    BENCH_SIZE,
    FLAG,
    GRAY_LEVELS,
    MAX_BENCH_ITERS,
    MAX_BENCH_KSIZE,
    MAX_BENCH_SIZE,
    PATH,
    POSITIVE_INT,
)
from .pipeline import OPS, _compile, _run_raster, parse_pipeline

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
        try:
            value = kind.parse(text)
        except ValueError:
            if not _bytes.INT_LITERAL.fullmatch(text.strip()):
                raise  # argparse: "invalid int value: 'x'"
            # int() refuses more digits than Python converts; argparse would
            # echo every one of them.
            raise argparse.ArgumentTypeError(_bytes.refused(text.strip(), "value")) from None
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
    p.set_defaults(handler=_cmd_histogram, parser=p)

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

def _run(args, compiled):
    """Write ``args.output``: ``args.input`` run through ``compiled``, every
    stage built as [(label, table or step)] before the input is read, so a
    filter and its one-stage pipeline report the same first error."""
    width, height, raster = _bytes.load_pgm(args.input)
    raster = _run_raster(compiled, width, height, raster)
    _bytes.write_bytes_atomic(args.output,
                              _bytes.encode_pgm(width, height, raster, args.format.upper()))
    return EXIT_OK


def _cmd_filter(args):
    op = OPS[args.command]
    built = op.build({param.name: getattr(args, param.name) for param in op.params})
    return _run(args, [("", built)])


def _cmd_histogram(args):
    # The chart would replace the table: a usage error, before the input is read.
    if args.render and os.path.realpath(args.csv) == os.path.realpath(args.render):
        args.parser.error("argument --render: names the same file as --csv")
    width, height, raster = _bytes.load_pgm(args.input)
    counts = _swar.histogram(raster)
    if counts is None:
        from .histogram import compute_histogram
        from .imgio import _image
        counts = compute_histogram(_image(width, height, raster)).bins.tolist()
    _bytes.write_bytes_atomic(args.csv, _swar.histogram_csv(counts).encode("ascii"))
    if args.render:
        chart = _swar.histogram_chart(counts)
        _bytes.write_bytes_atomic(args.render, _bytes.encode_pgm(
            GRAY_LEVELS, _swar.CHART_HEIGHT, chart, args.format.upper()))
    return EXIT_OK


def _cmd_pipeline(args):
    return _run(args, _compile(parse_pipeline(_bytes.load_text(args.spec))))


def _cmd_bench(args):
    from .bench import bench_convolve

    report = bench_convolve(args.size, args.ksize, args.iters, args.workers)
    sys.stderr.write(report)
    return EXIT_OK


#: Whether ``gc.freeze`` is registered to run at exit, as the first ``main``
#: of a process does. (CPython 3.11's ``atexit.unregister`` leaves an empty
#: slot, so unregistering and registering on each call would grow its table.)
_freeze_at_exit = False


def main(argv=None) -> int:
    # The cyclic collector finds nothing a command needs freed: a command
    # closes its files in ``with`` blocks and renames its outputs atomically,
    # so no output depends on a finalizer running, and the cycles it leaves
    # (module globals, mostly) live until the process ends. So the collector
    # is paused while the command runs, where numpy's import alone sets off
    # dozens of passes, and left as it was found on every path, so that an
    # in-process caller gets it back; and at exit ``gc.freeze`` moves every
    # tracked object out of its reach, so shutdown does not walk and free the
    # heap whose memory the OS takes back anyway.
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except (FormatError, OSError) as exc:
            print(f"grayfilt: {exc}", file=sys.stderr)
            return EXIT_IO
        except DomainError as exc:
            print(f"grayfilt: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
