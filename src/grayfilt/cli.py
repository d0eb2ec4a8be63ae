"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error, or memory
exhausted, 3 domain error (e.g. adding images of different sizes).
Diagnostics go to stderr and processed data goes to files only, so the tool
composes in scripts. An output symlink is followed; a new or regular file is
written atomically (temp file + rename), a FIFO or a device in place. A command
reads every frame of its input, a stream of PGM images: a filter writes the output
of each in turn, ``histogram`` sums their counts, and ``add -j`` takes its first.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

# grayfilt never calls BLAS, yet numpy's bundled OpenBLAS starts one thread
# per CPU when it loads, and those threads spin before they sleep: on 2 CPUs
# that is about 70 ms of CPU per process. OpenBLAS reads this once, as numpy
# loads. Nothing this module imports loads numpy: the handlers reach the
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
    choice,
)
from .pipeline import OPS, Param, _compile, _histogram, _run_raster, parse_pipeline

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3


# ---------------------------------------------------------------------------
# Command declarations
# ---------------------------------------------------------------------------

_INPUT = Param("input", PATH, help="input image (PGM, maxval 255)", flags=("-i", "--input"),
               metavar="PGM")
_OUTPUT = Param("output", PATH, help="output image path", flags=("-o", "--output"),
                metavar="PGM")
_FORMAT = Param("format", choice("p2", "p5"), "p5", "output PGM encoding (default p5)")
_WRITES = (_INPUT, _OUTPUT, _FORMAT)


def _commands() -> dict:
    """command name -> (help line, options in listing order, handler), in
    listing order: the one declaration of the command line, which
    :func:`build_parser` and :func:`_parse` both read. It is built on each
    call, so a command runs the handler the module holds when its command
    line is read."""
    commands = {name: (op.help, (*_WRITES, *op.params), _cmd_filter) for name, op in OPS.items()}
    commands["histogram"] = (
        "gray-level histogram as CSV and optional bar chart",
        (_INPUT,
         Param("csv", PATH, help="where to write the level,count table", metavar="FILE"),
         Param("render", PATH, False, "also write a 256x100 bar-chart image", metavar="PGM"),
         _FORMAT._replace(help="encoding for the rendered chart (default p5)")),
        _cmd_histogram)
    commands["pipeline"] = (
        "run a JSON-specified chain of filters",
        (*_WRITES, Param("spec", PATH, help='spec file, e.g. {"stages":[{"op":"negate"}]}',
                         metavar="JSON")),
        _cmd_pipeline)
    commands["bench"] = (
        "time the correlation engine on a seeded random image",
        (Param("size", BENCH_SIZE, 256,
               f"image side length, at most {MAX_BENCH_SIZE} (default 256)"),
         Param("ksize", BENCH_KSIZE, 3,
               f"ones-kernel side length, odd, at most {MAX_BENCH_KSIZE} (default 3)"),
         Param("iters", BENCH_ITERS, 5, f"timed repetitions, at most {MAX_BENCH_ITERS} (default 5)"),
         Param("workers", POSITIVE_INT, 1,
               "row-parallel workers; checksum is identical for any count")),
        _cmd_bench)
    return commands


# ---------------------------------------------------------------------------
# Reading the command line
# ---------------------------------------------------------------------------

def _parse(argv) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read straight
    from the declarations, for a well-formed command line: a command, then
    declared option strings, each at most once, every one but a flag
    followed by a value that does not start with "-" and that its kind
    parses and checks, and every required option given. Anything else gives
    None and is left to argparse: help, --version, abbreviations,
    ``--opt=value``, repeats and bad values, so that every help, usage and
    error text is argparse's."""
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return None
    _, params, handler = command
    by_flag = {flag: param for param in params for flag in param.cli_flags}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        param = by_flag.get(token)
        if param is None or param.name in values:
            return None
        if param.kind is FLAG:
            values[param.name] = True
            continue
        text = next(tokens, "-")  # a missing value is refused as a dash is
        if text.startswith("-"):
            return None
        try:
            value = param.kind.check(param.kind.parse(text), param.name)
        except ValueError:
            return None
        values[param.name] = value
    if any(param.required and param.name not in values for param in params):
        return None
    return SimpleNamespace(command=argv[0], handler=handler,
                           **{param.name: values.get(param.name, param.default)
                              for param in params})


def _arg_type(kind):
    """argparse type for a parameter kind: parse the text, then apply the
    kind's check; either failure becomes a usage error."""
    import argparse

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


def build_parser():
    """The argparse parser of the declared commands. Only help, --version
    and a command line that :func:`_parse` does not take load argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """ArgumentParser that exits with code 1 on usage errors."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="grayfilt",
                    description="Spatial-domain filters for 8-bit grayscale PGM images.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (summary, params, handler) in _commands().items():
        p = sub.add_parser(name, help=summary)
        for param in params:
            if param.kind is FLAG:
                p.add_argument(*param.cli_flags, dest=param.name, action="store_true",
                               help=param.help)
            else:
                p.add_argument(*param.cli_flags, dest=param.name, help=param.help,
                               metavar=param.metavar, required=param.required,
                               default=param.default, choices=param.kind.choices or None,
                               type=_arg_type(param.kind))
        p.set_defaults(handler=handler)
    return parser


def _usage_error(command: str, message: str):
    """Exit as argparse does for a usage error of ``command`` that only its
    handler can see."""
    parser = build_parser()
    (sub,) = (action for action in parser._actions if action.dest == "command")
    sub.choices[command].error(message)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _run(args, compiled):
    """Write ``args.output``, at once: each frame of ``args.input`` run through ``compiled``,
    every stage built as [(label, table or step)] before the input is read, so a filter and
    its one-stage pipeline report the same first error, and a faulty frame writes nothing."""
    chunks = []
    with open(args.input, "rb", buffering=0) as fh:
        for k, (width, height, raster) in enumerate(_bytes.frames(fh), start=1):
            try:
                raster = _run_raster(compiled, width, height, raster)
            except DomainError as exc:
                raise (DomainError(f"frame {k}: {exc}") if k > 1 else exc) from None
            chunks += _bytes.pgm_chunks(width, height, raster, args.format.upper())
    _bytes.write_bytes_atomic(args.output, *chunks)
    return EXIT_OK


def _cmd_filter(args):
    op = OPS[args.command]
    built = op.build({param.name: getattr(args, param.name) for param in op.params})
    return _run(args, [("", built)])


def _one_file(a: str, b: str) -> bool:
    """Whether one output would lose the other's bytes, as write_bytes_atomic
    resolves both: one path, new or a regular file, that the second rename
    replaces, or a descriptor and a path on one regular file, which the
    path's rename takes from the descriptor. Every other pair, such as a
    FIFO or a device named twice, is written in place, one after the other."""
    a, b = _bytes._descriptor(a), _bytes._descriptor(b)
    if isinstance(a, int) == isinstance(b, int):
        return a == b and isinstance(a, str) and (os.path.isfile(a) or not os.path.exists(a))
    try:
        return os.path.samestat(os.stat(a), os.stat(b)) and os.path.isfile(a)
    except OSError:  # a new path, or a descriptor that is not open
        return False


def _cmd_histogram(args):
    # The chart would replace the table: a usage error, before the input is read.
    if args.render and _one_file(args.csv, args.render):
        _usage_error("histogram", "argument --render: names the same file as --csv")
    with open(args.input, "rb", buffering=0) as fh:  # the counts of every frame, summed
        counts = [sum(level) for level in zip(*(_histogram(*frame) for frame in _bytes.frames(fh)))]
    _bytes.write_bytes_atomic(args.csv, _swar.histogram_csv(counts).encode("ascii"))
    if args.render:
        chart = _swar.histogram_chart(counts)
        _bytes.write_bytes_atomic(args.render, *_bytes.pgm_chunks(
            GRAY_LEVELS, _swar.CHART_HEIGHT, chart, args.format.upper()))
    return EXIT_OK


def _cmd_pipeline(args):
    return _run(args, _compile(parse_pipeline(_bytes.load_text(args.spec))))


def _cmd_bench(args):
    from .bench import bench_convolve

    report = bench_convolve(args.size, args.ksize, args.iters, args.workers)
    sys.stderr.write(report)
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command line and return its exit code. With no argv, main is
    the process's own command: it reads ``sys.argv`` and freezes the heap as
    it returns. An argv list changes no process-wide state."""
    # The cyclic collector finds nothing a command needs freed: a command
    # closes its files in ``with`` blocks and renames its outputs atomically,
    # so no output depends on a finalizer running, and the cycles it leaves
    # (module globals, mostly) live until the process ends. So the collector
    # is paused while the command runs, where numpy's import alone sets off
    # dozens of passes, and left as it was found on every path. The freeze
    # comes before the collector is back on, so neither the next allocation
    # nor shutdown walks what the imports left tracked (~21,500 with numpy).
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except (FormatError, OSError) as exc:
            print(f"grayfilt: {exc}", file=sys.stderr)
            return EXIT_IO
        except MemoryError:
            print("grayfilt: out of memory", file=sys.stderr)
            return EXIT_IO
        except DomainError as exc:
            print(f"grayfilt: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    finally:
        if argv is None:
            gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
