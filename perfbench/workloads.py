"""The workloads: what each op runs, replays and must produce.

A CLI op is one ``grayfilt`` process. Its in-process replay makes the same
chain of public calls as the CLI handler (or, for a pipeline, as each stage),
so the traced run can time every call and check that the CLI and the
library produce the same bytes. Every op also carries its expected output,
computed by :mod:`reference` from the generated pixels.

Workloads are closed loops with one client: each op starts when the
previous one has finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


import reference as ref
import scenes

#: Side lengths: the 4 MP scene, and the small CLI inputs.
FULL_SIZES = {"big": 2048, "small": 256, "medium": 512}
SMOKE_SIZES = {"big": 64, "small": 24, "medium": 40}

#: Bytes per pixel a correlation holds at once, computed from the arrays the
#: library allocates: uint8 input and output, and float64 source, padded
#: source, accumulator, product temporary and SignedImage copy.
ENGINE_BYTES_PER_PX = 2 + 5 * 8


@dataclass
class Op:
    id: str
    mpix: float
    reads: list[Path]
    out_names: list[str]
    argv: Callable[[list[Path]], list[str]]
    #: replay(ctx, grayfilt, outs): the CLI handler's chain of public calls
    replay: Callable
    expected: Callable[[], list[bytes]]
    #: bytes the op's arrays occupy, computed from their shapes and dtypes
    ws_bytes: int
    pgm_read_bytes: int
    p2_read_bytes: int


@dataclass
class Inputs:
    pixels: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def _write(path: Path, data: bytes | str) -> Path:
    path.write_bytes(data.encode("ascii") if isinstance(data, str) else data)
    return path


def _fmt_flag(fmt: str) -> list[str]:
    return ["--format", fmt.lower()]


def _cli_op(inp: Inputs, op_id: str, kind: str, src: str, fmt: str = "P5",
            stats: ref.Stats | None = None, **params) -> Op:
    """Build one CLI op of the given kind on input image ``src``."""
    p = inp.pixels[src]
    path = inp.paths[src]
    px = p.size
    reads = [path]
    gray = ["-i", str(path)]
    out_names = [f"{op_id}.pgm"]

    def save(ctx, g, out, img):
        ctx.call(g.save_pgm, str(out), img, fmt)

    if kind == "negate":
        argv = lambda o: ["negate", *gray, "-o", str(o[0]), *_fmt_flag(fmt)]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(g.negate, ctx.call(g.load_pgm, str(path))))
        expect = lambda: [scenes.encode_pgm(ref.negate(p), fmt)]
        ws = 3 * px
    elif kind == "stretch":
        gamma = params["gamma"]
        argv = lambda o: ["stretch", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--gamma", repr(gamma)]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(
            g.gray_stretch, ctx.call(g.load_pgm, str(path)), gamma))
        expect = lambda: [scenes.encode_pgm(ref.stretch(p, gamma), fmt)]
        ws = 3 * px
    elif kind == "lut":
        table_path, table = inp.paths["lut"], inp.params["lut"]
        reads = [table_path, path]
        argv = lambda o: ["lut", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--table", str(table_path)]

        def replay(ctx, g, o):
            t = ctx.call(g.parse_lut, ctx.call(g.imgio.load_text, str(table_path)))
            save(ctx, g, o[0], ctx.call(g.apply_lut, ctx.call(g.load_pgm, str(path)), t))
        expect = lambda: [scenes.encode_pgm(ref.lut(p, table), fmt)]
        ws = 3 * px
    elif kind == "laplacian":
        variant, display = params["variant"], params["display"]
        argv = lambda o: ["laplacian", *gray, "-o", str(o[0]), *_fmt_flag(fmt),
                          "--variant", variant, "--display", display]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(g.clamp_to_display, ctx.call(
            g.laplacian, ctx.call(g.load_pgm, str(path)), variant), display))
        expect = lambda: [scenes.encode_pgm(ref.laplacian(p, variant, display, stats), fmt)]
        ws = ENGINE_BYTES_PER_PX * px
    elif kind == "sharpen":
        variant = params["variant"]
        argv = lambda o: ["sharpen", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--variant", variant]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(
            g.laplacian_sharpen, ctx.call(g.load_pgm, str(path)), variant))
        expect = lambda: [scenes.encode_pgm(ref.sharpen(p, variant, stats), fmt)]
        ws = ENGINE_BYTES_PER_PX * px
    elif kind == "unsharp":
        radius = params["radius"]
        argv = lambda o: ["unsharp", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--radius", str(radius)]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(
            g.unsharp_mask, ctx.call(g.load_pgm, str(path)), radius, "clamp"))
        expect = lambda: [scenes.encode_pgm(ref.unsharp(p, radius, "clamp", stats), fmt)]
        ws = (ENGINE_BYTES_PER_PX + 8) * px
    elif kind == "convolve":
        kpath, coeffs = inp.paths["kernel"], inp.params["kernel"]
        reads = [kpath, path]
        argv = lambda o: ["convolve", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--kernel", str(kpath)]

        def replay(ctx, g, o):
            kern = ctx.call(g.parse_kernel, ctx.call(g.imgio.load_text, str(kpath)))
            signed = ctx.call(g.convolve, ctx.call(g.load_pgm, str(path)), kern, "replicate")
            save(ctx, g, o[0], ctx.call(g.clamp_to_display, signed, "clamp"))
        expect = lambda: [scenes.encode_pgm(ref.convolve(p, coeffs, "replicate", "clamp", stats), fmt)]
        ws = ENGINE_BYTES_PER_PX * px
    elif kind == "binarize":
        t = params["threshold"]
        argv = lambda o: ["binarize", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--threshold", str(t)]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(g.bits_to_image, ctx.call(
            g.binarize, ctx.call(g.load_pgm, str(path)), t)))
        expect = lambda: [scenes.encode_pgm(ref.binarize(p, t), fmt)]
        ws = 4 * px
    elif kind == "edges":
        t = params["threshold"]
        argv = lambda o: ["edges", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--threshold", str(t)]

        def replay(ctx, g, o):
            bits = ctx.call(g.binarize, ctx.call(g.load_pgm, str(path)), t)
            save(ctx, g, o[0], ctx.call(g.bits_to_image, ctx.call(g.edge_points, bits)))
        expect = lambda: [scenes.encode_pgm(ref.edges(p, t), fmt)]
        ws = 10 * px
    elif kind == "add":
        other = params["second"]
        q, qpath = inp.pixels[other], inp.paths[other]
        reads = [path, qpath]
        argv = lambda o: ["add", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "-j", str(qpath)]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(
            g.image_add, ctx.call(g.load_pgm, str(path)), ctx.call(g.load_pgm, str(qpath))))
        expect = lambda: [scenes.encode_pgm(ref.add(p, q), fmt)]
        ws = 5 * px
    elif kind == "shadow":
        argv = lambda o: ["shadow", *gray, "-o", str(o[0]), *_fmt_flag(fmt)]
        replay = lambda ctx, g, o: save(ctx, g, o[0], ctx.call(g.shadow_ne, ctx.call(g.load_pgm, str(path))))
        expect = lambda: [scenes.encode_pgm(ref.shadow(p, stats), fmt)]
        ws = ENGINE_BYTES_PER_PX * px
    elif kind == "histogram":
        out_names = [f"{op_id}.csv", f"{op_id}.pgm"]
        argv = lambda o: ["histogram", *gray, "--csv", str(o[0]), "--render", str(o[1]), *_fmt_flag(fmt)]

        def replay(ctx, g, o):
            hist = ctx.call(g.compute_histogram, ctx.call(g.load_pgm, str(path)))
            text = ctx.call(g.histogram_csv, hist)
            ctx.call(g.imgio.write_bytes_atomic, str(o[0]), text.encode("ascii"))
            save(ctx, g, o[1], ctx.call(g.render_histogram, hist))

        def expect():
            csv, chart = ref.histogram(p)
            return [csv, scenes.encode_pgm(chart, fmt)]
        ws = 2 * px
    elif kind == "pipeline":
        spath, stages = inp.paths["spec"], inp.params["stages"]
        reads = [spath, path]
        argv = lambda o: ["pipeline", *gray, "-o", str(o[0]), *_fmt_flag(fmt), "--spec", str(spath)]

        def replay(ctx, g, o):
            ctx.call(g.parse_pipeline, ctx.call(g.imgio.load_text, str(spath)))
            img = ctx.call(g.load_pgm, str(path))
            for stage in stages:
                with ctx.span(f"pipeline.stage.{stage['op']}", "pipeline"):
                    img = _replay_stage(ctx, g, stage, img)
            save(ctx, g, o[0], img)

        def expect():
            img = p
            for stage in stages:
                img = _reference_stage(stage, img, stats)
            return [scenes.encode_pgm(img, fmt)]
        ws = (ENGINE_BYTES_PER_PX + 8) * px
    else:
        raise ValueError(f"unknown op kind {kind!r}")

    pgm_reads = [r for r in reads if r.suffix == ".pgm"]
    return Op(id=op_id, mpix=px / 1e6, reads=reads, out_names=out_names, argv=argv,
              replay=replay, expected=expect, ws_bytes=ws,
              pgm_read_bytes=sum(r.stat().st_size for r in pgm_reads),
              p2_read_bytes=sum(r.stat().st_size for r in pgm_reads if r.read_bytes()[:2] == b"P2"))


def _replay_stage(ctx, g, stage, img):
    op = stage["op"]
    if op == "sharpen":
        return ctx.call(g.laplacian_sharpen, img, stage.get("variant", "four"))
    if op == "unsharp":
        return ctx.call(g.unsharp_mask, img, stage.get("radius", 1), stage.get("display", "clamp"))
    if op == "edges":
        bits = ctx.call(g.binarize, img, stage.get("threshold", 128))
        return ctx.call(g.bits_to_image, ctx.call(g.edge_points, bits))
    raise ValueError(f"no replay for pipeline stage {op!r}")


def _reference_stage(stage, p, stats):
    op = stage["op"]
    if op == "sharpen":
        return ref.sharpen(p, stage.get("variant", "four"), stats)
    if op == "unsharp":
        return ref.unsharp(p, stage.get("radius", 1), stage.get("display", "clamp"), stats)
    if op == "edges":
        return ref.edges(p, stage.get("threshold", 128))
    raise ValueError(f"no reference for pipeline stage {op!r}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class CliFilters4mp:
    """grayfilt processes on one seeded 2048x2048 P5 scene, cycling a fixed
    mix of neighbourhood filters: the engine, the display mapping and the
    float64 intermediates take most of each process."""

    name = "cli-4mp-filters"
    #: seconds one cycle of the mix takes on a 2-core Xeon VM (numpy 2.4);
    #: sets how many whole cycles a run makes, so the sample count is fixed
    nominal_cycle_s = 8.5
    traced_cycle_s = 22.0

    def materialize(self, seed: int, sizes: dict, work: Path) -> Inputs:
        inp = Inputs()
        n = sizes["big"]
        inp.pixels["scene"] = scenes.scene(scenes.rng_for(seed, 1, 0), n, n)
        inp.paths["scene"] = _write(work / "scene.pgm", scenes.encode_pgm(inp.pixels["scene"], "P5"))
        text, coeffs = scenes.real_kernel(scenes.rng_for(seed, 1, 1))
        inp.paths["kernel"], inp.params["kernel"] = _write(work / "real5.txt", text), coeffs
        threshold = int(scenes.rng_for(seed, 1, 2).integers(100, 157))
        stages = [{"op": "sharpen"}, {"op": "unsharp", "radius": 2},
                  {"op": "edges", "threshold": threshold}]
        inp.paths["spec"] = _write(work / "pipeline.json", scenes.pipeline_spec(stages))
        inp.params["stages"] = stages
        return inp

    def ops(self, inp: Inputs, stats: ref.Stats) -> list[Op]:
        s = "scene"
        return [
            _cli_op(inp, "sharpen-four", "sharpen", s, stats=stats, variant="four"),
            _cli_op(inp, "sharpen-eight", "sharpen", s, stats=stats, variant="eight"),
            _cli_op(inp, "laplacian-eight-rescale", "laplacian", s, stats=stats,
                    variant="eight", display="rescale"),
            _cli_op(inp, "unsharp-r1", "unsharp", s, stats=stats, radius=1),
            _cli_op(inp, "unsharp-r5", "unsharp", s, stats=stats, radius=5),
            _cli_op(inp, "convolve-real5", "convolve", s, stats=stats),
            _cli_op(inp, "shadow", "shadow", s, stats=stats),
            _cli_op(inp, "pipeline-3", "pipeline", s, stats=stats),
        ]


class CliSmallIo:
    """grayfilt processes on 256x256 and 512x512 inputs, about half of them
    P2 in and half P2 out: interpreter start, CLI set-up and the P2 codec
    take most of each process, the engine only a few ms."""

    name = "cli-small-io"
    nominal_cycle_s = 2.6
    traced_cycle_s = 5.5

    def materialize(self, seed: int, sizes: dict, work: Path) -> Inputs:
        inp = Inputs()
        specs = {"A": ("small", "P5", None), "B": ("small", "P2", None),
                 "C": ("medium", "P5", None), "D": ("medium", "P2", "seeded scene"),
                 "J": ("small", "P2", None)}
        for k, (name, (size, fmt, comment)) in enumerate(specs.items()):
            n = sizes[size]
            inp.pixels[name] = scenes.scene(scenes.rng_for(seed, 2, k), n, n)
            inp.paths[name] = _write(work / f"{name}.pgm",
                                     scenes.encode_pgm(inp.pixels[name], fmt, comment))
        text, table = scenes.lut_table(scenes.rng_for(seed, 2, 10))
        inp.paths["lut"], inp.params["lut"] = _write(work / "table.lut", text), table
        rng = scenes.rng_for(seed, 2, 11)
        inp.params["gamma"] = float(rng.choice([2.0, 0.5]))
        inp.params["thresholds"] = [int(t) for t in rng.integers(96, 161, size=2)]
        return inp

    def ops(self, inp: Inputs, stats: ref.Stats) -> list[Op]:
        t_bin, t_edge = inp.params["thresholds"]
        return [
            _cli_op(inp, "negate-B", "negate", "B", "P2"),
            _cli_op(inp, "stretch-D", "stretch", "D", "P5", gamma=inp.params["gamma"]),
            _cli_op(inp, "lut-C", "lut", "C", "P2"),
            _cli_op(inp, "binarize-B", "binarize", "B", "P5", threshold=t_bin),
            _cli_op(inp, "edges-D", "edges", "D", "P5", threshold=t_edge),
            _cli_op(inp, "add-A-J", "add", "A", "P2", second="J"),
            _cli_op(inp, "histogram-C", "histogram", "C", "P2"),
            _cli_op(inp, "shadow-B", "shadow", "B", "P2", stats=stats),
            _cli_op(inp, "sharpen-C", "sharpen", "C", "P5", stats=stats, variant="eight"),
        ]


WORKLOADS = {w.name: w for w in (CliFilters4mp(), CliSmallIo())}
