"""grayfilt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli-4mp-filters --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; grayfilt is imported from ``src/``.
With ``--trace 0`` the run is timed with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it replays the ops in process under
spans and prints the per-layer metrics. ``--smoke`` runs tiny inputs in
seconds. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
summary with per-op figures, workload properties and the environment.

Every op's output is checked against a reference computed by this
benchmark's own code (reference.py), against the in-process replay (traced
runs) and, at the default seed, against the digests recorded in
digests.json. Traced runs also check that correlate gives the same bytes at 1
and at 2 workers. Any mismatch fails the op.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Plain, Tracer  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"
#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 5
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 170.0
#: a run starts no new cycle of the op mix after this many times --seconds,
#: so a host that is much slower than usual cannot stretch a run without end
OVERRUN = 1.25
#: the console-script entry point named in pyproject.toml
ENTRY = "import sys; from grayfilt.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "mpix_per_s": "Mpx/s", "op_p50_s": "s", "op_tail_s": "s",
    "cpu_s_per_mpix": "s/Mpx", "peak_rss_mb": "MB", "setup_s": "s",
}
LAYERS = ("cli", "imgio", "point_ops", "convolution", "core", "enhance", "edges",
          "histogram", "pipeline")
PER_LAYER_UNITS = {
    **{f"{layer}.{k}": u for layer in LAYERS
       for k, u in (("calls", "count"), ("busy_s", "s"), ("failed", "count"))},
    "cli.startup_s": "s", "cli.overhead_share": "share",
    "imgio.read_p5_ms": "ms", "imgio.read_p2_ms": "ms", "imgio.write_p5_ms": "ms",
    "imgio.write_p2_ms": "ms", "imgio.read_p2_us_per_px": "us/px",
    "imgio.bytes_read": "bytes", "imgio.bytes_written": "bytes", "imgio.p2_byte_share": "share",
    **{f"convolution.correlate.{k}_ms": "ms"
       for k in ("lap4", "lap8_zero", "shadow", "ones9", "real5", "ones9_w2", "real5_w2")},
    "convolution.workers2_speedup": "x", "convolution.mtaps_per_s": "Mtaps/s",
    "convolution.clamp_to_display.clamp_ms": "ms", "convolution.clamp_to_display.rescale_ms": "ms",
    "convolution.zero_tap_share": "share", "convolution.int_kernel_share": "share",
    "core.clamp_round_ms": "ms", "core.round_half_away_ms": "ms", "core.signed_image_ms": "ms",
    "core.binary_image_ms": "ms", "core.clip_share": "share",
    "enhance.laplacian_sharpen_ms": "ms", "enhance.box_blur_r1_ms": "ms",
    "enhance.box_blur_r5_ms": "ms", "enhance.unsharp_mask_ms": "ms",
    "enhance.blur_radius_cost_ratio": "x",
    "edges.binarize_ms": "ms", "edges.edge_points_ms": "ms", "edges.shadow_ne_ms": "ms",
    "edges.image_add_ms": "ms",
    "point_ops.negate_ms": "ms", "point_ops.gray_stretch_ms": "ms", "point_ops.apply_lut_ms": "ms",
    "histogram.compute_ms": "ms", "histogram.csv_ms": "ms", "histogram.render_ms": "ms",
    "pipeline.parse_ms": "ms", "pipeline.run_ms": "ms", "pipeline.overhead_ms": "ms",
    "trace.overhead_share": "share",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    op: str
    wall: float
    cpu: float
    mpix: float
    problem: str | None
    digests: list


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _reap(proc: subprocess.Popen):
    """Wait for ``proc`` with a kill deadline; return (status, rusage)."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, usage


def spawn_cli(args: list[str], work: Path):
    """Run one grayfilt process; return (wall, cpu, maxrss_kb, problem)."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args], cwd=ROOT,
                                env=_child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        code, usage = _reap(proc)
        wall = time.perf_counter() - t0
    stderr = err_path.read_bytes()
    problem = None
    if code != 0:
        problem = f"exit {code}: {stderr[-300:].decode(errors='replace')}"
    elif b"Traceback (most recent call last)" in stderr:
        problem = "traceback on stderr"
    elif args != ["--version"] and out_path.stat().st_size:
        problem = "output on stdout"
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, problem


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(paths) -> list:
    return [_sha(p.read_bytes()) if p.exists() else None for p in paths]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check(samples: list[Sample], expected: dict, recorded: dict | None) -> None:
    """Fail every sample whose digests differ from the reference, or from the
    recorded digests when the run uses the default seed."""
    for s in samples:
        if s.problem:
            continue
        if s.digests != expected[s.op]:
            s.problem = "output differs from the reference"
        elif recorded is not None and s.digests != recorded.get(s.op):
            s.problem = "output differs from the recorded digest"


def recorded_digests(args, digests: dict | None) -> dict | None:
    if args.seed != DEFAULT_SEED:
        return None
    if digests is None:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return digests.get(_mode(args), {}).get(args.workload, {})


def _mode(args) -> str:
    return "smoke" if args.smoke else "full"


def _record(args, expected: dict) -> None:
    if args.seed != DEFAULT_SEED:
        raise SetupError(f"digests are recorded at the default seed {DEFAULT_SEED}")
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    doc.setdefault(_mode(args), {})[args.workload] = expected
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Timed runs (tracing off)
# ---------------------------------------------------------------------------

def plan_cycles(args, cycle_s: float) -> int:
    """Whole cycles of the op mix; a fixed count per --seconds keeps the
    sample count, and so the tail percentile, the same on every run."""
    return 1 if args.smoke else max(1, round(args.seconds / cycle_s))


def cli_timed(wl, args, sizes, work: Path):
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inp = wl.materialize(args.seed, sizes, _fresh(work / "in"))
        *_, problem = spawn_cli(["--version"], work)
        setup.append(time.perf_counter() - t0)
        if problem:
            raise SetupError(f"grayfilt --version failed: {problem}")
    stats = ref.Stats()
    ops = wl.ops(inp, stats)
    outdir = _fresh(work / "out")
    samples, rss = [], []
    t_end = time.perf_counter() + OVERRUN * args.seconds
    for k in range(plan_cycles(args, wl.nominal_cycle_s)):
        if k and time.perf_counter() > t_end:
            break
        for op in ops:
            outs = [outdir / n for n in op.out_names]
            wall, cpu, maxrss, problem = spawn_cli(op.argv(outs), work)
            samples.append(Sample(op.id, wall, cpu, op.mpix, problem, _file_digests(outs)))
            rss.append(maxrss)
    expected = {op.id: [_sha(b) for b in op.expected()] for op in ops}
    return samples, setup, rss, expected, ops, stats


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it (nearest
    rank n-10); returns (value, percentile, samples beyond)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(samples: list[Sample], setup: list[float], rss_kb: list[int]) -> tuple[dict, dict]:
    walls = [s.wall for s in samples]
    mpix = sum(s.mpix for s in samples)
    tail_value, tail_pct, beyond = tail(walls)
    values = {
        "mpix_per_s": mpix / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "cpu_s_per_mpix": sum(s.cpu for s in samples) / mpix,
        "peak_rss_mb": max(rss_kb) / 1024.0,
        "setup_s": statistics.median(setup),
    }
    extra = {"op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
             "samples": len(walls), "setup_samples_s": setup}
    return values, extra


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced(wl, args, sizes, work: Path, recorded):
    sys.path.insert(0, str(SRC))
    import grayfilt as g
    startup = statistics.median(spawn_cli(["--version"], work)[0] for _ in range(STARTUP_REPS))
    tracer = Tracer()
    samples, cli_wall, root_time, plain_time = [], 0.0, 0.0, 0.0
    io = {"imgio.bytes_read": 0, "imgio.bytes_written": 0}
    cycles = plan_cycles(args, wl.traced_cycle_s)
    stats = ref.Stats()

    def replay(mode, op_id, run):
        """Run once plain and once traced, in alternating order; return
        the problem, if any."""
        nonlocal root_time, plain_time
        problem, durations = None, {}
        for name in mode:
            t0 = time.perf_counter()
            try:
                if name == "traced":
                    with tracer.op(op_id, "cli"):
                        run(tracer, name)
                else:
                    run(Plain, name)
            except Exception as exc:  # the op fails; the run goes on
                problem = problem or f"in-process {name}: {exc!r}"
            durations[name] = time.perf_counter() - t0
        root_time += durations["traced"]
        plain_time += durations["plain"]
        return problem

    k = 0
    inp = wl.materialize(args.seed, sizes, _fresh(work / "in"))
    ops = wl.ops(inp, stats)
    dirs = {name: _fresh(work / name) for name in ("cli", "plain", "traced")}
    for _ in range(cycles):
        for op in ops:
            mode = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
            k += 1
            outs = {name: [d / n for n in op.out_names] for name, d in dirs.items()}
            wall, _, _, problem = spawn_cli(op.argv(outs["cli"]), work)
            cli_wall += wall
            problem = problem or replay(mode, op.id, lambda ctx, name: op.replay(ctx, g, outs[name]))
            digests = {name: _file_digests(o) for name, o in outs.items()}
            if not problem and not (digests["cli"] == digests["plain"] == digests["traced"]):
                problem = "CLI output differs from the in-process chain of calls"
            samples.append(Sample(op.id, wall, 0.0, op.mpix, problem, digests["cli"]))
            io["imgio.bytes_read"] += sum(r.stat().st_size for r in op.reads)
            io["imgio.bytes_written"] += sum(p.stat().st_size for p in outs["traced"] if p.exists())
    expected = {op.id: [_sha(b) for b in op.expected()] for op in ops}
    check(samples, expected, recorded)
    tracer.write(work / "spans.jsonl")
    layer_metrics, disagree = layers.measure(g, args.seed, sizes)
    samples += [Sample(f"workers-agree-{name}", 0.0, 0.0, 0.0, problem, [])
                for name, problem in disagree.items()]

    metrics = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        t = totals.get(layer, {"calls": 0, "busy_s": 0.0, "failed": 0})
        metrics[f"{layer}.calls"] = t["calls"]
        metrics[f"{layer}.busy_s"] = t["busy_s"]
        metrics[f"{layer}.failed"] = t["failed"]
    metrics["cli.startup_s"] = startup
    metrics["cli.overhead_share"] = (cli_wall - root_time) / cli_wall
    metrics.update(io)
    metrics["trace.overhead_share"] = (root_time - plain_time) / plain_time
    metrics.update(layer_metrics)
    span_total = sum(t["busy_s"] for t in totals.values())
    shares = {layer: t["busy_s"] / span_total for layer, t in totals.items()}
    return samples, metrics, expected, ops, stats, shares


# ---------------------------------------------------------------------------
# Environment and properties
# ---------------------------------------------------------------------------

def environment(ws_bytes: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    llc = caches.get(max(caches, default=""), "")
    llc_bytes = int(llc[:-1]) * 1024 if llc.endswith("K") else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "working_set_bytes_computed": ws_bytes,
        "working_set_over_llc_computed": ws_bytes / llc_bytes if llc_bytes else None,
    }


def properties(ops, stats: ref.Stats) -> dict:
    props = stats.as_properties()
    pgm = sum(op.pgm_read_bytes for op in ops)
    props["imgio.p2_byte_share"] = sum(op.p2_read_bytes for op in ops) / pgm if pgm else 0.0
    return props


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(W.WORKLOADS), "all"],
                        help='one workload, or "all" to run each in turn')
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one cycle")
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's reference digests to digests.json")
    return parser.parse_args(argv)


def run(args, digests: dict | None = None) -> tuple[dict, dict]:
    if not (SRC / "grayfilt" / "cli.py").is_file():
        raise SetupError(f"no grayfilt sources under {SRC}; run from a source checkout")
    # Byte-compile as an install would, so no child compiles grayfilt on
    # import even where PYTHONDONTWRITEBYTECODE is set.
    for package in (SRC / "grayfilt", HERE):
        compileall.compile_dir(str(package), maxlevels=0, quiet=1)
    wl = W.WORKLOADS[args.workload]
    sizes = W.SMOKE_SIZES if args.smoke else W.FULL_SIZES
    work = _fresh(HERE / "_work" / args.workload)
    recorded = None if args.record_digests else recorded_digests(args, digests)
    shares = None
    if args.trace:
        samples, metrics, expected, ops, stats, shares = traced(wl, args, sizes, work, recorded)
        units = PER_LAYER_UNITS
        extra = {}
    else:
        samples, setup, rss, expected, ops, stats = cli_timed(wl, args, sizes, work)
        check(samples, expected, recorded)
        metrics, extra = end_to_end(samples, setup, rss)
        units = END_TO_END_UNITS
    props = properties(ops, stats)
    if args.trace:
        metrics.update(props)
    failed = [s for s in samples if s.problem]
    if args.record_digests:
        if failed:
            raise SetupError(f"not recording digests: {failed[0].op}: {failed[0].problem}")
        _record(args, expected)
    ws = max(op.ws_bytes for op in ops)
    per_op = {}
    for s in samples:
        per_op.setdefault(s.op, []).append(s.wall)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "failed_ops_ratio": len(failed) / len(samples),
        "failures": sorted({f"{s.op}: {s.problem}" for s in failed})[:10],
        "properties": props, **extra,
        "op_p50_s_by_op": {k: statistics.median(v) for k, v in per_op.items()},
        "layer_share_of_span_time": shares,
        "environment": environment(ws),
    }
    result = {
        "correct": not failed, "attempted": len(samples), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return summary, result


def main(argv=None, digests: dict | None = None) -> int:
    args = parse_args(argv)
    names = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        try:
            summary, result = run(args, digests)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"summary": summary}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
