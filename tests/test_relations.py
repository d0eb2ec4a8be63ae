"""Symmetry relations of every built-in op (metamorphic testing: Chen,
Cheung and Yiu, HKUST-CS98-01, 1998).

Each op is a rule on a pixel's neighbourhood that no symmetry of the square
changes, so for each of the 8 symmetries T, op(T(img)) == T(op(img)): with
T applied to the second image of ``add`` too, and to the kernel of
``convolve``. ``shadow`` and ``shadow --invert`` light the image from one
corner, and keep only the reflection in the anti-diagonal, which fixes
that corner and its opposite. The cases come from ``pipeline.OPS``, and
each runs on every engine of ``support.ENGINES``: the bytes forms, numpy,
and numpy with strip seams inside the image. A rounding that depends on
tap order breaks a relation, so these catch it without replaying the
engine's own arithmetic, as the oracles do. The decimal-kernel relation
waits for exact kernel files: it fails today (ROADMAP item 16). A kernel
file that spells a built-in stencil is that op, on every engine too.
"""

import numpy as np
import pytest

from grayfilt import Image, save_pgm
from grayfilt._swar import LAPLACIANS, SHARPEN
from support import ENGINES, op_stages, run_stages, stage_label

SYMMETRIES = {
    "identity": lambda a: a,
    "rot90": np.rot90,
    "rot180": lambda a: np.rot90(a, 2),
    "rot270": lambda a: np.rot90(a, 3),
    "flip-rows": np.flipud,
    "flip-columns": np.fliplr,
    "transpose": np.transpose,
    "anti-transpose": lambda a: np.rot90(a, 2).T,
}
#: Integer kernels, as their files spell them: one square, one not.
KERNELS = {"k3x3": [[1, -2, 0], [0, 4, -1], [2, 0, -3]],
           "k3x5": [[0, 1, -2, 0, 3], [1, 0, 4, -1, 0], [-2, 0, 0, 1, 1]]}
#: Seeded scenes of both orientations, each above the 5-pixel strips.
SCENES = [np.random.default_rng(seed).integers(0, 256, shape, np.uint8)
          for seed, shape in ((11, (7, 11)), (12, (9, 1)))]
#: Every generated stage, with each path parameter named by what it holds.
STAGES = list(op_stages({"table": ("lut",), "image": ("second",), "kernel": tuple(KERNELS)}))


def _write(tmp_path, stage, scene, t, name):
    """``stage`` with each path parameter made a file, transformed by ``t``:
    a 256-entry table, the scene's seeded second image, or a kernel."""
    paths = {}
    for key, value in list(stage.items())[1:]:  # after "op"
        path = tmp_path / f"{name}-{key}"
        if value == "lut":
            path.write_text(" ".join(str((7 * v + 3) % 256) for v in range(256)))
        elif value == "second":
            save_pgm(path, Image(t(np.random.default_rng(13).integers(0, 256, scene.shape,
                                                                        np.uint8))))
        elif value in KERNELS:
            kernel = t(np.array(KERNELS[value]))
            path.write_text(f"{kernel.shape[0]} {kernel.shape[1]}\n"
                            + "".join(" ".join(map(str, row)) + "\n" for row in kernel))
        else:
            continue
        paths[key] = str(path)
    return {**stage, **paths}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("stage", STAGES, ids=stage_label)
def test_op_commutes_with_the_symmetries_of_the_square(tmp_path, stage, engine):
    names = ["anti-transpose"] if stage["op"] == "shadow" else list(SYMMETRIES)
    for k, scene in enumerate(SCENES):
        plain = run_stages([_write(tmp_path, stage, scene, SYMMETRIES["identity"], k)], scene,
                           **ENGINES[engine])
        for name in names:
            t = SYMMETRIES[name]
            moved = run_stages([_write(tmp_path, stage, scene, t, f"{k}-{name}")], t(scene),
                               **ENGINES[engine])
            expected = t(np.frombuffer(plain, np.uint8).reshape(scene.shape))
            assert moved == np.ascontiguousarray(expected).tobytes(), (name, scene.shape)


#: The built-in stencils with bias 0, by the op and variant that declare them.
BUILT_IN = {(op, variant): stencils[variant]
            for op, stencils in (("sharpen", SHARPEN), ("laplacian", LAPLACIANS))
            for variant in ("four", "eight")}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("op, variant", list(BUILT_IN), ids=[" ".join(k) for k in BUILT_IN])
def test_a_kernel_file_of_a_built_in_stencil_is_that_op(tmp_path, op, variant, engine):
    # Each stencil is its own rot180, so convolving with its file correlates with it.
    stencil = BUILT_IN[op, variant]
    assert stencil == tuple(row[::-1] for row in stencil[::-1])
    path = tmp_path / "k.txt"
    path.write_text("3 3\n" + "".join(" ".join(map(str, row)) + "\n" for row in stencil))
    for scene in SCENES:
        assert (run_stages([{"op": "convolve", "kernel": str(path)}], scene, **ENGINES[engine])
                == run_stages([{"op": op, "variant": variant}], scene, **ENGINES[engine]))
