"""Checks of the benchmark itself; exits 0 when all pass.

    python3 perfbench/selftest.py

The tracer must reach every namespace that re-imports a layer function, must
leave nothing installed afterwards (also when the traced code raises), and
must not change what the program computes: a traced unit reproduces the
poses and losses of an untraced unit bit for bit. Takes under a minute.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads


def check(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    return bool(cond)


def main():
    run._import_liodom()
    import liodom
    import numpy as np
    from liodom import matching, nn, pipeline, registration
    from liodom.preprocess import VoxelParams
    from tracer import Tracer, any_installed
    from workloads import WORKLOADS

    ok = True
    originals = (matching.match_nearest, registration.match_nearest, pipeline.remap,
                 liodom.remap, nn.Conv2d.forward, matching.KdIndex.query)
    tracer = Tracer()
    points = np.random.default_rng(0).uniform(-5.0, 5.0, (3000, 3))
    with tracer.installed("probe"):
        ok &= check(registration.match_nearest is matching.match_nearest
                    and registration.match_nearest is not originals[0],
                    "re-imported functions share one wrapper")
        ok &= check(all(getattr(f, "__wrapped_by_tracer__", False) for f in
                        (pipeline.remap, liodom.remap, nn.Conv2d.forward,
                         matching.KdIndex.query)),
                    "package re-exports and methods are wrapped")
        liodom.preprocess_cloud(points, VoxelParams(side_length=0.5, target=512))
    busy = tracer.busy_ms("probe")
    ok &= check(set(busy) >= {"preprocess.preprocess_cloud", "preprocess.estimate_normals_planefit",
                              "preprocess.ransac_ground_removal",
                              "preprocess.adaptive_voxel_downsample"},
                "nested calls are spanned")
    # Self times partition the traced time: over a run they add up to the
    # duration of the root span.
    total_self = sum(self_ms for _, self_ms, _ in busy.values())
    ok &= check(abs(total_self - busy["preprocess.preprocess_cloud"][0]) < 1e-6,
                "self times add up to the root span")
    ok &= check(not any_installed(), "no wrapper left after the block")
    try:
        with tracer.installed("raises"):
            raise RuntimeError("probe")
    except RuntimeError:
        pass
    ok &= check(not any_installed(), "no wrapper left after the block raises")
    ok &= check((matching.match_nearest, registration.match_nearest, pipeline.remap,
                 liodom.remap, nn.Conv2d.forward, matching.KdIndex.query) == originals,
                "originals restored in place")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        for name in ("eval-long", "train-smoke"):
            result, lines = run.run_workload(WORKLOADS[name], seed=3, seconds=0.0,
                                             trace=1, work=Path(work))
            gates = [line for line in lines if "gate" in line]
            ok &= check(result["correct"] and all(line.endswith("pass") for line in gates),
                        f"{name}: traced unit reproduces the untraced outputs "
                        f"({'; '.join(g.strip() for g in gates)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
