"""liodom benchmark: one workload per call, last stdout line is the JSON result.

    python3 perfbench/run.py --workload odom-raw --seed 1 --seconds 10 --trace 0

Run from the root of a liodom checkout; the package is imported from its
`src/`. Each run sets a workload up from the seed (several times where that
is cheap; `setup_s` is the median), then repeats the workload's unit, one
after another, until `--seconds` have passed. With `--trace 0` it prints the
end-to-end metrics; between units it times a fixed reference loop, and the
throughput is reported in units of that loop's time (see `items_per_ref`).
With `--trace 1` it alternates an untraced and a traced unit, prints the
per-layer metrics of the traced ones, and writes their spans as JSONL under
`perfbench/out/`, next to a JSON record of every run and the generated inputs
(remove `perfbench/out/` to reclaim the space).
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS reads its thread count when numpy loads, so this precedes every import
# of numpy. One thread: with two on a 2-vCPU host, ten 192x192 matmuls took
# anywhere from 2 ms to 170 ms, run after run in one process. The cKDTree
# queries already run on one worker by default.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def _import_liodom():
    """Import liodom from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "liodom" / "__init__.py").is_file():
        sys.exit(f"no liodom package under {src}: run from a liodom checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import liodom

    if Path(liodom.__file__).resolve().parent != (src / "liodom").resolve():
        sys.exit(f"imported liodom from {liodom.__file__}, not from {src}")


# The host's speed drifts by +-20% over tens of seconds and over minutes, and
# wall-clock throughput of the same code spread by up to 27% between runs.
# A fixed reference loop with the same kinds of work as liodom (text parsed
# into small arrays, 4x4 inverses, np.unique over 30k ints, 256x256 and
# im2col-shaped matmuls, a dict-updating Python loop) drifts the same way;
# nothing in it calls liodom. It runs for REF_FIRST_S before the first unit and for REF_SHARE of
# each unit's time after it, at least REF_MIN times per batch. A unit's loop
# time is the mean of the medians of the batches on its two sides, and
# items_per_ref = median over units of items / (unit seconds / loop time).
REF_FIRST_S = 2.0
REF_SHARE = 0.2
REF_MIN = 3


def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    lines = [" ".join(f"{v:.9e}" for v in row) for row in rng.normal(size=(300, 12))]
    poses = [np.vstack([rng.normal(size=(3, 4)), [0.0, 0.0, 0.0, 1.0]]) for _ in range(8)]
    return (lines, poses, rng.integers(0, 4000, size=30000), rng.normal(size=(256, 256)),
            rng.normal(size=(8192, 144)), rng.normal(size=(144, 32)))


def reference_seconds(inputs):
    """Time of one run of the fixed reference loop, about 25 ms."""
    import numpy as np

    lines, poses, ints, square, cols, weights = inputs
    t0 = time.perf_counter()
    acc = 0.0
    for line in lines:
        acc += np.array([float(x) for x in line.split()]).reshape(3, 4)[0, 0]
    for k in range(400):
        acc += (np.linalg.inv(poses[k % 8]) @ poses[(k + 1) % 8])[0, 0]
    for k in range(4):
        acc += np.unique(ints + k, return_inverse=True)[1][0]
    for _ in range(6):
        acc += (square @ square)[0, 0]
    for _ in range(2):
        acc += (cols @ weights)[0, 0]
    counts = {}
    for i in range(20000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - t0


def sample_reference(inputs, budget_s):
    """Run the reference loop for about `budget_s`, at least REF_MIN times."""
    times = [reference_seconds(inputs) for _ in range(REF_MIN)]
    while sum(times) < budget_s:
        times.append(reference_seconds(inputs))
    return times


TOTAL, SELF = 0, 1


def _ms(name, part=TOTAL):
    return lambda busy, counts, quality: busy[name][part] if name in busy else 0.0


def _count(name):
    return lambda busy, counts, quality: counts.get(name, 0.0)


def _calls(name):
    return lambda busy, counts, quality: busy[name][2] if name in busy else 0


def _ratio(num, den):
    return lambda busy, counts, quality: (counts.get(num, 0.0) / counts[den]
                                          if counts.get(den) else 0.0)


def _quality(name):
    return lambda busy, counts, quality: quality.get(name, 0.0)


# name -> (unit, value from (span busy times, counters, unit quality)).
# A metric of a layer a workload never calls reads 0.
PER_LAYER = {
    "dataset_io.read_velodyne_bin.ms": ("ms", _ms("dataset_io.read_velodyne_bin")),
    "dataset_io.read_oxts.ms": ("ms", _ms("dataset_io.read_oxts")),
    "dataset_io.read_poses.ms": ("ms", _ms("dataset_io.read_poses")),
    "preprocess.estimate_normals_planefit.ms": ("ms", _ms("preprocess.estimate_normals_planefit")),
    "preprocess.ransac_ground_removal.ms": ("ms", _ms("preprocess.ransac_ground_removal")),
    "preprocess.adaptive_voxel_downsample.ms": ("ms", _ms("preprocess.adaptive_voxel_downsample")),
    "preprocess.voxel_passes": ("count", _count("preprocess.voxel_passes")),
    "preprocess.voxel_target_met_ratio": ("ratio", _ratio("preprocess.voxel_target_met",
                                                          "preprocess.clouds")),
    "range_image.project.ms": ("ms", _ms("range_image.project")),
    "range_image.compute_normal_map.ms": ("ms", _ms("range_image.compute_normal_map")),
    "range_image.remap.ms": ("ms", _ms("range_image.remap")),
    "matching.build_index.ms": ("ms", _ms("matching.build_index")),
    "matching.query.ms": ("ms", _ms("matching.KdIndex.query")),
    "matching.query.calls": ("count", _calls("matching.KdIndex.query")),
    "matching.match_ratio": ("ratio", _ratio("matching.kept", "matching.query.points")),
    "registration.register.self_ms": ("ms", _ms("registration.register", SELF)),
    "registration.outer_iterations": ("count", _count("registration.outer_iterations")),
    "registration.converged_ratio": ("ratio", _ratio("registration.converged",
                                                     "registration.calls")),
    "nn.Conv2d.forward.ms": ("ms", _ms("nn.Conv2d.forward")),
    "nn.Conv2d.backward.ms": ("ms", _ms("nn.Conv2d.backward")),
    "nn.MapEncoder.forward.self_ms": ("ms", _ms("nn.MapEncoder.forward", SELF)),
    "nn.MapEncoder.backward.self_ms": ("ms", _ms("nn.MapEncoder.backward", SELF)),
    "nn.LSTM.forward.ms": ("ms", _ms("nn.LSTM.forward")),
    "nn.LSTM.backward.ms": ("ms", _ms("nn.LSTM.backward")),
    "nn.AttentionHead.forward.ms": ("ms", _ms("nn.AttentionHead.forward")),
    "nn.AttentionHead.backward.ms": ("ms", _ms("nn.AttentionHead.backward")),
    "nn.Adam.step.ms": ("ms", _ms("nn.Adam.step")),
    "nn.Adam.step.calls": ("count", _calls("nn.Adam.step")),
    "pipeline.build_frame_pairs.ms": ("ms", _ms("pipeline.build_frame_pairs")),
    "pipeline.estimate_pair.self_ms": ("ms", _ms("pipeline.estimate_pair", SELF)),
    "pipeline.composed_pose_gradients.ms": ("ms", _ms("pipeline.composed_pose_gradients")),
    "pipeline.train_step.self_ms": ("ms", _ms("pipeline.train_step", SELF)),
    "pipeline.train_epoch.ms": ("ms", _ms("pipeline.train_epoch")),
    "pipeline.run_sequence.ms": ("ms", _ms("pipeline.run_sequence")),
    "pipeline.pairs_skipped": ("count", _count("pipeline.pairs_skipped")),
    "pipeline.loss_final": ("loss", _quality("loss_final")),
    "pipeline.pose_err_t_mm": ("mm", _quality("pose_err_t_mm")),
    "pipeline.pose_err_r_mdeg": ("mdeg", _quality("pose_err_r_mdeg")),
    "evaluation.kitti_relative_errors.ms": ("ms", _ms("evaluation.kitti_relative_errors")),
    "evaluation.segments": ("count", _count("evaluation.segments")),
}


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _tally(units):
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    gates = {}
    for u in units:
        for name, passed in u.gates.items():
            gates[name] = gates.get(name, True) and passed
    return attempted, failed, gates


def run_workload(workload, seed, seconds, trace, work):
    """Set up, run units for `seconds`, and return (result dict, report lines)."""
    import numpy as np
    from tracer import Tracer, any_installed

    setup_times = []
    for i in range(workload.setup_repeats):
        workdir = Path(tempfile.mkdtemp(prefix=f"setup{i}-", dir=work))
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    units, traced, layer_rows = [], [], []
    tracer = Tracer()
    ref_inputs = None if trace else _reference_inputs()
    ref_batches = [] if trace else [sample_reference(ref_inputs, REF_FIRST_S)]
    start = time.perf_counter()
    # Units run back to back; the run stops at the unit boundary nearest to
    # `seconds`, so a long unit does not double the run.
    while not units or (time.perf_counter() - start) * (1 + 0.5 / len(units)) < seconds:
        if not trace:
            units.append(workload.unit(state))
            ref_batches.append(sample_reference(ref_inputs, REF_SHARE * units[-1].seconds))
            continue
        # Traced and untraced units alternate which runs first, so that
        # neither side of the overhead always gets the warmer start.
        run_id = f"{workload.name}/seed{seed}/unit{len(traced)}"
        for traced_now in (False, True) if len(traced) % 2 == 0 else (True, False):
            if traced_now:
                with tracer.installed(run_id):
                    traced.append(workload.unit(state))
            else:
                units.append(workload.unit(state))
        same = all(np.array_equal(a, b) for a, b in
                   zip(units[-1].outputs, traced[-1].outputs, strict=True))
        traced[-1].gates["traced outputs identical to untraced"] = same
        busy, counts = tracer.busy_ms(run_id), tracer.counters[run_id]
        layer_rows.append({name: fn(busy, counts, traced[-1].quality)
                           for name, (_, fn) in PER_LAYER.items()})
    attempted, failed, gates = _tally(units + traced)
    if trace:
        gates["no tracer wrapper left installed"] = not any_installed()
    lines = [f"{workload.name}: seed {seed}, {len(units)} untraced and {len(traced)} traced "
             f"units, {attempted} operations attempted, {failed} failed"]
    lines += [f"  gate {name}: {'pass' if ok else 'FAIL'}" for name, ok in gates.items()]

    if trace:
        untraced_s = statistics.median(u.seconds for u in units)
        traced_s = statistics.median(u.seconds for u in traced)
        metrics = {name: {"value": statistics.median(row[name] for row in layer_rows),
                          "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / untraced_s - 1.0),
                                         "unit": "%"}
        spans = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(spans)
        lines.append(f"  untraced unit {untraced_s:.3f} s, traced {traced_s:.3f} s; "
                     f"spans in {spans.relative_to(ROOT)}")
    else:
        items_per_s = statistics.median(u.items / u.seconds for u in units)
        ref_medians = [statistics.median(b) for b in ref_batches]
        unit_refs = [(a + b) / 2 for a, b in zip(ref_medians, ref_medians[1:])]
        metrics = {
            "items_per_ref": {"value": statistics.median(
                u.items * r / u.seconds for u, r in zip(units, unit_refs, strict=True)),
                "unit": "items/ref"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        lines.append(f"  one item = one {workload.item}; one ref = one reference loop, "
                     f"median {1e3 * statistics.median(ref_medians):.3f} ms, "
                     f"{sum(map(len, ref_batches))} runs")
        lines.append(f"  items_per_s = {items_per_s:.6g} items/s (wall clock)")
        for name, (_, _, unit) in units[0].rates.items():
            rate = statistics.median(n / s for n, s, _ in (u.rates[name] for u in units))
            lines.append(f"  {name} = {rate:.6g} {unit}")
        for name in units[0].quality:
            lines.append(f"  {name} = {statistics.median(u.quality[name] for u in units):.6g}")
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0 and all(gates.values()),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "trace": trace,
              "machine": machine_info(), "report": lines, "result": result,
              "units": [{"items": u.items, "seconds": u.seconds} for u in units],
              "reference_s": ref_batches}
    (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_liodom()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    print("machine:", json.dumps(machine_info()))
    OUT.mkdir(exist_ok=True)
    # The generated inputs stay behind: on a filesystem that discards freed
    # blocks as it goes, deleting them slows the next run's set-up writes,
    # and each run of odom-raw would then set up slower than the last.
    work = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     args.trace, work)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
