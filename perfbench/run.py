"""radroute benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload seg-train --seed 1 --seconds 36 \
        --trace 0

Run from the root of a radroute source tree. The package is imported from
`src/`; nothing is installed. BLAS and OpenMP are limited to one thread.

`--trace 0` times the workload untraced, in rounds: each round runs the
whole pipeline into a fresh directory as set-up, timed part and tail (see
workloads.py), and rounds repeat for `--seconds` (three at least). Every
metric is the median of its samples over the rounds. `--trace 1` runs one
untraced round and one round with every layer wrapped by `tracer.Tracer`,
checks that both write the same bytes and that tracing left no wrapper
behind, and reports the per-layer metrics. Each stage call is one
operation; so is each comparison of a round's output tree with the first
round's. Details of the run (samples, the machine, scores, per-shape layer
table) go to `.bench_out/results/<workload>-seed<seed>-trace<t>.json`,
spans to `.bench_out/traces/`. The last line on stdout is the result object.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
PHASES = ("setup", "timed", "tail")
MIN_ROUNDS = 3

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class StageFailed(Exception):
    pass


# ----------------------------------------------------------------- stages


def _count(out, subdir, suffix):
    path = os.path.join(out, subdir)
    if not os.path.isdir(path):
        return 0
    return sum(1 for f in os.listdir(path) if f.endswith(suffix))


def _fraction_problems(label, values):
    return [f"{label} {v!r} is not a finite number in [0, 1]"
            for v in values
            if not (isinstance(v, float) and math.isfinite(v)
                    and 0.0 <= v <= 1.0)]


class Stages:
    """Calls into `pipeline.run_*` and the check of each call's outputs.

    A check returns a list of problems (empty when the output is right)
    and the scores worth recording.
    """

    def __init__(self, pipeline, cfg, segment_model):
        self.pipeline, self.cfg = pipeline, cfg
        self.segment_model = segment_model

    def call(self, stage, out):
        p, cfg = self.pipeline, self.cfg
        if stage == "simulate":
            os.makedirs(out, exist_ok=True)
            p.write_resolved_config(cfg, out)
            return p.run_simulate(cfg, out)
        if stage == "train_seg1":
            return p.run_train_seg(cfg, out, stage=1)
        if stage == "train_seg2":
            return p.run_train_seg(cfg, out, stage=2)
        if stage == "segment":
            for subdir in ("scans_eval_short", "scans_eval_long"):
                p.run_segment(cfg, out, subdir, self.segment_model)
            return None
        return getattr(p, f"run_{stage}")(cfg, out)

    def check(self, stage, out, result):
        return getattr(self, f"_check_{stage}")(out, result)

    def _check_simulate(self, out, _):
        n_eval = self.cfg["eval"]["eval_scans_per_world"]
        problems = []
        if _count(out, "scans_train", ".rds") == 0:
            problems.append("no training scans")
        for name in ("eval_short", "eval_long"):
            n = _count(out, f"scans_{name}", ".rds")
            if n != n_eval:
                problems.append(f"{n} {name} scans, expected {n_eval}")
        return problems, {}

    def _check_train_audio(self, out, report):
        accs = [float(a) for r in report.values() for a in r["accuracies"]]
        means = {rep: float(r["mean"]) for rep, r in report.items()}
        problems = _fraction_problems("audio accuracy", accs)
        if not os.path.isfile(os.path.join(out, "audio_model.kowt")):
            problems.append("no audio model written")
        return problems, {"audio_accuracy": min(means.values()),
                          "audio_accuracy_by_representation": means}

    def _check_eval_audio(self, out, report):
        acc = float(report["stream_accuracy"])
        problems = _fraction_problems("stream accuracy", [acc])
        if report["n_predictions"] < 1:
            problems.append("no stream predictions")
        return problems, {"stream_accuracy": acc}

    def _check_fuse(self, out, fused):
        import numpy as np
        if len(fused) == 0 or not np.all(np.isfinite(fused)):
            return ["fused trajectory empty or not finite"], {}
        return [], {}

    def _check_paint(self, out, lt):
        n_scans = _count(out, "scans_train", ".rds")
        n_masks = _count(out, "masks_initial", ".pgm")
        if n_masks != n_scans:
            return [f"{n_masks} initial masks for {n_scans} scans"], {}
        return [], {"labeled_trajectory_entries": len(lt.poses)}

    def _check_train_seg(self, out, stage):
        steps = self.cfg["segmentation"][f"stage{stage}_steps"]
        with open(os.path.join(out, f"seg_stage{stage}_log.json")) as f:
            log = json.load(f)
        losses = [float(x) for x in log["losses"]]
        problems = []
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"stage {stage} loss not finite")
        if len(losses) + log["skipped_batches"] != steps:
            problems.append(f"stage {stage}: {len(losses)} losses and "
                            f"{log['skipped_batches']} skipped of {steps}")
        if not os.path.isfile(os.path.join(out, f"seg_stage{stage}.kowt")):
            problems.append(f"no stage {stage} model written")
        mean = sum(losses) / len(losses) if losses else float("nan")
        return problems, {f"seg{stage}_mean_loss": mean,
                          f"seg{stage}_skipped_batches":
                              log["skipped_batches"]}

    def _check_train_seg1(self, out, _):
        return self._check_train_seg(out, 1)

    def _check_train_seg2(self, out, _):
        problems, scores = self._check_train_seg(out, 2)
        scores["seg_final_loss"] = scores.pop("seg2_mean_loss")
        return problems, scores

    def _check_propagate(self, out, report):
        problems = _fraction_problems(
            "propagation score", [float(report["side_path_recall"]),
                                  float(report["grass_false_positive_rate"])])
        n_scans = _count(out, "scans_train", ".rds")
        n_masks = _count(out, "masks_propagated", ".pgm")
        if n_masks != n_scans:
            problems.append(f"{n_masks} propagated masks for {n_scans} scans")
        return problems, {
            "side_path_recall": float(report["side_path_recall"]),
            "grass_false_positive_rate":
                float(report["grass_false_positive_rate"])}

    def _check_segment(self, out, _):
        problems = []
        for name in ("eval_short", "eval_long"):
            n_scans = _count(out, f"scans_{name}", ".rds")
            n_preds = _count(out, f"pred_scans_{name}", ".pgm")
            if n_preds != n_scans:
                problems.append(f"{n_preds} predictions for {n_scans} "
                                f"{name} scans")
        return problems, {}

    def _check_eval_seg(self, out, results):
        gates = self.cfg["eval"]
        problems = []
        for name, r in sorted(results.items()):
            acc, iou = float(r["pixel_accuracy"]), float(r["iou"])
            problems += _fraction_problems(f"{name} score", [acc, iou])
            if acc < gates["min_pixel_accuracy"] or iou < gates["min_iou"]:
                problems.append(f"{name} below the eval gates: "
                                f"accuracy {acc}, IoU {iou}")
        return problems, {
            "heldout_iou": min(float(r["iou"]) for r in results.values()),
            "heldout_pixel_accuracy":
                min(float(r["pixel_accuracy"]) for r in results.values())}

    def held_out_scans(self, out):
        return sum(_count(out, f"scans_{n}", ".rds")
                   for n in ("eval_short", "eval_long"))


# ------------------------------------------------------------------- runs


def tree_digest(root) -> dict:
    digests = {}
    for r, _, files in os.walk(root):
        for name in files:
            path = os.path.join(r, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    f.read()).hexdigest()
    return digests


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Operation accounting and stage samples for one benchmark run."""

    def __init__(self, stages: Stages):
        self.stages = stages
        self.tracer = None  # set by run_rounds for the traced round
        self.attempted = 0
        self.failures = []
        self.samples = {}  # stage -> seconds per call
        self.scan_rates = []  # held-out scans per second, per segment call
        self.scores = {}
        self.stage_rss = {}  # stage -> process high-water MB after the call
        self.tree_sha256 = None  # digest of the first round's output tree

    def stage(self, stage, out) -> float:
        self.attempted += 1
        span = (self.tracer.stage(f"pipeline.{stage}") if self.tracer
                else contextlib.nullcontext())
        try:
            t0 = time.perf_counter()
            with span:
                result = self.stages.call(stage, out)
            seconds = time.perf_counter() - t0
            problems, scores = self.stages.check(stage, out, result)
        except Exception:  # a failed stage is counted, not fatal to the run
            problems, scores = [traceback.format_exc()], {}
        if problems:
            self.failures.append({"stage": stage, "problems": problems})
            raise StageFailed(stage)
        self.samples.setdefault(stage, []).append(seconds)
        self.scores.update(scores)
        self.stage_rss[stage] = maxrss_mb()
        if stage == "segment":
            self.scan_rates.append(self.stages.held_out_scans(out) / seconds)
        return seconds

    def phase(self, names, out) -> float:
        """Wall seconds of the stage calls of one phase."""
        return sum(self.stage(name, out) for name in names)

    def compare(self, what, reference, digests):
        self.attempted += 1
        if digests != reference:
            differ = sorted(k for k in set(reference) | set(digests)
                            if reference.get(k) != digests.get(k))
            self.failures.append({"check": what, "files_differ": differ[:20]})


def run_rounds(run: Run, spec, work: Path, seconds: float,
               tracer: Tracer | None = None) -> dict:
    """Whole pipeline rounds, each in a fresh directory: set-up, timed part,
    tail. Untraced, rounds repeat until the next one would end past
    `seconds` (at least `MIN_ROUNDS`). Traced, one untraced round is followed
    by one traced round. Every round must write the same tree.
    """
    walls = {phase: [] for phase in PHASES}
    reference, left = None, []
    start = time.perf_counter()
    while True:
        k = len(walls["setup"])
        traced = tracer is not None and k == 1
        if traced:
            tracer.install()
            run.tracer = tracer
        try:
            d = work / f"round{k}"
            for phase in PHASES:
                walls[phase].append(run.phase(spec[phase], d))
        finally:
            if traced:
                run.tracer = None
                left = tracer.uninstall()
        digests = tree_digest(d)
        shutil.rmtree(d)
        if reference is None:
            reference = digests
            run.tree_sha256 = hashlib.sha256(json.dumps(
                digests, sort_keys=True).encode()).hexdigest()
        else:
            run.compare(f"round {k} tree vs round 0"
                        + (" (traced vs untraced)" if traced else ""),
                        reference, digests)
        if traced:
            run.attempted += 1
            if left:
                run.failures.append({"check": "wrappers restored",
                                     "not_restored": left})
            break
        elapsed = time.perf_counter() - start
        if (tracer is None and k + 1 >= MIN_ROUNDS
                and elapsed * (k + 2) / (k + 1) > seconds):
            break
    return walls


# ---------------------------------------------------------------- metrics


def summarize(samples) -> dict:
    """Median, and the highest percentile with >= 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"n": n, "median": statistics.median(s) if s else None,
           "p_hi": None, "p_hi_value": None}
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        out["p_hi"] = p
        out["p_hi_value"] = s[math.ceil(p * n / 100) - 1]
    return out


END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "train_audio_s": "s", "train_seg1_s": "s", "propagate_s": "s",
    "train_seg2_s": "s", "scans_per_s": "1/s",
}


def end_to_end_samples(run: Run, walls: dict) -> dict:
    return {
        "setup_s": walls["setup"],
        "wall_s": walls["timed"],
        "peak_rss_mb": [maxrss_mb()],
        "train_audio_s": run.samples.get("train_audio", []),
        "train_seg1_s": run.samples.get("train_seg1", []),
        "propagate_s": run.samples.get("propagate", []),
        "train_seg2_s": run.samples.get("train_seg2", []),
        "scans_per_s": run.scan_rates,
    }


GROUPS = {
    "numeric.MaxPool2d": ("numeric.MaxPool2d.forward",
                          "numeric.MaxPool2d.backward"),
    "numeric.Upsample2x": ("numeric.Upsample2x.forward",
                           "numeric.Upsample2x.backward"),
    "numeric.ReLU": ("numeric.ReLU.forward", "numeric.ReLU.backward"),
    "numeric.loss": ("numeric.cross_entropy", "numeric.binary_cross_entropy",
                     "numeric.masked_binary_cross_entropy",
                     "numeric.masked_cross_entropy"),
    "formats.read": ("formats.read_pgm", "formats.read_wav",
                     "formats.read_csv"),
    "formats.write": ("formats.write_pgm", "formats.write_ppm",
                      "formats.write_wav", "formats.write_csv",
                      "formats.db_image_to_pgm"),
}

# (metric, unit) in report order; see README.md for what each should move.
LAYER_METRICS = [
    ("numeric.Conv2d.forward.s", "s"), ("numeric.Conv2d.forward.calls",
                                        "count"),
    ("numeric.Conv2d.forward.gflop", "GFLOP"),
    ("numeric.Conv2d.backward.s", "s"),
    ("numeric.Conv2d.backward.calls", "count"),
    ("numeric.Conv2d.backward.gflop", "GFLOP"),
    ("numeric.MaxPool2d.s", "s"), ("numeric.Upsample2x.s", "s"),
    ("numeric.ReLU.s", "s"), ("numeric.loss.s", "s"),
    ("numeric.sgd_step.s", "s"),
    ("segmentation.UNet.forward.self_s", "s"),
    ("segmentation.UNet.backward.self_s", "s"),
    ("segmentation.augment.s", "s"), ("segmentation.augment.calls", "count"),
    ("segmentation.augment.useful_ratio", "ratio"),
    ("segmentation.augment.fallbacks", "count"),
    ("segmentation.sample_crops.s", "s"),
    ("segmentation.UNetInference.forward.s", "s"),
    ("segmentation.UNetInference.forward.calls", "count"),
    ("segmentation.propagate_labels.self_s", "s"),
    ("audio.extract_features.s", "s"), ("audio.extract_features.calls",
                                        "count"),
    ("dsp.stft.s", "s"), ("dsp.stft.calls", "count"),
    ("dsp.mel_filterbank.calls", "count"),
    ("dsp.GammatoneFilterbank.design.calls", "count"),
    ("dsp.gammatonegram_fast.s", "s"),
    ("audio.train_classifier.s", "s"), ("audio.evaluate.s", "s"),
    ("audio.classify_stream.s", "s"),
    ("canvas.polar_to_cartesian.s", "s"),
    ("canvas.polar_to_cartesian.calls", "count"),
    ("canvas.load_polar_scan.s", "s"), ("formats.read.s", "s"),
    ("formats.write.s", "s"), ("segmentation.prepare_scan_image.s", "s"),
    ("simworld.synth_radar.s", "s"), ("simworld.synth_radar.calls", "count"),
    ("simworld.synth_audio.s", "s"), ("simworld.scene_scatterers.s", "s"),
    ("simworld.ground_truth_mask.s", "s"),
    ("fusion.fuse.s", "s"), ("fusion.ekf_update.calls", "count"),
    ("fusion.label_trajectory.s", "s"), ("canvas.paint_labels.s", "s"),
    ("evaluate.scores.s", "s"),
] + [(f"pipeline.{stage}.{q}", unit) for stage in workloads.STAGES
     for q, unit in (("s", "s"), ("self_s", "s"), ("maxrss_mb", "MB"))]


def layer_metrics(tracer: Tracer, stage_rss: dict) -> dict:
    names = {sid: name for sid, _, name, *_ in tracer.spans}
    totals = tracer.totals()

    def busy(members):
        # outermost spans of the group only, so nesting is not counted twice
        return sum(t1 - t0 for _, parent, name, t0, t1, _ in tracer.spans
                   if name in members and names.get(parent) not in members)

    augment = tracer.augment_stats()
    values = {}
    for metric, _ in LAYER_METRICS:
        span, qty = metric.rsplit(".", 1)
        if qty == "s":
            values[metric] = busy(set(GROUPS.get(span, (span,))))
        elif qty in ("self_s", "calls"):
            values[metric] = totals.get(span, {}).get(qty, 0)
        elif qty == "gflop":
            values[metric] = tracer.flops.get(span, 0.0) / 1e9
        elif qty == "maxrss_mb":
            values[metric] = stage_rss.get(span.split(".", 1)[1], 0.0)
        else:  # augment outcome ratios
            values[metric] = augment[qty]
    return values


def machine_record() -> dict:
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "lapack": config.get("Build Dependencies", {}).get("lapack"),
        "simd": config.get("SIMD Extensions"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"),
                        default="bench",
                        help="smoke: the determinism gate's reduced sizes, "
                             "for checking the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "radroute" / "__init__.py").is_file():
        print(f"error: no radroute sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from radroute import pipeline

    spec = workloads.WORKLOADS[args.workload]
    workloads.check_split(args.workload)
    cfg = pipeline.resolve_config(
        workloads.user_config(args.workload, args.seed, args.size))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_ROOT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(Stages(pipeline, cfg, spec["segment_model"]))
    tracer = Tracer() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "config": cfg, "machine": machine_record()}
    metrics = {}
    try:
        walls = run_rounds(run, spec, work, args.seconds, tracer)
        record["phase_walls_s"] = walls
        if args.trace:
            record["tracing_overhead_s"] = {
                phase: walls[phase][1] - walls[phase][0] for phase in PHASES}
            values = layer_metrics(tracer, run.stage_rss)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in LAYER_METRICS}
            record["shape_table"] = tracer.shape_table()
            record["augment"] = tracer.augment_stats()
            record["raised"] = dict(tracer.raised)
            durations = {}
            for _, _, name, t0, t1, _ in tracer.spans:
                durations.setdefault(name, []).append(t1 - t0)
            record["span_latency_s"] = {n: summarize(d) for n, d in
                                        sorted(durations.items())}
        else:
            samples = end_to_end_samples(run, walls)
            record["end_to_end"] = {n: summarize(s)
                                    for n, s in samples.items()}
            metrics = {name: {"value": statistics.median(samples[name]),
                              "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()
                       if samples[name]}
    except StageFailed:
        pass  # counted in run.failures; the result says it is not correct
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["stage_samples_s"] = run.samples
    record["scores"] = run.scores
    record["failures"] = run.failures
    record["tree_sha256"] = run.tree_sha256
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    record["result"] = result
    (OUT_ROOT / "results").mkdir(parents=True, exist_ok=True)
    record_path = OUT_ROOT / "results" / f"{tag}.json"
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        (OUT_ROOT / "traces").mkdir(parents=True, exist_ok=True)
        with open(OUT_ROOT / "traces" / f"{tag}.jsonl", "w") as f:
            for span in tracer.span_records():
                f.write(json.dumps(span) + "\n")

    for failure in run.failures:
        print(f"FAILED: {json.dumps(failure)[:2000]}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
