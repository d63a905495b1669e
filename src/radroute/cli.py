"""Command-line interface: file-in/file-out pipeline stages.

Thread limits (--threads) must be applied through the environment before
numpy loads its BLAS, so the heavy modules are imported lazily in main().
"""

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_GATE_FAILED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radroute",
        description="Weakly supervised driving-route segmentation in "
                    "synthetic radar scans.")
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="global seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS/OpenMP thread limit (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "train-audio", "eval-audio", "fuse", "paint",
                 "propagate", "eval-seg", "render", "reproduce"):
        sub.add_parser(name)
    p = sub.add_parser("features",
                       help="WAV to time-frequency image PGM")
    p.add_argument("wav")
    p.add_argument("pgm_out")
    p.add_argument("--representation", default="gammatone",
                   choices=("spectrogram", "mel", "gammatone"))
    p = sub.add_parser("train-seg")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p = sub.add_parser("segment")
    p.add_argument("--scans", default="scans_eval_short",
                   help="scan subdirectory under the output dir")
    p.add_argument("--model", default="seg_stage2")
    return parser


def _set_threads(n: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def load_config(args) -> dict:
    from . import pipeline

    user = None
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        with open(args.config) as f:
            user = json.load(f)
    cfg = pipeline.resolve_config(user)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


REQUIRED_INPUTS = {
    "train-audio": ["audio"],
    "eval-audio": ["audio_model.kowt", "traverse_audio.wav",
                   "poses_train.csv"],
    "fuse": ["vo.csv", "gps.csv", "poses_train.csv"],
    "paint": ["fused.csv", "predictions.csv", "scans_train"],
    "propagate": ["seg_stage1.kowt", "scans_train", "masks_initial",
                  "world_train.json"],
    "eval-seg": ["world_eval_short.json", "world_eval_long.json"],
    "render": ["scans_train", "masks_initial", "masks_propagated",
               "seg_stage2.kowt"],
}


def _check_inputs(command: str, out: str, extra=()):
    names = list(REQUIRED_INPUTS.get(command, ())) + list(extra)
    for name in names:
        if not os.path.exists(os.path.join(out, name)):
            raise FileNotFoundError(
                f"missing input for {command}: {os.path.join(out, name)}")


def run_features(args, cfg):
    from . import audio, formats, pipeline
    from .dsp import AudioClip

    if not os.path.exists(args.wav):
        raise FileNotFoundError(f"missing input: {args.wav}")
    samples, rate = formats.read_wav(args.wav)
    image = audio.extract_features(AudioClip(samples, rate),
                                   args.representation,
                                   pipeline.stft_config(cfg))
    formats.db_image_to_pgm(args.pgm_out, image)
    print(f"wrote {args.pgm_out} ({image.shape[0]}x{image.shape[1]})")


def _report_seg_scores(results: dict, cfg: dict) -> int:
    """Print held-out scores; EXIT_GATE_FAILED if any misses eval.min_*."""
    failed = False
    for name, r in sorted(results.items()):
        print(f"{name}: pixel_accuracy={r['pixel_accuracy']:.4f} "
              f"iou={r['iou']:.4f}")
        if (r["pixel_accuracy"] < cfg["eval"]["min_pixel_accuracy"]
                or r["iou"] < cfg["eval"]["min_iou"]):
            failed = True
    if failed:
        print("gate failed", file=sys.stderr)
        return EXIT_GATE_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _set_threads(args.threads)
    from . import pipeline

    try:
        cfg = load_config(args)
        out = cfg["output_dir"]
        command = args.command
        if command == "features":
            run_features(args, cfg)
            return EXIT_OK
        if command not in ("simulate", "reproduce"):
            extra = ()
            if command == "train-seg":
                extra = (["masks_initial"] if args.stage == 1
                         else ["seg_stage1.kowt", "masks_propagated"])
            elif command == "segment":
                extra = [f"{args.model}.kowt", args.scans]
            elif command == "eval-seg":
                extra = ["pred_scans_eval_short", "pred_scans_eval_long"]
            _check_inputs(command, out, extra)

        if command == "simulate":
            os.makedirs(out, exist_ok=True)
            pipeline.write_resolved_config(cfg, out)
            pipeline.run_simulate(cfg, out)
        elif command == "train-audio":
            report = pipeline.run_train_audio(cfg, out)
            for rep, r in sorted(report.items()):
                print(f"{rep}: mean held-out accuracy {r['mean']:.4f}")
        elif command == "eval-audio":
            report = pipeline.run_eval_audio(cfg, out)
            print(f"stream accuracy {report['stream_accuracy']:.4f} "
                  f"over {report['n_predictions']} predictions")
        elif command == "fuse":
            fused = pipeline.run_fuse(cfg, out)
            print(f"fused {len(fused)} poses")
        elif command == "paint":
            lt = pipeline.run_paint(cfg, out)
            print(f"labeled trajectory: {len(lt.poses)} entries")
        elif command == "train-seg":
            pipeline.run_train_seg(cfg, out, args.stage)
            print(f"stage {args.stage} model saved")
        elif command == "propagate":
            report = pipeline.run_propagate(cfg, out)
            print(f"side path recall {report['side_path_recall']:.3f}, "
                  f"grass false positive rate "
                  f"{report['grass_false_positive_rate']:.3f}")
        elif command == "segment":
            pipeline.run_segment(cfg, out, args.scans, args.model)
            print(f"segmented {args.scans}")
        elif command == "eval-seg":
            return _report_seg_scores(pipeline.run_eval_seg(cfg, out), cfg)
        elif command == "render":
            pipeline.run_render(cfg, out)
            print("renders written")
        elif command == "reproduce":
            return _report_seg_scores(pipeline.run_reproduce(cfg, out), cfg)
        return EXIT_OK
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as exc:  # config/numeric errors: generic failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
