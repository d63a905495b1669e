"""Command-line interface: file-in/file-out pipeline stages.

The subcommands, their flags, input checks and reports come from
`pipeline.STAGES`. Thread limits (--threads) must be applied through the
environment before numpy loads its BLAS, so main() reads --threads in a
pre-pass before `pipeline` (and with it numpy) is imported.
"""

import argparse
import functools
import os
import sys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_GATE_FAILED = 3


def build_parser() -> argparse.ArgumentParser:
    from . import audio, pipeline

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

    for stage in pipeline.STAGES.values():
        p = sub.add_parser(stage.name)
        for flag, kwargs in stage.options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=functools.partial(run_stage, stage))
    p = sub.add_parser("features",
                       help="WAV to time-frequency image PGM")
    p.add_argument("wav")
    p.add_argument("pgm_out")
    p.add_argument("--representation", choices=audio.REPRESENTATIONS,
                   default=pipeline.DEFAULT_CONFIG["audio"]["representation"])
    p.set_defaults(handler=run_features)
    return parser


def _set_threads(n: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def load_config(args) -> dict:
    from . import formats, pipeline
    from .errors import ConfigurationError

    user = None
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        user = formats.read_json(args.config, ())
    try:
        cfg = pipeline.resolve_config(user)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{args.config}: {exc}") from None
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


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
    return EXIT_OK


def run_stage(stage, args, cfg) -> int:
    """Run a pipeline stage with its flags and print its report;
    EXIT_GATE_FAILED if the result misses the stage's gate."""
    from . import pipeline

    params = {flag.lstrip("-"): getattr(args, flag.lstrip("-"))
              for flag, _ in stage.options}
    result = pipeline.run_stage(stage.name, cfg, cfg["output_dir"], **params)
    if stage.summary is not None:
        print(stage.summary(result, **params))
    if stage.gate is not None and not stage.gate(result, cfg):
        print("gate failed", file=sys.stderr)
        return EXIT_GATE_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--threads", type=int, default=1)
    try:
        _set_threads(pre.parse_known_args(argv)[0].threads)
    except argparse.ArgumentError:
        pass  # the full parser reports it
    args = build_parser().parse_args(argv)

    try:
        return args.handler(args, load_config(args))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as exc:  # config/numeric errors: generic failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
