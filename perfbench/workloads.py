"""The benchmark's workloads: a pipeline config each, and a stage split.

Each benchmark round runs every pipeline stage once, in three phases:

- `setup`: the stages that make the timed part's inputs (`setup_s`);
- `timed`: the stages the workload is about (`wall_s`);
- `tail`: the remaining stages, so that every stage's end-to-end metric and
  every layer is measured on every workload.

Workloads shrink counts only (steps, trials, epochs, clips, scans,
rotations); shapes stay at desk scale: 256x256 scans, 64x64 crops at
batch 8, 0.5 s audio clips, U-Net depth 3 with 8 base channels. The
`smoke` size swaps in the reduced sizes of the repository's determinism
gate so the harness can be checked in seconds.
"""

import copy

STAGES = ("simulate", "train_audio", "eval_audio", "fuse", "paint",
          "train_seg1", "propagate", "train_seg2", "segment", "eval_seg")

# At these counts the networks are far from converged, so held-out scores
# swing from seed to seed; like the determinism gate's reduced run, the
# workloads check that scores are finite and in range, not desk-scale
# quality.
NO_QUALITY_GATES = {"min_pixel_accuracy": 0.0, "min_iou": 0.0}

WORKLOADS = {
    "seg-train": {
        "why": "U-Net training at desk shapes: stage-1 crop steps, "
               "rotation-vote propagation and stage-2 full-scan steps",
        "config": {
            "simworld": {"scan_interval_s": 20.0},
            "audio": {"clips_per_class": 40, "recordings_per_class": 2,
                      "epochs": 1, "trials": 1},
            "segmentation": {"stage1_steps": 6, "stage2_steps": 2,
                             "crops_per_scan": 40, "n_rotations": 2},
            "eval": {"eval_scans_per_world": 6, **NO_QUALITY_GATES},
        },
        "setup": ("simulate", "train_audio", "eval_audio", "fuse", "paint"),
        "timed": ("train_seg1", "propagate", "train_seg2", "segment",
                  "eval_seg"),
        "tail": (),
        "segment_model": "seg_stage2",
    },
    "audio": {
        "why": "audio features and the small-channel audio CNN over all "
               "three representations; no U-Net in the timed part",
        "config": {
            "simworld": {"scan_interval_s": 20.0},
            "audio": {"clips_per_class": 40, "recordings_per_class": 2,
                      "epochs": 2, "trials": 1},
            "segmentation": {"stage1_steps": 3, "stage2_steps": 2,
                             "crops_per_scan": 10, "n_rotations": 2},
            "eval": {"eval_scans_per_world": 6, **NO_QUALITY_GATES},
        },
        "setup": ("simulate",),
        "timed": ("train_audio", "eval_audio"),
        "tail": ("fuse", "paint", "train_seg1", "propagate", "train_seg2",
                 "segment", "eval_seg"),
        "segment_model": "seg_stage2",
    },
    "infer": {
        "why": "forward-only float32 U-Net over many held-out scans, with "
               ".rds reads, polar resampling and mask writes",
        "config": {
            "simworld": {"scan_interval_s": 20.0},
            "audio": {"clips_per_class": 30, "recordings_per_class": 2,
                      "epochs": 1, "trials": 1},
            "segmentation": {"stage1_steps": 3, "stage2_steps": 2,
                             "crops_per_scan": 10, "n_rotations": 2},
            "eval": {"eval_scans_per_world": 16, **NO_QUALITY_GATES},
        },
        "setup": ("simulate", "train_audio", "eval_audio", "fuse", "paint",
                  "train_seg1"),
        "timed": ("segment", "eval_seg"),
        "tail": ("propagate", "train_seg2"),
        "segment_model": "seg_stage1",
    },
}

# The determinism gate's reduced-scale config (tests/test_acceptance.py).
SMOKE_CONFIG = {
    "simworld": {"grid_size": 96, "scatterer_density": 300.0},
    "audio": {"clips_per_class": 40, "recordings_per_class": 2,
              "epochs": 1, "trials": 1},
    "canvas": {"image_size": 96},
    "segmentation": {"stage1_steps": 20, "stage2_steps": 4,
                     "crops_per_scan": 10, "n_rotations": 2, "crop": 32},
    "eval": {"eval_scans_per_world": 2, **NO_QUALITY_GATES},
}


def user_config(name: str, seed: int, size: str = "bench") -> dict:
    """The pipeline config a workload hands to `pipeline.resolve_config`."""
    if size == "smoke":
        cfg = copy.deepcopy(SMOKE_CONFIG)
    elif size == "bench":
        cfg = copy.deepcopy(WORKLOADS[name]["config"])
    else:
        raise ValueError(f"unknown size {size!r}")
    cfg["seed"] = seed
    return cfg


def check_split(name: str):
    """Every stage exactly once across set-up, timed part and tail."""
    w = WORKLOADS[name]
    order = w["setup"] + w["timed"] + w["tail"]
    if sorted(order) != sorted(STAGES):
        raise ValueError(f"workload {name}: stages {order} != {STAGES}")
