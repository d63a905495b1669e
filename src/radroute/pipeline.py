"""File-based pipeline stages and the end-to-end reproduction run.

Every stage reads and writes files under a single output directory so the
pipeline is inspectable and resumable. `STAGES` declares each stage's run
function, inputs and report for the CLI; `reproduce` runs the `REPRODUCE`
steps through the same input checks and writes a manifest of output
hashes. All randomness derives from the global seed, so two runs with the
same (config, seed) are byte-identical.
"""

import copy
import hashlib
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import audio, canvas, dsp, evaluate, formats, fusion, segmentation
from . import simworld
from .canvas import Label
from .errors import ConfigurationError, InputError
from .simworld import SimConfig, TerrainClass

DEFAULT_CONFIG = {
    "seed": 0,
    "output_dir": "out",
    "simworld": {
        "grid_size": 256,
        "cell_size": 0.4,
        "path_width": 3.0,
        "gps_sigma": 2.0,
        "gps_rate": 1.0,
        "vo_trans_sigma": 0.01,
        "vo_yaw_sigma": 0.002,
        "vo_yaw_drift_deg_s": 0.5,
        "speckle_on": True,
        "scatterer_density": 2000.0,
        "scan_interval_s": 5.0,
        "speed": 1.0,
        "vo_dt": 0.1,
        "sample_rate": 44100.0,
    },
    "dsp": {
        "frame_len": 441,
        "hop": 441,
        "fft_size": 441,
    },
    "audio": {
        "clips_per_class": 600,
        "recordings_per_class": 5,
        "train_fraction": 0.8,
        "epochs": 2,
        "batch_size": 16,
        "learning_rate": 0.02,
        "representation": "gammatone",
        "trials": 3,
    },
    "fusion": {},
    "canvas": {
        "image_size": 256,
        "metres_per_pixel": 0.4,
        "footprint_radius_m": 0.33,
        "use_negatives": True,
    },
    "segmentation": {
        "depth": 3,
        "base_channels": 8,
        "stage1_steps": 350,
        "stage1_lr": 0.1,
        "stage2_steps": 50,
        "stage2_lr": 0.05,
        "batch_size": 8,
        "crop": 64,
        "crops_per_scan": 120,
        "n_rotations": 5,
        "vote_threshold": 0.6,
        "probability_threshold": 0.5,
        "tile_size": 64,
    },
    "eval": {
        "min_pixel_accuracy": 0.98,
        "min_iou": 0.40,
        "eval_scans_per_world": 5,
    },
}

# (key, test of its value given the whole config, what the value must
# be): a value of the right type that the stages cannot use, which would
# otherwise fail, or quietly train nothing, only after simulate
VALUE_CHECKS = (
    *((name, lambda v, cfg: 0 < v < float("inf"), "> 0") for name in (
        "simworld.scan_interval_s", "simworld.speed", "simworld.vo_dt",
        "simworld.sample_rate", "simworld.gps_rate")),
    *((name, lambda v, cfg: v >= 1, ">= 1") for name in (
        "audio.clips_per_class", "audio.recordings_per_class",
        "audio.trials", "audio.epochs", "audio.batch_size",
        "segmentation.depth", "segmentation.stage1_steps",
        "segmentation.stage2_steps", "segmentation.batch_size",
        "segmentation.n_rotations")),
    *((name, lambda v, cfg: 0 < v < 1, "in (0, 1)") for name in (
        "audio.train_fraction", "segmentation.probability_threshold")),
    ("audio.train_fraction",
     lambda v, cfg: 0 < round(v * audio_window_count(cfg))
     < audio_window_count(cfg),
     "a split of the 3 * recordings_per_class * ceil(clips_per_class / "
     "recordings_per_class) audio windows with no part empty"),
    ("segmentation.vote_threshold", lambda v, cfg: 0 < v <= 1, "in (0, 1]"),
    ("audio.representation", lambda v, cfg: v in audio.REPRESENTATIONS,
     f"one of {audio.REPRESENTATIONS}"),
    *((name, lambda v, cfg: v % 2 ** cfg["segmentation"]["depth"] == 0,
       "divisible by 2**segmentation.depth") for name in (
        "canvas.image_size", "segmentation.crop", "segmentation.tile_size")),
    ("segmentation.crop", lambda v, cfg: v <= cfg["canvas"]["image_size"],
     "at most canvas.image_size"),
)


def audio_window_count(cfg: dict) -> int:
    """The windows of the per-terrain recordings simulate writes, which
    train-audio splits by audio.train_fraction."""
    a = cfg["audio"]
    per_recording = math.ceil(a["clips_per_class"] / a["recordings_per_class"])
    return len(TerrainClass) * a["recordings_per_class"] * per_recording


def _check_type(name: str, default, value):
    """A value must have its default's type; an int may stand for a float,
    and a bool never stands for a number."""
    if isinstance(default, bool) or isinstance(value, bool):
        ok = isinstance(default, bool) and isinstance(value, bool)
    elif isinstance(default, float):
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ConfigurationError(
            f"config key {name} must be {type(default).__name__}, got "
            f"{type(value).__name__} {value!r}")


def resolve_config(user: dict | None) -> dict:
    """Deep-merge user settings over the defaults; unknown keys, values
    of the wrong type and values that fail VALUE_CHECKS are rejected."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if user is None:
        return cfg
    for key, value in user.items():
        if key not in cfg:
            raise ConfigurationError(f"unknown config key {key!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"section {key!r} must be an object")
            for sub, sub_value in value.items():
                if sub not in cfg[key]:
                    raise ConfigurationError(
                        f"unknown config key {key}.{sub}")
                _check_type(f"{key}.{sub}", cfg[key][sub], sub_value)
                cfg[key][sub] = sub_value
        else:
            _check_type(key, cfg[key], value)
            cfg[key] = value
    for name, ok, requirement in VALUE_CHECKS:
        section, key = name.split(".")
        value = cfg[section][key]
        if not ok(value, cfg):
            raise ConfigurationError(f"config key {name} must be "
                                     f"{requirement}, got {value!r}")
    try:
        stft_config(cfg)
    except ValueError as exc:
        raise ConfigurationError(f"config section dsp: {exc}") from None
    return cfg


def sim_config(cfg: dict, profile: str = "short") -> SimConfig:
    sw = cfg["simworld"]
    return SimConfig(
        seed=cfg["seed"],
        radar_profile=profile,
        grid_size=sw["grid_size"],
        cell_size=sw["cell_size"],
        path_width=sw["path_width"],
        gps_sigma=sw["gps_sigma"],
        gps_rate=sw["gps_rate"],
        vo_trans_sigma=sw["vo_trans_sigma"],
        vo_yaw_sigma=sw["vo_yaw_sigma"],
        vo_yaw_drift=np.deg2rad(sw["vo_yaw_drift_deg_s"]),
        speed=sw["speed"],
        vo_dt=sw["vo_dt"],
        sample_rate=sw["sample_rate"],
        speckle_on=sw["speckle_on"],
        scatterer_density=sw["scatterer_density"],
    )


def stft_config(cfg: dict) -> dsp.StftConfig:
    d = cfg["dsp"]
    return dsp.StftConfig(frame_len=d["frame_len"], hop=d["hop"],
                          fft_size=d["fft_size"])


def derive_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------- simulate

WORLD_TAGS = {"train": 11, "eval_short": 12, "eval_long": 13}


def write_resolved_config(cfg: dict, out: str):
    """Record the fully-resolved settings next to the outputs.

    The output directory itself is omitted so identical runs into
    different directories produce byte-identical files.
    """
    recorded = {k: v for k, v in cfg.items() if k != "output_dir"}
    formats.write_json(os.path.join(out, "config.json"), recorded)


def run_simulate(cfg: dict, out: str):
    """The resolved config, worlds, traverse, sensor streams, and radar
    scans with ground truth; nothing is written if no training scan fits."""
    seed = cfg["seed"]
    worlds = {}
    for name, tag in WORLD_TAGS.items():
        profile = "long" if name == "eval_long" else "short"
        sc = sim_config(cfg, profile)
        world_seed = derive_seed(seed, tag)
        worlds[name] = (simworld.generate_world(world_seed, sc), sc,
                        world_seed)
    world, sc, world_seed = worlds["train"]
    truth = simworld.plan_traverse(world, derive_seed(seed, 21), sc)
    interval = cfg["simworld"]["scan_interval_s"]
    scan_times = np.arange(truth.timestamps[0] + interval,
                           truth.timestamps[-1], interval)
    if len(scan_times) == 0:
        raise ConfigurationError(f"config key simworld.scan_interval_s "
                                 f"{interval!r} leaves no training scan")

    _ensure_dir(out)
    write_resolved_config(cfg, out)
    for name, (terrain_map, _, _) in worlds.items():
        simworld.save_world(terrain_map,
                            os.path.join(out, f"world_{name}.json"),
                            os.path.join(out, f"world_{name}.pgm"))

    # training traverse + sensors
    simworld.save_poses_csv(os.path.join(out, "poses_train.csv"), truth)
    vo = simworld.synth_vo(truth, sc, derive_seed(seed, 22))
    gps = simworld.synth_gps(truth, sc, derive_seed(seed, 23))
    formats.write_csv(os.path.join(out, "vo.csv"), "timestamp,dx,dy,dyaw", vo)
    formats.write_csv(os.path.join(out, "gps.csv"), "timestamp,x,y,sigma",
                      gps)

    # radar scans along the traverse
    scan_dir = _ensure_dir(os.path.join(out, "scans_train"))
    scatterers = simworld.scene_scatterers(world, sc, world_seed)
    for i, t in enumerate(scan_times):
        k = int(np.argmin(np.abs(truth.timestamps - t)))
        scan = simworld.synth_radar(world, truth.poses[k], sc,
                                    derive_seed(seed, 30, i),
                                    scatterers=scatterers,
                                    timestamp=float(truth.timestamps[k]))
        canvas.save_polar_scan(
            os.path.join(scan_dir, f"scan_{i:03d}.rds"), scan)

    # traverse audio stream: one synthetic 0.5 s window per audio period,
    # streamed from synthesis to the WAV in blocks
    sr = sc.sample_rate
    n_windows = int(truth.timestamps[-1] / audio.CLIP_LEN_S)
    terrains = [int(truth.terrain_at_pose[np.argmin(np.abs(
        truth.timestamps - (i + 0.5) * audio.CLIP_LEN_S))])
        for i in range(n_windows)]
    seeds = [derive_seed(seed, 40, i) for i in range(n_windows)]
    formats.write_wav(os.path.join(out, "traverse_audio.wav"),
                      simworld.synth_audio_blocks(terrains, audio.CLIP_LEN_S,
                                                  sr, seeds), sr)

    # per-terrain recordings for classifier training
    audio_dir = _ensure_dir(os.path.join(out, "audio"))
    clips_per_class = cfg["audio"]["clips_per_class"]
    recordings = cfg["audio"]["recordings_per_class"]
    windows_per_rec = int(np.ceil(clips_per_class / recordings))
    for terrain in TerrainClass:
        for r in range(recordings):
            clip = simworld.synth_audio(
                terrain, windows_per_rec * audio.CLIP_LEN_S, sr,
                derive_seed(seed, 50, int(terrain), r))
            formats.write_wav(
                os.path.join(audio_dir,
                             f"{terrain.name.lower()}_{r:02d}.wav"),
                clip.samples, sr)

    # held-out evaluation scans at ground-truth poses
    for name in ("eval_short", "eval_long"):
        world, sc, world_seed = worlds[name]
        truth_e = simworld.plan_traverse(world, derive_seed(seed, 24), sc)
        scatt = simworld.scene_scatterers(world, sc, world_seed)
        n_eval = cfg["eval"]["eval_scans_per_world"]
        idx = np.linspace(0, len(truth_e.poses) - 1, n_eval).astype(int)
        sdir = _ensure_dir(os.path.join(out, f"scans_{name}"))
        for i, k in enumerate(idx):
            scan = simworld.synth_radar(world, truth_e.poses[k], sc,
                                        derive_seed(seed, 31, i),
                                        scatterers=scatt,
                                        timestamp=float(truth_e.timestamps[k]))
            canvas.save_polar_scan(os.path.join(sdir, f"scan_{i:03d}.rds"),
                                   scan)


# ------------------------------------------------------------------- audio


def _class_recordings(out: str) -> dict:
    """{terrain: its recordings under audio/}, each read as an AudioClip
    only when it is taken."""
    audio_dir = os.path.join(out, "audio")
    names = sorted(os.listdir(audio_dir))

    def read(name):
        return dsp.AudioClip(*formats.read_wav(os.path.join(audio_dir, name)))

    return {terrain: map(read, [name for name in names
                                if name.startswith(terrain.name.lower())
                                and name.endswith(".wav")])
            for terrain in TerrainClass}


def _split_dataset(dataset: audio.AudioDataset, train_fraction: float,
                   seed: int):
    """(train, test) datasets from a seeded permutation."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5011]))
    order = rng.permutation(len(dataset))
    n_train = int(round(train_fraction * len(dataset)))
    return tuple(audio.AudioDataset(images=dataset.images[idx],
                                    labels=dataset.labels[idx],
                                    representation=dataset.representation)
                 for idx in (order[:n_train], order[n_train:]))


def run_train_audio(cfg: dict, out: str):
    """Train per-representation classifiers, emit the comparison table,
    and save the final (gammatone by default) model."""
    acfg = cfg["audio"]
    seed = cfg["seed"]
    datasets = audio.build_datasets(_class_recordings(out),
                                    seed=derive_seed(seed, 60),
                                    cfg=stft_config(cfg))
    accuracies = {rep: [] for rep in audio.REPRESENTATIONS}
    final_model = None
    final_shape = None
    for rep in audio.REPRESENTATIONS:
        dataset = datasets.pop(rep)
        for trial in range(acfg["trials"]):
            train, test = _split_dataset(dataset, acfg["train_fraction"],
                                         derive_seed(seed, 61, trial))
            tcfg = audio.TrainConfig(learning_rate=acfg["learning_rate"],
                                     batch_size=acfg["batch_size"],
                                     epochs=acfg["epochs"],
                                     seed=derive_seed(seed, 62, trial))
            model, _ = audio.train_classifier(train, tcfg)
            acc = audio.evaluate(model, test)["accuracy"]
            accuracies[rep].append(acc)
            if rep == acfg["representation"] and trial == 0:
                final_model = model
                final_shape = train.images.shape[1:]
    rows = [(f"Trial {i + 1}",
             [100.0 * accuracies[rep][i] for rep in audio.REPRESENTATIONS])
            for i in range(acfg["trials"])]
    columns = ["Spectrogram", "Mel-frequency Spectrogram", "Gammatonegram"]
    with open(os.path.join(out, "audio_table.txt"), "w") as f:
        f.write(evaluate.compare_table(columns, rows))
    with open(os.path.join(out, "audio_table.csv"), "w") as f:
        f.write(evaluate.compare_csv(columns, rows))
    report = {rep: {"accuracies": accuracies[rep],
                    "mean": float(np.mean(accuracies[rep]))}
              for rep in audio.REPRESENTATIONS}
    formats.write_json(os.path.join(out, "audio_report.json"), report)
    audio.save_model(os.path.join(out, "audio_model.kowt"),
                     os.path.join(out, "audio_model.json"),
                     final_model, acfg["representation"], final_shape,
                     stft_config(cfg))
    return report


def _load_audio_model(cfg: dict, out: str):
    """The saved classifier and its representation; ConfigurationError if
    it was trained on a framing other than the config's dsp section."""
    with open(os.path.join(out, "audio_model.json")) as f:
        header = json.load(f)
    framing = stft_config(cfg)
    expected = {"frame_len": framing.frame_len, "hop": framing.hop,
                "fft_size": framing.fft_size}
    if header.get("dsp") != expected:
        raise ConfigurationError(
            f"config section dsp {expected} does not match the framing "
            f"{header.get('dsp')} the audio model was trained with")
    model = audio.build_model(tuple(header["input_shape"]))
    audio.load_model_weights(os.path.join(out, "audio_model.kowt"), model)
    return model, header["representation"]


def run_eval_audio(cfg: dict, out: str):
    """Classify the traverse stream and score it against ground truth."""
    model, rep = _load_audio_model(cfg, out)
    with formats.WavReader(os.path.join(out, "traverse_audio.wav")) as wav:
        predictions = audio.classify_stream(model, wav, rep,
                                            cfg=stft_config(cfg))
    audio.predictions_csv(os.path.join(out, "predictions.csv"), predictions)

    truth = simworld.load_poses_csv(os.path.join(out, "poses_train.csv"))
    correct = 0
    for p in predictions:
        k = int(np.argmin(np.abs(truth.timestamps - p.timestamp)))
        correct += int(p.terrain == int(truth.terrain_at_pose[k]))
    accuracy = correct / len(predictions)
    report = {"stream_accuracy": accuracy, "n_predictions": len(predictions)}
    formats.write_json(os.path.join(out, "stream_report.json"), report)
    return report


# ------------------------------------------------------------------ fusion


def run_fuse(cfg: dict, out: str):
    vo = formats.read_csv(os.path.join(out, "vo.csv"))
    gps = formats.read_csv(os.path.join(out, "gps.csv"))
    truth = simworld.load_poses_csv(os.path.join(out, "poses_train.csv"))
    sw = cfg["simworld"]
    q = fusion.default_process_noise(sw["vo_trans_sigma"],
                                     sw["vo_yaw_sigma"])
    fused = fusion.fuse(vo, gps, truth.poses[0], q=q,
                        yaw_drift_rate=np.deg2rad(sw["vo_yaw_drift_deg_s"]))
    formats.write_csv(os.path.join(out, "fused.csv"), "timestamp,x,y,yaw",
                      fused)
    return fused


# ------------------------------------------------------------------- paint


def _scan_paths(out: str, subdir: str) -> list:
    sdir = os.path.join(out, subdir)
    return [os.path.join(sdir, f) for f in sorted(os.listdir(sdir))
            if f.endswith(".rds")]


def _read_scans(cfg: dict, out: str, subdir: str) -> list:
    """Every scan of subdir, read and checked, as a CartesianScan whose
    image is the network input (segmentation.prepare_scan_image). Each
    scan's polar power is dropped before the next is read."""
    size, mpp = cfg["canvas"]["image_size"], cfg["canvas"]["metres_per_pixel"]
    scans = []
    for path in _scan_paths(out, subdir):
        cart = canvas.polar_to_cartesian(canvas.load_polar_scan(path), size,
                                         mpp)
        cart.image = segmentation.prepare_scan_image(cart.image)
        scans.append(cart)
    return scans


def run_paint(cfg: dict, out: str):
    """Label the fused trajectory and paint per-scan supervision masks."""
    ccfg = cfg["canvas"]
    fused = formats.read_csv(os.path.join(out, "fused.csv"))
    predictions = _read_predictions(os.path.join(out, "predictions.csv"))
    scans = _read_scans(cfg, out, "scans_train")
    lt = fusion.label_trajectory(fused, predictions)
    fusion.save_labeled_trajectory_csv(
        os.path.join(out, "labeled_trajectory.csv"), lt)

    mask_dir = _ensure_dir(os.path.join(out, "masks_initial"))
    fused_t = fused[:, 0]
    for i, scan in enumerate(scans):
        k = int(np.argmin(np.abs(fused_t - scan.timestamp)))
        scan.pose = fused[k, 1:4]  # painting uses the fused estimate
        mask = canvas.paint_labels(scan, lt, ccfg["footprint_radius_m"],
                                   use_negatives=ccfg["use_negatives"])
        formats.write_pgm(os.path.join(mask_dir, f"mask_{i:03d}.pgm"),
                          canvas.mask_to_pgm_values(mask))
    return lt


def _read_predictions(path):
    preds = []
    with open(path) as f:
        next(f)
        for line in f:
            t, name, pg, pv, pa = line.strip().split(",")
            probs = np.array([float(pg), float(pv), float(pa)])
            preds.append(audio.TerrainPrediction(
                terrain=int(simworld.TERRAIN_BY_NAME[name]),
                probabilities=probs, timestamp=float(t)))
    return preds


# ------------------------------------------------------------ segmentation


def _load_masks(out: str, subdir: str):
    mdir = os.path.join(out, subdir)
    return [canvas.mask_from_pgm_values(
        formats.read_pgm(os.path.join(mdir, f)))
        for f in sorted(os.listdir(mdir)) if f.endswith(".pgm")]


def _scan_masks(out: str, subdir: str, n_scans: int):
    """The masks of subdir, which must hold exactly one per training scan."""
    masks = _load_masks(out, subdir)
    if len(masks) != n_scans:
        raise InputError(f"{subdir} holds {len(masks)} masks for "
                         f"{n_scans} training scans")
    return masks


def run_train_seg(cfg: dict, out: str, stage: int):
    scfg = cfg["segmentation"]
    seed = cfg["seed"]
    images = [scan.image for scan in _read_scans(cfg, out, "scans_train")]
    if stage == 1:
        masks = _scan_masks(out, "masks_initial", len(images))
        model = segmentation.UNet(depth=scfg["depth"],
                                  base_channels=scfg["base_channels"],
                                  seed=derive_seed(seed, 70))
        tcfg = segmentation.SegTrainConfig(
            learning_rate=scfg["stage1_lr"], batch_size=scfg["batch_size"],
            steps=scfg["stage1_steps"], seed=derive_seed(seed, 71))
        model, log = segmentation.stage1_train(
            images, masks, model=model, cfg=tcfg, crop=scfg["crop"],
            crops_per_scan=scfg["crops_per_scan"])
    elif stage == 2:
        masks = _scan_masks(out, "masks_propagated", len(images))
        model = segmentation.load_unet(os.path.join(out, "seg_stage1.kowt"),
                                       os.path.join(out, "seg_stage1.json"))
        tcfg = segmentation.SegTrainConfig(
            learning_rate=scfg["stage2_lr"], batch_size=1,
            steps=scfg["stage2_steps"], seed=derive_seed(seed, 72))
        model, log = segmentation.stage2_finetune(model, images, masks, tcfg)
    else:
        raise ConfigurationError("stage must be 1 or 2")
    segmentation.save_unet(os.path.join(out, f"seg_stage{stage}.kowt"),
                           os.path.join(out, f"seg_stage{stage}.json"), model)
    with open(os.path.join(out, f"seg_stage{stage}_log.json"), "w") as f:
        json.dump({"losses": log.losses,
                   "skipped_batches": log.skipped_batches,
                   "augment_fallbacks": log.augment_fallbacks}, f)
        f.write("\n")
    return model


def run_propagate(cfg: dict, out: str):
    """Densify the initial masks with the stage-1 model and report how the
    untraversed side path was recovered."""
    scfg = cfg["segmentation"]
    ccfg = cfg["canvas"]
    model = segmentation.load_unet(os.path.join(out, "seg_stage1.kowt"),
                                   os.path.join(out, "seg_stage1.json"))
    scans = _read_scans(cfg, out, "scans_train")
    masks = _scan_masks(out, "masks_initial", len(scans))
    pcfg = segmentation.PropagationConfig(
        tile_size=scfg["tile_size"], n_rotations=scfg["n_rotations"],
        vote_threshold=scfg["vote_threshold"],
        probability_threshold=scfg["probability_threshold"],
        seed=derive_seed(cfg["seed"], 80))
    world = simworld.load_world(os.path.join(out, "world_train.json"))
    prop_dir = _ensure_dir(os.path.join(out, "masks_propagated"))

    side_total = side_hit = grass_total = grass_fp = 0
    for i, (scan, mask) in enumerate(zip(scans, masks)):
        in_range = ~canvas.range_ignore_mask(
            ccfg["image_size"], ccfg["metres_per_pixel"], scan.max_range)
        prop = segmentation.propagate_labels(model, scan.image, mask, pcfg,
                                             valid_region=in_range)
        formats.write_pgm(os.path.join(prop_dir, f"mask_{i:03d}.pgm"),
                          canvas.mask_to_pgm_values(prop))
        # generalisation bookkeeping, ground truth at the true scan pose
        gt = simworld.ground_truth_mask(world, scan.pose, ccfg["image_size"],
                                        ccfg["metres_per_pixel"])
        region = simworld.untraversed_region_mask(
            world, scan.pose, ccfg["image_size"], ccfg["metres_per_pixel"])
        newly = (mask == int(Label.UNLABELED)) & in_range
        side_pixels = region & (gt == 1) & newly
        side_total += int(side_pixels.sum())
        side_hit += int((prop[side_pixels] == int(Label.PATH)).sum())
        grass_pixels = (gt == 0) & newly
        grass_total += int(grass_pixels.sum())
        grass_fp += int((prop[grass_pixels] == int(Label.PATH)).sum())
    report = {
        "side_path_pixels": side_total,
        "side_path_recall": side_hit / side_total if side_total else 0.0,
        "grass_pixels": grass_total,
        "grass_false_positive_rate":
            grass_fp / grass_total if grass_total else 0.0,
    }
    formats.write_json(os.path.join(out, "propagation_report.json"), report)
    return report


def run_segment(cfg: dict, out: str, scans_subdir: str = "scans_eval_short",
                model_name: str = "seg_stage2"):
    model = segmentation.load_unet(os.path.join(out, f"{model_name}.kowt"),
                                   os.path.join(out, f"{model_name}.json"))
    scans = _read_scans(cfg, out, scans_subdir)
    pred_dir = _ensure_dir(os.path.join(out, f"pred_{scans_subdir}"))
    for i, scan in enumerate(scans):
        pred = segmentation.segment(model, scan.image)
        formats.write_pgm(os.path.join(pred_dir, f"pred_{i:03d}.pgm"),
                          (pred * 255).astype(np.uint8))


def run_eval_seg(cfg: dict, out: str) -> dict:
    """Score predictions on both held-out worlds; exit gate data returned.
    Only the scans' headers are read: their poses and max ranges."""
    size, mpp = cfg["canvas"]["image_size"], cfg["canvas"]["metres_per_pixel"]
    results = {}
    for name in ("eval_short", "eval_long"):
        world = simworld.load_world(os.path.join(out, f"world_{name}.json"))
        pred_dir = os.path.join(out, f"pred_scans_{name}")
        preds, gts, ignores = [], [], []
        for i, path in enumerate(_scan_paths(out, f"scans_{name}")):
            scan = canvas.load_scan_header(path)
            preds.append(formats.read_pgm(
                os.path.join(pred_dir, f"pred_{i:03d}.pgm")) > 127)
            gts.append(simworld.ground_truth_mask(world, scan.pose, size, mpp))
            ignores.append(canvas.range_ignore_mask(size, mpp, scan.max_range))
        s = evaluate.scores(np.stack(preds), np.stack(gts), np.stack(ignores))
        results[name] = {"pixel_accuracy": s.pixel_accuracy, "iou": s.iou}
    formats.write_json(os.path.join(out, "seg_scores.json"), results)
    return results


def run_render(cfg: dict, out: str):
    """Fig-style triptych: scan + initial labels, propagated labels, and
    final segmentation, as red/green tinted PPM overlays."""
    scans = _read_scans(cfg, out, "scans_train")
    initial = _scan_masks(out, "masks_initial", len(scans))
    propagated = _scan_masks(out, "masks_propagated", len(scans))
    model = segmentation.load_unet(os.path.join(out, "seg_stage2.kowt"),
                                   os.path.join(out, "seg_stage2.json"))
    render_dir = _ensure_dir(os.path.join(out, "render"))
    mid = len(scans) // 2
    image = scans[mid].image
    seg = segmentation.segment(model, image)
    seg_mask = np.where(seg > 0, int(Label.PATH),
                        int(Label.NOT_PATH)).astype(np.uint8)
    for name, mask in (("initial", initial[mid]),
                       ("propagated", propagated[mid]),
                       ("segmentation", seg_mask)):
        ppm = render_overlay(image, mask)
        formats.write_ppm(os.path.join(render_dir, f"{name}.ppm"), ppm)


def render_overlay(scan_image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Grayscale scan with path pixels tinted red and not-path green."""
    lo, hi = scan_image.min(), scan_image.max()
    gray = ((scan_image - lo) / max(hi - lo, 1e-12) * 255.0).astype(np.uint8)
    rgb = np.stack([gray, gray, gray], axis=-1).astype(np.int64)
    path = mask == int(Label.PATH)
    not_path = mask == int(Label.NOT_PATH)
    rgb[path, 0] = np.minimum(rgb[path, 0] + 120, 255)
    rgb[not_path, 1] = np.minimum(rgb[not_path, 1] + 120, 255)
    return rgb.astype(np.uint8)


# --------------------------------------------------------------- reproduce


def write_manifest(out: str):
    """Hashes of every output file, keyed by path relative to the run dir."""
    entries = {}
    for root, _, files in os.walk(out):
        for fname in sorted(files):
            if fname == "manifest.json":
                continue
            path = os.path.join(root, fname)
            rel = os.path.relpath(path, out)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            entries[rel.replace(os.sep, "/")] = digest
    formats.write_json(os.path.join(out, "manifest.json"), entries)
    return entries


def run_reproduce(cfg: dict, out: str):
    """The full pipeline, end to end, into one output directory."""
    results = {name: run_stage(name, cfg, out, **params)
               for name, params in REPRODUCE}
    write_manifest(out)
    return results["eval-seg"]


# ------------------------------------------------------------------ stages


def seg_score_lines(results: dict) -> str:
    return "\n".join(f"{name}: pixel_accuracy={r['pixel_accuracy']:.4f} "
                     f"iou={r['iou']:.4f}"
                     for name, r in sorted(results.items()))


def seg_gates_pass(results: dict, cfg: dict) -> bool:
    """Every held-out score meets eval.min_pixel_accuracy and eval.min_iou."""
    e = cfg["eval"]
    return all(r["pixel_accuracy"] >= e["min_pixel_accuracy"]
               and r["iou"] >= e["min_iou"] for r in results.values())


@dataclass(frozen=True)
class Stage:
    """A pipeline stage as the CLI and `reproduce` see it.

    run(cfg, out, **params) does the work, inputs(**params) names what it
    reads under out, and summary(result, **params) is its stdout report.
    options are the CLI flags that set params, as (flag, argparse
    keywords); gate(result, cfg) is False when the result misses a gate.
    """
    name: str
    run: Callable
    inputs: Callable
    summary: Callable | None = None
    options: tuple = ()
    gate: Callable | None = None


STAGES = {s.name: s for s in (
    Stage("simulate", run_simulate, lambda: ()),
    Stage("train-audio", run_train_audio, lambda: ("audio",),
          lambda report: "\n".join(
              f"{rep}: mean held-out accuracy {r['mean']:.4f}"
              for rep, r in sorted(report.items()))),
    Stage("eval-audio", run_eval_audio,
          lambda: ("audio_model.kowt", "audio_model.json",
                   "traverse_audio.wav", "poses_train.csv"),
          lambda report: f"stream accuracy {report['stream_accuracy']:.4f} "
                         f"over {report['n_predictions']} predictions"),
    Stage("fuse", run_fuse, lambda: ("vo.csv", "gps.csv", "poses_train.csv"),
          lambda fused: f"fused {len(fused)} poses"),
    Stage("paint", run_paint,
          lambda: ("fused.csv", "predictions.csv", "scans_train"),
          lambda lt: f"labeled trajectory: {len(lt.poses)} entries"),
    Stage("train-seg", run_train_seg,
          lambda stage: ("scans_train",) + (
              ("masks_initial",) if stage == 1 else
              ("masks_propagated", "seg_stage1.kowt", "seg_stage1.json")),
          lambda model, stage: f"stage {stage} model saved",
          options=(("--stage", {"type": int, "choices": (1, 2),
                                "required": True}),)),
    Stage("propagate", run_propagate,
          lambda: ("seg_stage1.kowt", "seg_stage1.json", "scans_train",
                   "masks_initial", "world_train.json", "world_train.pgm"),
          lambda report: f"side path recall "
                         f"{report['side_path_recall']:.3f}, grass false "
                         f"positive rate "
                         f"{report['grass_false_positive_rate']:.3f}"),
    Stage("segment",
          lambda cfg, out, scans, model: run_segment(cfg, out, scans, model),
          lambda scans, model: (f"{model}.kowt", f"{model}.json", scans),
          lambda _, scans, model: f"segmented {scans}",
          options=(("--scans", {"default": "scans_eval_short",
                                "help": "scan subdirectory under the "
                                        "output dir"}),
                   ("--model", {"default": "seg_stage2"}))),
    Stage("eval-seg", run_eval_seg,
          lambda: ("world_eval_short.json", "world_eval_short.pgm",
                   "world_eval_long.json", "world_eval_long.pgm",
                   "scans_eval_short", "scans_eval_long",
                   "pred_scans_eval_short", "pred_scans_eval_long"),
          seg_score_lines, gate=seg_gates_pass),
    Stage("render", run_render,
          lambda: ("scans_train", "masks_initial", "masks_propagated",
                   "seg_stage2.kowt", "seg_stage2.json"),
          lambda _: "renders written"),
    Stage("reproduce", run_reproduce, lambda: (), seg_score_lines,
          gate=seg_gates_pass),
)}

# The paper's chain of stages, in order, each with its parameters.
REPRODUCE = (
    ("simulate", {}), ("train-audio", {}), ("eval-audio", {}), ("fuse", {}),
    ("paint", {}), ("train-seg", {"stage": 1}), ("propagate", {}),
    ("train-seg", {"stage": 2}),
    ("segment", {"scans": "scans_eval_short", "model": "seg_stage2"}),
    ("segment", {"scans": "scans_eval_long", "model": "seg_stage2"}),
    ("eval-seg", {}), ("render", {}),
)


def run_stage(name: str, cfg: dict, out: str, **params):
    """Check that every input the stage declares exists under out (else
    FileNotFoundError), then run it and return its result."""
    stage = STAGES[name]
    for rel in stage.inputs(**params):
        path = os.path.join(out, rel)
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing input for {name}: {path}")
    return stage.run(cfg, out, **params)
