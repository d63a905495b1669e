"""End-to-end release gates.

Each test checks one gate at its stated tolerance and prints a single
pass/fail line. The full-pipeline gates share one reproduction run
(session fixture) so the suite stays within its time budget.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from radroute import (canvas, dsp, evaluate, formats, fusion, numeric,
                      pipeline, segmentation, simworld)
from radroute.dsp import AudioClip, GammatoneFilterbank, StftConfig
from radroute.simworld import TerrainClass

from oracles import (UNetPath, Upsample2x, gammatonegram_direct,
                     gammatonegram_fast, gradcheck,
                     masked_binary_cross_entropy, mel_spectrogram, stft)


def report(capsys, num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[gate {num:2d}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared full-scale pipeline run (gates 4, 7, 8, 10, 11)

@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("full") / "run")
    cfg = pipeline.resolve_config({"seed": 7})
    t0 = time.monotonic()
    results = pipeline.run_reproduce(cfg, out)
    wall_s = time.monotonic() - t0
    return {"out": out, "cfg": cfg, "results": results, "wall_s": wall_s}


# ---------------------------------------------------------------------------
# gate 1: frequency-analysis oracle equivalence


def _direct_dft_frames(frames, n):
    k = np.arange(n // 2 + 1)
    t = np.arange(frames.shape[1])
    basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
    return frames @ basis.T


def test_gate_01_dsp_oracle_equivalence(capsys, monkeypatch):
    t0 = time.monotonic()
    rng = np.random.default_rng(100)

    # windowed transform vs direct O(N^2) discrete Fourier transform
    cfg = StftConfig(frame_len=128, hop=64, fft_size=128)
    win = dsp.hamming_window(cfg.frame_len)
    stft_max = 0.0
    for _ in range(100):
        x = rng.normal(size=1024)
        got = dsp.stft_windows(x[None], cfg)[0].T
        n_frames = dsp.frame_count(len(x), cfg.frame_len, cfg.hop)
        idx = (np.arange(cfg.frame_len)[None, :]
               + cfg.hop * np.arange(n_frames)[:, None])
        want = _direct_dft_frames(x[idx] * win, cfg.fft_size).T
        stft_max = max(stft_max, float(np.abs(got - want).max()))

    # mel filter outputs vs direct weighted summation over spectrum bins
    clip = AudioClip(rng.normal(size=22050), 44100.0)
    scfg = pipeline.stft_config(pipeline.DEFAULT_CONFIG)
    power = np.abs(stft(clip, scfg)) ** 2
    weights, _ = dsp.mel_filterbank(64, power.shape[0], 44100.0,
                                    scfg.fft_size)
    img = mel_spectrogram(clip, scfg, 64)
    direct = np.array([[sum(weights[ch, k] * power[k, j]
                            for k in range(power.shape[0]))
                        for j in range(power.shape[1])]
                       for ch in range(64)])
    mel_max = float(np.abs(10.0 ** (img.values / 10.0) - direct).max())

    # fast filterbank image vs per-channel time-domain convolution
    # with rectangular frames, as the direct path sums unweighted energy
    monkeypatch.setattr(dsp, "hamming_window", np.ones)
    fb = GammatoneFilterbank.design(32, 44100.0)
    gcfg = pipeline.stft_config(pipeline.DEFAULT_CONFIG)
    worst_r = 1.0
    for _ in range(20):
        clip = AudioClip(rng.normal(size=22050) * 0.2, 44100.0)
        fast = gammatonegram_fast(clip, fb, gcfg).values
        direct = gammatonegram_direct(clip, fb, gcfg.frame_len).values
        r = float(np.corrcoef(fast.ravel(), direct.ravel())[0, 1])
        worst_r = min(worst_r, r)

    elapsed = time.monotonic() - t0
    ok = stft_max < 1e-9 and mel_max < 1e-9 and worst_r >= 0.99 and \
        elapsed < 60.0
    report(capsys, 1, "frequency-analysis oracle equivalence", ok,
           f"stft {stft_max:.2e}, mel {mel_max:.2e}, "
           f"corr >= {worst_r:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# gate 2: perceptual-scale formula spot values


def test_gate_02_formula_spot_values(capsys):
    mel_err = abs(dsp.mel_frequency(700.0) - 1127.0 * np.log(2.0))
    erb0_err = abs(dsp.erb_bandwidth(0.0) - 25.1693)
    erb1k_err = abs(dsp.erb_bandwidth(1000.0) - 135.16)
    ok = mel_err < 1e-9 and erb0_err < 1e-4 and erb1k_err <= 0.01
    report(capsys, 2, "perceptual-scale formula spot values", ok,
           f"mel(700) err {mel_err:.1e}, erb(0) err {erb0_err:.1e}, "
           f"erb(1000) err {erb1k_err:.1e}")


# ---------------------------------------------------------------------------
# gate 3: gradient checks, every layer plus a depth-2 encoder-decoder


def test_gate_03_gradient_checks(capsys):
    t0 = time.monotonic()
    worst = 0.0

    def bce(out):
        sig = 1.0 / (1.0 + np.exp(-out))
        return float((sig ** 2).sum()), 2.0 * sig * sig * (1.0 - sig)

    for seed in range(20):
        rng = np.random.default_rng(seed)
        cases = [
            (numeric.Conv2d(2, 3, 3, padding=1, rng=rng), (2, 6, 6, 2)),
            (numeric.Conv2d(1, 2, 3, padding=0, rng=rng), (1, 7, 7, 1)),
            (numeric.MaxPool2d(2), (2, 6, 6, 2)),
            (numeric.ReLU(), (2, 4, 4, 3)),
            (numeric.Sigmoid(), (2, 4, 4, 3)),
            (numeric.Dense(6, 4, rng=rng), (3, 6)),
            (numeric.Flatten(), (2, 4, 4, 3)),
            (numeric.Softmax(), (3, 5)),
            (Upsample2x(), (1, 3, 3, 2)),
        ]
        for layer, shape in cases:
            x = rng.normal(size=shape)
            err = gradcheck(layer, x, bce, eps=1e-5, rng=rng)
            worst = max(worst, err)

        model = segmentation.UNet(depth=2, base_channels=4, seed=seed)
        x = rng.normal(size=(1, 16, 16, 1))
        target = (rng.random((1, 16, 16, 1)) < 0.5).astype(float)
        labeled = rng.random((1, 16, 16, 1)) < 0.7

        def loss_fn(probs):
            return masked_binary_cross_entropy(probs, target, labeled)

        # the network's parameters; every layer's dX is checked above
        err = gradcheck(UNetPath(model), x, loss_fn, eps=1e-6, rng=rng,
                        check_input=False)
        worst = max(worst, err)

    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    report(capsys, 3, "gradient checks (all layers + depth-2 net, 20 seeds)",
           ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# gate 5: pose-fusion filter beats raw position fixes


def test_gate_05_fusion_accuracy(capsys):
    t0 = time.monotonic()
    # the default simworld section: gps 2 m @ 1 Hz, 0.5 deg/s yaw drift
    cfg = pipeline.sim_config(
        pipeline.resolve_config({"simworld": {"grid_size": 64}}), "short")
    n_keep = int(round(100.0 / cfg.vo_dt)) + 1  # 100 s of driving
    wins = 0
    for seed in range(20):
        world = simworld.generate_world(seed, cfg)
        full = simworld.plan_traverse(world, cfg)
        truth = simworld.GroundTruth(
            timestamps=full.timestamps[:n_keep],
            poses=full.poses[:n_keep],
            terrain_at_pose=full.terrain_at_pose[:n_keep])
        vo = simworld.synth_vo(truth, cfg, seed)
        gps = simworld.synth_gps(truth, cfg, seed)
        traj = fusion.fuse(
            vo, gps, truth.poses[0],
            q=fusion.default_process_noise(cfg.vo_trans_sigma,
                                           cfg.vo_yaw_sigma),
            yaw_drift_rate=np.deg2rad(cfg.vo_yaw_drift_deg_s))
        fused_rmse = np.sqrt(np.mean(
            np.sum((traj[:, 1:3] - truth.poses[1:, :2]) ** 2, axis=1)))
        gx = np.interp(truth.timestamps, gps[:, 0], gps[:, 1])
        gy = np.interp(truth.timestamps, gps[:, 0], gps[:, 2])
        gps_rmse = np.sqrt(np.mean((gx - truth.poses[:, 0]) ** 2
                                   + (gy - truth.poses[:, 1]) ** 2))
        yaw_err = np.rad2deg(abs(float(
            fusion.wrap_angle(traj[-1, 3] - truth.poses[-1, 2]))))
        wins += (fused_rmse <= 0.5 * gps_rmse) and (yaw_err <= 5.0)

    # covariance stays symmetric positive semidefinite through a long
    # predict/update interleave at the same noise levels
    rng = np.random.default_rng(0)
    state = fusion.EkfState(mean=np.zeros(3), covariance=np.eye(3) * 0.5)
    q = fusion.default_process_noise(cfg.vo_trans_sigma, cfg.vo_yaw_sigma)
    psd_ok = True
    for i in range(1, 201):
        t = i * cfg.vo_dt
        state = fusion.ekf_predict(
            state, (t, rng.normal(0, 0.1), rng.normal(0, 0.1),
                    rng.normal(0, 0.01)), q)
        if i % 10 == 0:
            state = fusion.ekf_update(
                state, (t, rng.normal(0, 2.0), rng.normal(0, 2.0),
                        cfg.gps_sigma))
        p = state.covariance
        psd_ok &= bool(np.array_equal(p, p.T)
                       and np.linalg.eigvalsh(p).min() >= -1e-9)

    elapsed = time.monotonic() - t0
    ok = wins >= 18 and psd_ok and elapsed < 60.0
    report(capsys, 5, "pose fusion accuracy (20 seeds, 100 s runs)", ok,
           f"{wins}/20 seeds pass, covariance psd {psd_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# gate 6: label-painting geometry


def _disc_oracle(size, mpp, center_xy, radius):
    xs, ys = canvas.pixel_grid_scan_frame(size, mpp)
    return np.hypot(xs - center_xy[0], ys - center_xy[1]) <= radius


def _single_entry_traj(wx, wy):
    return fusion.LabeledTrajectory(
        timestamps=np.array([0.0]),
        poses=np.array([[wx, wy, 0.0]]),
        terrain=np.array([int(TerrainClass.GRAVEL)]),
        confidence=np.ones(1), dropped=0)


def test_gate_06_painting_geometry(capsys):
    size, mpp = 64, 0.4
    rng = np.random.default_rng(6)

    # a trajectory point at a known range/bearing from the scan pose lands
    # within one pixel of where the frame math says it should
    landing_ok = True
    for _ in range(10):
        pose = (rng.uniform(-10, 10), rng.uniform(-10, 10),
                rng.uniform(-np.pi, np.pi))
        r = rng.uniform(2.0, 10.0)
        bearing = rng.uniform(-np.pi, np.pi)
        wx = pose[0] + r * np.cos(pose[2] + bearing)
        wy = pose[1] + r * np.sin(pose[2] + bearing)
        scan = canvas.CartesianScan(
            image=np.zeros((size, size)), metres_per_pixel=mpp,
            timestamp=0.0, pose=np.array(pose), max_range=size * mpp)
        mask = canvas.paint_labels(scan, _single_entry_traj(wx, wy),
                                   footprint_radius_m=0.33,
                                   use_negatives=True)
        painted = np.argwhere(mask == int(canvas.Label.PATH))
        if len(painted) == 0:
            landing_ok = False
            continue
        xs, ys = canvas.pixel_grid_scan_frame(size, mpp)
        cx = xs[painted[:, 0], painted[:, 1]].mean()
        cy = ys[painted[:, 0], painted[:, 1]].mean()
        ex, ey = r * np.cos(bearing), r * np.sin(bearing)
        landing_ok &= bool(np.hypot(cx - ex, cy - ey) <= mpp)

    # painted discs match the per-pixel distance oracle exactly
    disc_ok = True
    for radius in (0.33, 0.9, 2.5):
        scan = canvas.CartesianScan(
            image=np.zeros((size, size)), metres_per_pixel=mpp,
            timestamp=0.0, pose=np.zeros(3), max_range=size * mpp)
        mask = canvas.paint_labels(scan, _single_entry_traj(1.3, -2.7),
                                   footprint_radius_m=radius,
                                   use_negatives=True)
        want = _disc_oracle(size, mpp, (1.3, -2.7), radius)
        disc_ok &= bool(np.array_equal(mask == int(canvas.Label.PATH),
                                       want))

    # world <-> scan frame round trip
    wx = rng.uniform(-50, 50, size=200)
    wy = rng.uniform(-50, 50, size=200)
    pose = (3.2, -1.7, 0.77)
    sx, sy = canvas.world_to_scan_frame(wx, wy, pose)
    bx, by = canvas.scan_frame_to_world(sx, sy, pose)
    rt_err = float(max(np.abs(bx - wx).max(), np.abs(by - wy).max()))

    ok = landing_ok and disc_ok and rt_err < 1e-9
    report(capsys, 6, "label-painting geometry", ok,
           f"landing {landing_ok}, disc exact {disc_ok}, "
           f"round-trip {rt_err:.1e} m")


# ---------------------------------------------------------------------------
# gate 4: audio classifier accuracy on held-out clips


def test_gate_04_audio_classifier(capsys, full_run):
    with open(os.path.join(full_run["out"], "audio_report.json")) as f:
        rep = json.load(f)
    means = {name: rep[name]["mean"] for name in
             ("spectrogram", "mel", "gammatone")}
    acc_ok = all(m >= 0.95 for m in means.values())
    clips_ok = full_run["cfg"]["audio"]["clips_per_class"] >= 600

    with open(os.path.join(full_run["out"], "audio_table.txt")) as f:
        table = f.read()
    lines = table.strip().splitlines()
    trials = full_run["cfg"]["audio"]["trials"]
    table_ok = (len(lines) == trials + 2
                and lines[-1].lstrip().startswith("Average")
                and all(col in lines[0] for col in
                        ("Spectrogram", "Mel-frequency Spectrogram",
                         "Gammatonegram")))

    ok = acc_ok and clips_ok and table_ok
    detail = ", ".join(f"{k} {v:.3f}" for k, v in means.items())
    report(capsys, 4, "audio terrain classifier >= 95% held-out", ok,
           detail + f", table rows ok {table_ok}")


# ---------------------------------------------------------------------------
# gate 7: propagated labels reach the untraversed side path


def test_gate_07_curriculum_generalisation(capsys, full_run):
    with open(os.path.join(full_run["out"],
                           "propagation_report.json")) as f:
        rep = json.load(f)
    recall = rep["side_path_recall"]
    grass_fp = rep["grass_false_positive_rate"]
    ok = recall >= 0.50 and grass_fp <= 0.05
    report(capsys, 7, "untraversed side path labeled after propagation", ok,
           f"side recall {recall:.3f}, grass fp {grass_fp:.4f}")


# ---------------------------------------------------------------------------
# gate 8: final segmentation beats gates and the direct-training baseline


def _score_model_in_memory(model, cfg, out):
    """Mirror the on-disk evaluation for a model held in memory."""
    ccfg = cfg["canvas"]
    ious = {}
    for name in ("eval_short", "eval_long"):
        world = simworld.load_world(os.path.join(out, f"world_{name}.json"))
        scans = pipeline._read_scans(cfg, out, f"scans_{name}")
        preds, gts, ignores = [], [], []
        for scan in scans:
            preds.append(segmentation.segment(model, scan.image).astype(bool))
            gts.append(simworld.ground_truth_mask(
                world, scan.pose, ccfg["image_size"],
                ccfg["metres_per_pixel"]))
            ignores.append(canvas.range_ignore_mask(
                ccfg["image_size"], ccfg["metres_per_pixel"],
                scan.max_range))
        s = evaluate.scores(np.stack(preds), np.stack(gts),
                            np.stack(ignores))
        ious[name] = s.iou
    return ious


def test_gate_08_final_segmentation(capsys, full_run):
    cfg, out = full_run["cfg"], full_run["out"]
    with open(os.path.join(out, "seg_scores.json")) as f:
        scores = json.load(f)
    gates_ok = all(scores[w]["pixel_accuracy"] >= 0.98
                   and scores[w]["iou"] >= 0.40
                   for w in ("eval_short", "eval_long"))
    curriculum_iou = float(np.mean([scores[w]["iou"]
                                    for w in ("eval_short", "eval_long")]))

    # equal-budget baseline: same seeds, same total step count, but direct
    # full-scan training on the initial sparse labels (no crop stage, no
    # label propagation)
    scfg = cfg["segmentation"]
    seed = cfg["seed"]
    images = [scan.image
              for scan in pipeline._read_scans(cfg, out, "scans_train")]
    masks = pipeline._scan_masks(out, "masks_initial", len(images))
    baseline = segmentation.UNet(depth=scfg["depth"],
                                 base_channels=scfg["base_channels"],
                                 seed=pipeline.derive_seed(seed, 70))
    tcfg = segmentation.SegTrainConfig(
        learning_rate=scfg["stage2_lr"], batch_size=1,
        steps=scfg["stage1_steps"] + scfg["stage2_steps"],
        seed=pipeline.derive_seed(seed, 71))
    baseline, _ = segmentation.stage2_finetune(baseline, images, masks,
                                               tcfg)
    baseline_iou = float(np.mean(list(
        _score_model_in_memory(baseline, cfg, out).values())))

    ok = gates_ok and curriculum_iou > baseline_iou
    report(capsys, 8, "held-out segmentation gates + curriculum advantage",
           ok, f"acc {scores['eval_short']['pixel_accuracy']:.3f}/"
           f"{scores['eval_long']['pixel_accuracy']:.3f}, "
           f"iou {scores['eval_short']['iou']:.3f}/"
           f"{scores['eval_long']['iou']:.3f}, "
           f"curriculum {curriculum_iou:.3f} vs direct {baseline_iou:.3f}")


# ---------------------------------------------------------------------------
# gate 9: bit-for-bit determinism of the reproduction command


def _tree_digest(root):
    import hashlib
    digests = {}
    for r, _, files in os.walk(root):
        for name in files:
            path = os.path.join(r, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(
                    f.read()).hexdigest()
    return digests


# reduced-scale config exercising every pipeline stage; the code path is
# identical to desk scale, only the sizes differ
GATE9_CONFIG = {
    "seed": 7,
    "simworld": {"grid_size": 96, "scatterer_density": 300.0},
    "audio": {"clips_per_class": 40, "recordings_per_class": 2,
              "epochs": 1, "trials": 1},
    "canvas": {"image_size": 96},
    "segmentation": {"stage1_steps": 20, "stage2_steps": 4,
                     "crops_per_scan": 10, "n_rotations": 2, "crop": 32},
    "eval": {"eval_scans_per_world": 2, "min_pixel_accuracy": 0.0,
             "min_iou": 0.0},
}


def test_gate_09_determinism(capsys, tmp_path):
    cfg = pipeline.resolve_config(GATE9_CONFIG)
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    pipeline.run_reproduce(cfg, out_a)
    pipeline.run_reproduce(cfg, out_b)
    a, b = _tree_digest(out_a), _tree_digest(out_b)
    same_names = sorted(a) == sorted(b)
    diffs = [k for k in a if same_names and a[k] != b[k]]
    ok = same_names and not diffs and len(a) > 0
    report(capsys, 9, "reproduction is byte-identical across runs", ok,
           f"{len(a)} files compared" if ok else f"differs: {diffs[:5]}")


# ---------------------------------------------------------------------------
# gate 10: single-threaded inference throughput


def test_gate_10_inference_throughput(capsys, full_run):
    out = full_run["out"]
    script = (
        "import sys, time\n"
        "import numpy as np\n"
        "from radroute import segmentation\n"
        "model = segmentation.load_unet(sys.argv[1])\n"
        "x = segmentation.prepare_scan_image(\n"
        "    np.random.default_rng(0).random((256, 256)))\n"
        "segmentation.segment(model, x)\n"
        "n = 20\n"
        "t0 = time.perf_counter()\n"
        "for _ in range(n):\n"
        "    segmentation.segment(model, x)\n"
        "print(n / (time.perf_counter() - t0))\n")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script,
         os.path.join(out, "seg_stage2.kowt")],
        capture_output=True, text=True, env=env, check=True)
    rate = float(proc.stdout.strip())
    ok = rate >= 10.0
    report(capsys, 10, "256x256 segmentation throughput (1 thread)", ok,
           f"{rate:.1f} scans/s")


def test_render_draws_segment_mask(full_run):
    # render's segmentation panel comes from segment: its overlay is
    # exactly that of segment()'s mask
    cfg, out = full_run["cfg"], full_run["out"]
    images = [scan.image
              for scan in pipeline._read_scans(cfg, out, "scans_train")]
    image = images[len(images) // 2]
    model = segmentation.load_unet(os.path.join(out, "seg_stage2.kowt"))
    path = segmentation.segment(model, image) > 0
    assert path.any()
    mask = np.where(path, int(canvas.Label.PATH), int(canvas.Label.NOT_PATH))
    h, w = image.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with open(os.path.join(out, "render", "segmentation.ppm"), "rb") as f:
        raw = f.read()
    assert raw[:len(header)] == header
    rgb = np.frombuffer(raw[len(header):], np.uint8).reshape(h, w, 3)
    np.testing.assert_array_equal(rgb,
                                  pipeline.render_overlay(image, mask))


# ---------------------------------------------------------------------------
# gate 11: end-to-end wall time


def test_gate_11_end_to_end_wall_time(capsys, full_run):
    wall = full_run["wall_s"]
    ok = wall <= 30 * 60
    report(capsys, 11, "full reproduction wall time <= 30 min", ok,
           f"{wall / 60:.1f} min")
