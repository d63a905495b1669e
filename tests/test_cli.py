import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import capped
import radroute
from radroute import (audio, canvas, cli, formats, numeric, pipeline,
                      segmentation, simworld)
from radroute.errors import ConfigurationError, InputError


class TestConfig:
    def test_defaults(self):
        cfg = pipeline.resolve_config(None)
        assert cfg["seed"] == 0
        assert cfg["canvas"]["image_size"] == 256

    def test_section_merge(self):
        cfg = pipeline.resolve_config({"canvas": {"image_size": 64}})
        assert cfg["canvas"]["image_size"] == 64
        assert cfg["canvas"]["metres_per_pixel"] == 0.4  # untouched default

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError):
            pipeline.resolve_config({"radar": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigurationError):
            pipeline.resolve_config({"canvas": {"pixels": 3}})

    def test_non_object_section(self):
        with pytest.raises(ConfigurationError):
            pipeline.resolve_config({"canvas": 7})

    def test_defaults_not_mutated(self):
        pipeline.resolve_config({"seed": 9})
        assert pipeline.DEFAULT_CONFIG["seed"] == 0


class TestConfigTypes:
    def test_string_for_int_rejected_naming_key(self):
        with pytest.raises(ConfigurationError,
                           match="segmentation.stage1_steps"):
            pipeline.resolve_config({"segmentation": {"stage1_steps": "350"}})

    def test_int_accepted_for_float(self):
        cfg = pipeline.resolve_config({"segmentation": {"stage1_lr": 1}})
        assert cfg["segmentation"]["stage1_lr"] == 1

    def test_float_rejected_for_int(self):
        with pytest.raises(ConfigurationError, match="canvas.image_size"):
            pipeline.resolve_config({"canvas": {"image_size": 64.0}})

    @pytest.mark.parametrize("user", [{"seed": True},
                                      {"audio": {"learning_rate": False}},
                                      {"canvas": {"use_negatives": 1}}])
    def test_bool_and_number_never_mix(self, user):
        with pytest.raises(ConfigurationError):
            pipeline.resolve_config(user)

    def test_top_level_type_checked(self):
        with pytest.raises(ConfigurationError, match="output_dir"):
            pipeline.resolve_config({"output_dir": 3})

    def test_cli_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"segmentation": {"stage1_steps": "350"}}))
        rc = cli.main(["--config", str(cfg_path), "--out",
                       str(tmp_path / "run"), "simulate"])
        assert rc == cli.EXIT_ERROR
        assert "segmentation.stage1_steps" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestPositiveRates:
    KEYS = ("scan_interval_s", "speed", "vo_dt", "sample_rate", "gps_rate")

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("value", [0, -5.0, float("nan"),
                                       float("inf")])
    def test_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigurationError, match=f"simworld.{key}"):
            pipeline.resolve_config({"simworld": {key: value}})

    @pytest.mark.parametrize("key", KEYS)
    def test_cli_exits_1_writing_nothing(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"simworld": {key: 0}}))
        rc = cli.main(["--config", str(cfg_path), "--out",
                       str(tmp_path / "run"), "simulate"])
        assert rc == cli.EXIT_ERROR
        assert f"simworld.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


GATE9_AUDIO = {"clips_per_class": 40, "recordings_per_class": 2,
               "epochs": 1, "trials": 1}


class TestValueChecks:
    # an unknown representation used to train every model and then fail;
    # a crop larger than the scan used to slice from a negative start. The
    # others failed only after simulate, or (epochs and step counts 0)
    # saved an untrained model; sizes must halve depth (3) times, and the
    # propagation keys meet PropagationConfig's own checks
    CASES = [({"audio": {"representation": "foo"}}, "audio.representation"),
             ({"segmentation": {"crop": 128}, "canvas": {"image_size": 96}},
              "segmentation.crop"),
             ({"audio": {"trials": 0}}, "audio.trials"),
             ({"audio": {"train_fraction": 1.0}}, "audio.train_fraction"),
             ({"audio": {"batch_size": 0}}, "audio.batch_size"),
             ({"audio": {"epochs": 0}}, "audio.epochs"),
             ({"segmentation": {"stage1_steps": 0}},
              "segmentation.stage1_steps"),
             ({"segmentation": {"stage2_steps": 0}},
              "segmentation.stage2_steps"),
             ({"segmentation": {"batch_size": 0}}, "segmentation.batch_size"),
             ({"segmentation": {"depth": 0}}, "segmentation.depth"),
             ({"canvas": {"image_size": 100}}, "canvas.image_size"),
             ({"segmentation": {"crop": 30}}, "segmentation.crop"),
             ({"segmentation": {"tile_size": 60}}, "segmentation.tile_size"),
             ({"segmentation": {"n_rotations": 0}},
              "segmentation.n_rotations"),
             ({"segmentation": {"vote_threshold": 1.5}},
              "segmentation.vote_threshold"),
             ({"segmentation": {"probability_threshold": 1.0}},
              "segmentation.probability_threshold"),
             # at gate 9's audio sizes the 120 windows split 120/0 and 0/120
             ({"audio": {**GATE9_AUDIO, "train_fraction": 0.999}},
              "audio.train_fraction"),
             ({"audio": {**GATE9_AUDIO, "train_fraction": 0.001}},
              "audio.train_fraction"),
             ({"audio": {"recordings_per_class": 0}},
              "audio.recordings_per_class"),
             ({"audio": {"clips_per_class": 0}}, "audio.clips_per_class"),
             # these failed only after simulate or without naming their
             # key, or (a learning rate of 0) trained nothing
             ({"segmentation": {"tile_size": 0}}, "segmentation.tile_size"),
             ({"segmentation": {"tile_size": -8}}, "segmentation.tile_size"),
             ({"segmentation": {"crop": 0}}, "segmentation.crop"),
             ({"segmentation": {"stage1_lr": 0}}, "segmentation.stage1_lr"),
             ({"segmentation": {"stage2_lr": -1}}, "segmentation.stage2_lr"),
             ({"audio": {"learning_rate": 0}}, "audio.learning_rate"),
             ({"eval": {"eval_scans_per_world": 0}},
              "eval.eval_scans_per_world"),
             ({"segmentation": {"base_channels": 0}},
              "segmentation.base_channels"),
             ({"simworld": {"grid_size": 10}}, "simworld.grid_size"),
             ({"simworld": {"cell_size": 0}}, "simworld.cell_size"),
             ({"segmentation": {"vote_threshold": 0.0}},
              "segmentation.vote_threshold"),
             # a multiple of 2**depth below 32 failed only at paint, in
             # polar_to_cartesian, without naming its key
             ({"canvas": {"image_size": 16},
               "segmentation": {"crop": 16, "tile_size": 16}},
              "canvas.image_size")]

    @pytest.mark.parametrize("user,key", CASES)
    def test_rejected_naming_key(self, user, key):
        with pytest.raises(ConfigurationError, match=key):
            pipeline.resolve_config(user)

    @pytest.mark.parametrize("user,key", CASES)
    def test_cli_exits_1_writing_nothing(self, tmp_path, capsys, user, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(user))
        rc = cli.main(["--config", str(cfg_path), "--out",
                       str(tmp_path / "run"), "simulate"])
        assert rc == cli.EXIT_ERROR == 1
        err = capsys.readouterr().err
        assert f"{cfg_path}: config key {key}" in err
        assert not (tmp_path / "run").exists()

    def test_readme_table_lists_every_check(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as f:
            keys = re.findall(r"^\| `(\w+\.\w+)` \|", f.read(), re.M)
        assert keys == [name for name, _, _ in pipeline.VALUE_CHECKS]

    def test_crop_equal_to_image_size_accepted(self):
        cfg = pipeline.resolve_config({"segmentation": {"crop": 96},
                                       "canvas": {"image_size": 96}})
        assert cfg["segmentation"]["crop"] == 96

    def test_boundary_values_accepted(self):
        user = {"audio": {"trials": 1, "epochs": 1, "batch_size": 1,
                          "train_fraction": 0.01},
                "segmentation": {"stage1_steps": 1, "stage2_steps": 1,
                                 "batch_size": 1, "depth": 1, "crop": 2,
                                 "tile_size": 2, "n_rotations": 1,
                                 "vote_threshold": 1.0,
                                 "probability_threshold": 0.01,
                                 "base_channels": 1, "stage1_lr": 1e-9},
                "canvas": {"image_size": 32},
                "simworld": {"grid_size": 64},
                "eval": {"min_iou": 1.01, "min_pixel_accuracy": -1.0,
                         "eval_scans_per_world": 1}}
        cfg = pipeline.resolve_config(user)
        for section, values in user.items():
            assert {k: cfg[section][k] for k in values} == values


class TestDspSection:
    # gate 9's reduced sizes (tests/test_acceptance.py)
    GATE9 = {"seed": 7,
             "simworld": {"grid_size": 96, "scatterer_density": 300.0},
             "audio": {"clips_per_class": 40, "recordings_per_class": 2,
                       "epochs": 1, "trials": 1},
             "canvas": {"image_size": 96}}

    def test_invalid_framing_rejected_naming_section(self):
        with pytest.raises(ConfigurationError, match="dsp"):
            pipeline.resolve_config({"dsp": {"hop": 500}})

    def test_invalid_framing_exits_before_simulate(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dsp": {"hop": 500}}))
        out = tmp_path / "run"
        out.mkdir()
        rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                       "simulate"])
        assert rc == cli.EXIT_ERROR
        assert "dsp" in capsys.readouterr().err
        assert os.listdir(out) == []

    # each met hop <= frame_len <= fft_size, so simulate wrote its tree and
    # train-audio then failed on a zero step or a one-sample window
    @pytest.mark.parametrize("framing", [{"hop": 0}, {"hop": -5},
                                         {"frame_len": 1, "hop": 1}])
    def test_degenerate_framing_exits_1_writing_nothing(self, tmp_path,
                                                        capsys, framing):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dsp": framing}))
        out = tmp_path / "run"
        rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                       "simulate"])
        assert rc == cli.EXIT_ERROR == 1
        assert "config section dsp" in capsys.readouterr().err
        assert not out.exists()

    def test_audio_stages_follow_hop(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.GATE9, "dsp": {"hop": 220}}))
        out = tmp_path / "run"
        for stage in ("simulate", "train-audio", "eval-audio"):
            rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                           stage])
            assert rc == cli.EXIT_OK, stage
        header = json.loads((out / "audio_model.json").read_text())
        assert "input_shape" not in header  # the framing and WAV give it
        audio.load_model(out / "audio_model.kowt", (1, 32, 99))
        assert header["dsp"] == {"frame_len": 441, "hop": 220,
                                 "fft_size": 441}
        assert (out / "stream_report.json").exists()

        # eval-audio at the default framing refuses the hop-220 model
        capsys.readouterr()
        default_path = tmp_path / "default.json"
        default_path.write_text(json.dumps(self.GATE9))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        rc = cli.main(["--config", str(default_path), "--out", str(out),
                       "eval-audio"])
        assert rc == cli.EXIT_ERROR
        assert "dsp" in capsys.readouterr().err
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before

        # so does a model whose header predates the recorded framing
        del header["dsp"]
        (out / "audio_model.json").write_text(json.dumps(header))
        rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                       "eval-audio"])
        assert rc == cli.EXIT_ERROR
        assert "dsp" in capsys.readouterr().err


@pytest.fixture(scope="module")
def gate9_audio_run(tmp_path_factory):
    """simulate and train-audio at gate 9's reduced sizes."""
    out = tmp_path_factory.mktemp("gate9") / "run"
    cfg_path = out.parent / "cfg.json"
    cfg_path.write_text(json.dumps(TestDspSection.GATE9))
    for stage in ("simulate", "train-audio"):
        assert cli.main(["--config", str(cfg_path), "--out", str(out),
                         stage]) == cli.EXIT_OK
    return pipeline.resolve_config(TestDspSection.GATE9), cfg_path, out


class TestAudioWindowCount:
    def test_matches_dataset_train_audio_builds(self, gate9_audio_run,
                                                monkeypatch):
        cfg, _, out = gate9_audio_run
        monkeypatch.setattr(audio, "REPRESENTATIONS", ("gammatone",))
        with contextlib.ExitStack() as stack:
            datasets = audio.build_datasets(
                pipeline._class_recordings(str(out), stack), cfg["seed"],
                pipeline.stft_config(cfg))
        assert len(datasets["gammatone"]) == pipeline.audio_window_count(
            cfg) == 120


class TestAudioTrainLog:
    def test_one_finite_entry_per_epoch_and_trial(self, gate9_audio_run,
                                                   tmp_path):
        _, cfg_path, audio_out = gate9_audio_run
        out = tmp_path / "run"
        shutil.copytree(audio_out, out)
        user = json.loads(cfg_path.read_text())
        user["audio"] = {**user["audio"], "epochs": 3, "trials": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(user))
        assert cli.main(["--config", str(cfg_path), "--out", str(out),
                         "train-audio"]) == cli.EXIT_OK
        log = json.loads((out / "audio_train_log.json").read_text())
        assert sorted(log) == sorted(audio.REPRESENTATIONS)
        for trials in log.values():
            assert len(trials) == 2
            for trial in trials:
                assert sorted(trial) == ["epoch_accuracy", "epoch_loss"]
                assert len(trial["epoch_loss"]) == 3
                assert len(trial["epoch_accuracy"]) == 3
                assert np.isfinite(trial["epoch_loss"]).all()
                assert all(0.0 <= a <= 1.0 for a in trial["epoch_accuracy"])


class TestEvalAudioBlocks:
    # the traverse stream of gate 9's sizes holds 100 windows
    @pytest.mark.parametrize("block", [1, 3, 1000])
    def test_predictions_do_not_depend_on_block(self, gate9_audio_run,
                                                 monkeypatch, block):
        _, cfg_path, out = gate9_audio_run
        argv = ["--config", str(cfg_path), "--out", str(out), "eval-audio"]
        assert cli.main(argv) == cli.EXIT_OK
        want = (out / "predictions.csv").read_bytes()
        assert want.count(b"\n") == 101
        monkeypatch.setattr(audio, "WINDOW_BLOCK", block)
        (out / "predictions.csv").unlink()
        assert cli.main(argv) == cli.EXIT_OK
        assert (out / "predictions.csv").read_bytes() == want


class TestSegTrainLog:
    def test_stage1_log_records_fallbacks(self, tmp_path, monkeypatch):
        def fake_stage1(images, masks, model, cfg, crop, crops_per_scan):
            return model, segmentation.SegTrainLog(
                losses=[0.5], skipped_batches=1, augment_fallbacks=3)

        monkeypatch.setattr(pipeline, "_read_scans",
                            lambda cfg, out, subdir: [
                                types.SimpleNamespace(image=None)])
        monkeypatch.setattr(pipeline, "_scan_masks",
                            lambda out, sub, n_scans: [None])
        monkeypatch.setattr(segmentation, "stage1_train", fake_stage1)
        cfg = pipeline.resolve_config(
            {"segmentation": {"depth": 1, "base_channels": 2}})
        pipeline.run_train_seg(cfg, str(tmp_path), 1)
        with open(tmp_path / "seg_stage1_log.json") as f:
            log = json.load(f)
        assert log == {"losses": [0.5], "skipped_batches": 1,
                       "augment_fallbacks": 3}


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["transmogrify"])

    def test_train_seg_needs_stage(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train-seg"])


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "nope.json"), "simulate"])
        assert rc == cli.EXIT_MISSING_INPUT

    def test_missing_stage_inputs(self, tmp_path):
        rc = cli.main(["--out", str(tmp_path / "empty"), "fuse"])
        assert rc == cli.EXIT_MISSING_INPUT

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"no_such_section": {}}))
        rc = cli.main(["--config", str(path), "--out", str(tmp_path),
                       "simulate"])
        assert rc == cli.EXIT_ERROR

    def test_features_missing_wav(self, tmp_path):
        rc = cli.main(["features", str(tmp_path / "absent.wav"),
                       str(tmp_path / "out.pgm")])
        assert rc == cli.EXIT_MISSING_INPUT


def small_eval_cfg():
    return pipeline.resolve_config({
        "simworld": {"grid_size": 64, "scatterer_density": 0.0},
        "canvas": {"image_size": 64},
        "eval": {"eval_scans_per_world": 1},
    })


def write_eval_fixture(out, cfg, perfect=True):
    """Two held-out worlds, one scan each, predictions from ground truth."""
    os.makedirs(out, exist_ok=True)
    ccfg = cfg["canvas"]
    for name, profile in (("eval_short", "short"), ("eval_long", "long")):
        sc = pipeline.sim_config(cfg, profile)
        seed = pipeline.derive_seed(cfg["seed"], pipeline.WORLD_TAGS[name])
        world = simworld.generate_world(seed, sc)
        simworld.save_world(world, os.path.join(out, f"world_{name}.json"),
                            os.path.join(out, f"world_{name}.pgm"))
        pose = (world.extent_m / 2, world.extent_m / 2, 0.3)
        scan = simworld.synth_radar(world, pose, sc, seed, np.zeros((0, 2)),
                                    0.0)
        sdir = os.path.join(out, f"scans_{name}")
        os.makedirs(sdir, exist_ok=True)
        canvas.save_polar_scan(os.path.join(sdir, "scan_000.rds"), scan)
        gt = simworld.ground_truth_mask(world, pose, ccfg["image_size"],
                                       ccfg["metres_per_pixel"])
        pred = gt if perfect else 1 - gt
        pdir = os.path.join(out, f"pred_scans_{name}")
        os.makedirs(pdir, exist_ok=True)
        formats.write_pgm(os.path.join(pdir, "pred_000.pgm"),
                          (pred * 255).astype(np.uint8))


class TestEvalSeg:
    def test_perfect_predictions_pass_gate(self, tmp_path, capsys):
        cfg = small_eval_cfg()
        out = str(tmp_path / "run")
        write_eval_fixture(out, cfg, perfect=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"simworld": {"grid_size": 64, "scatterer_density": 0.0},
             "canvas": {"image_size": 64},
             "eval": {"eval_scans_per_world": 1}}))
        rc = cli.main(["--config", str(cfg_path), "--out", out, "eval-seg"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert "iou=1.0000" in captured.out
        assert "pixel_accuracy=1.0000" in captured.out
        scores = json.loads(
            (tmp_path / "run" / "seg_scores.json").read_text())
        assert scores["eval_short"]["iou"] == 1.0
        assert scores["eval_long"]["iou"] == 1.0

    def test_bad_predictions_fail_gate(self, tmp_path):
        cfg = small_eval_cfg()
        out = str(tmp_path / "run")
        write_eval_fixture(out, cfg, perfect=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"simworld": {"grid_size": 64, "scatterer_density": 0.0},
             "canvas": {"image_size": 64},
             "eval": {"eval_scans_per_world": 1}}))
        rc = cli.main(["--config", str(cfg_path), "--out", out, "eval-seg"])
        assert rc == cli.EXIT_GATE_FAILED


SMALL_TRAIN = {"simworld": {"grid_size": 64, "scatterer_density": 0.0},
               "canvas": {"image_size": 64},
               "segmentation": {"depth": 1, "base_channels": 2,
                                "stage1_steps": 2, "crop": 32,
                                "crops_per_scan": 2, "n_rotations": 1}}


def write_train_fixture(out, cfg, n_masks):
    """A training world with two scans, a stage-1 model and n_masks
    all-unlabeled initial masks."""
    sc = pipeline.sim_config(cfg, "short")
    seed = pipeline.derive_seed(cfg["seed"], pipeline.WORLD_TAGS["train"])
    world = simworld.generate_world(seed, sc)
    os.makedirs(out)
    simworld.save_world(world, os.path.join(out, "world_train.json"),
                        os.path.join(out, "world_train.pgm"))
    for sub in ("scans_train", "masks_initial"):
        os.makedirs(os.path.join(out, sub))
    for i in range(2):
        pose = (world.extent_m / 2, world.extent_m / 2, 0.3 * i)
        canvas.save_polar_scan(
            os.path.join(out, "scans_train", f"scan_{i:03d}.rds"),
            simworld.synth_radar(world, pose, sc, seed + i, np.zeros((0, 2)),
                                 0.0))
    size = cfg["canvas"]["image_size"]
    for i in range(n_masks):
        formats.write_pgm(
            os.path.join(out, "masks_initial", f"mask_{i:03d}.pgm"),
            canvas.mask_to_pgm_values(np.zeros((size, size), np.uint8)))
    scfg = cfg["segmentation"]
    segmentation.save_unet(
        os.path.join(out, "seg_stage1.kowt"),
        segmentation.UNet(depth=scfg["depth"],
                          base_channels=scfg["base_channels"]))


class TestMaskCount:
    @pytest.mark.parametrize("command", [["train-seg", "--stage", "1"],
                                         ["propagate"]])
    @pytest.mark.parametrize("n_masks", [0, 1])
    def test_fewer_masks_than_scans_fails(self, tmp_path, capsys, command,
                                          n_masks):
        # zip() over scans and masks would drop the scans without a mask
        out = str(tmp_path / "run")
        write_train_fixture(out, pipeline.resolve_config(SMALL_TRAIN),
                            n_masks)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_TRAIN))
        rc = cli.main(["--config", str(cfg_path), "--out", out] + command)
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert f"masks_initial holds {n_masks} masks for 2 " in err
        assert not os.path.exists(os.path.join(out, "masks_propagated"))
        assert not os.path.exists(os.path.join(out, "seg_stage1_log.json"))


class TestNonFiniteScan:
    def test_segment_rejects_nan_scan(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        write_train_fixture(out, pipeline.resolve_config(SMALL_TRAIN), 2)
        path = os.path.join(out, "scans_train", "scan_001.rds")
        scan = canvas.load_polar_scan(path)
        scan.power[3, 5] = np.nan
        canvas.save_polar_scan(path, scan)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_TRAIN))
        rc = cli.main(["--config", str(cfg_path), "--out", out, "segment",
                       "--scans", "scans_train", "--model", "seg_stage1"])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "non-finite power" in err and "scan_001.rds" in err
        pred_dir = os.path.join(out, "pred_scans_train")
        assert not os.path.exists(pred_dir) or not os.listdir(pred_dir)


class TestReproduce:
    def test_unreachable_gate_fails_run(self, tmp_path, capsys):
        # gate 9's reduced sizes; no pixel accuracy can exceed 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 7,
            "simworld": {"grid_size": 96, "scatterer_density": 300.0},
            "audio": {"clips_per_class": 40, "recordings_per_class": 2,
                      "epochs": 1, "trials": 1},
            "canvas": {"image_size": 96},
            "segmentation": {"stage1_steps": 20, "stage2_steps": 4,
                             "crops_per_scan": 10, "n_rotations": 2,
                             "crop": 32},
            "eval": {"eval_scans_per_world": 2,
                     "min_pixel_accuracy": 1.01, "min_iou": 0.0}}))
        out = str(tmp_path / "run")
        rc = cli.main(["--config", str(cfg_path), "--out", out, "reproduce"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_GATE_FAILED
        assert "eval_short: pixel_accuracy=" in captured.out
        assert "gate failed" in captured.err
        assert os.path.exists(os.path.join(out, "seg_scores.json"))


class TestFeatures:
    def test_wav_to_pgm(self, tmp_path, capsys):
        clip = simworld.synth_audio(simworld.TerrainClass.GRAVEL, 0.5,
                                    44100.0, 0)
        wav = tmp_path / "clip.wav"
        formats.write_wav(wav, clip.samples, clip.sample_rate)
        pgm = tmp_path / "image.pgm"
        rc = cli.main(["features", str(wav), str(pgm),
                       "--representation", "mel"])
        assert rc == cli.EXIT_OK
        image = formats.read_pgm(pgm)
        assert image.shape == (64, 50)
        assert f"wrote {pgm}" in capsys.readouterr().out

    @staticmethod
    def half_second_wav(tmp_path):
        clip = simworld.synth_audio(simworld.TerrainClass.GRASS, 0.5,
                                    44100.0, 1)
        wav = tmp_path / "clip.wav"
        formats.write_wav(wav, clip.samples, clip.sample_rate)
        return str(wav)

    # mel: test_wav_to_pgm
    @pytest.mark.parametrize("representation,shape", [
        ("spectrogram", (221, 50)), ("gammatone", (32, 50))])
    def test_other_representations(self, tmp_path, representation, shape):
        pgm = tmp_path / "image.pgm"
        rc = cli.main(["features", self.half_second_wav(tmp_path), str(pgm),
                       "--representation", representation])
        assert rc == cli.EXIT_OK
        assert formats.read_pgm(pgm).shape == shape

    def test_representation_flag_follows_the_config(self, tmp_path,
                                                    capsys):
        # default: the audio section's representation (gammatone, 32
        # channels); choices: audio.REPRESENTATIONS
        wav, pgm = self.half_second_wav(tmp_path), tmp_path / "image.pgm"
        assert cli.main(["features", wav, str(pgm)]) == cli.EXIT_OK
        assert formats.read_pgm(pgm).shape == (32, 50)
        args = ["features", wav, str(pgm), "--representation"]
        parse = cli.build_parser().parse_args
        assert (parse(args[:-1]).representation
                == pipeline.DEFAULT_CONFIG["audio"]["representation"])
        for rep in audio.REPRESENTATIONS:
            assert parse(args + [rep]).representation == rep
        with pytest.raises(SystemExit):
            parse(args + ["cepstrum"])
        assert "invalid choice" in capsys.readouterr().err

    def test_truncated_wav_exits_1(self, tmp_path, capsys):
        wav = self.half_second_wav(tmp_path)
        with open(wav, "rb") as f:
            data = f.read(20000)  # cut mid-data
        with open(wav, "wb") as f:
            f.write(data)
        pgm = tmp_path / "image.pgm"
        rc = cli.main(["features", wav, str(pgm)])
        assert rc == cli.EXIT_ERROR
        assert "truncated WAV file" in capsys.readouterr().err
        assert not pgm.exists()

    def test_dsp_section_sets_frames(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dsp": {"hop": 220}}))
        pgm = tmp_path / "image.pgm"
        rc = cli.main(["--config", str(cfg_path), "features",
                       self.half_second_wav(tmp_path), str(pgm),
                       "--representation", "mel"])
        assert rc == cli.EXIT_OK
        assert formats.read_pgm(pgm).shape == (64, 99)


class TestRenderOverlay:
    def test_tint_convention(self):
        image = np.zeros((4, 4))
        mask = np.full((4, 4), int(canvas.Label.UNLABELED), dtype=np.uint8)
        mask[0, 0] = int(canvas.Label.PATH)
        mask[1, 1] = int(canvas.Label.NOT_PATH)
        rgb = pipeline.render_overlay(image, mask)
        r, g, b = rgb[0, 0]
        assert r > g and r > b  # path tinted red
        r, g, b = rgb[1, 1]
        assert g > r and g > b  # not-path tinted green
        assert (rgb[2, 2] == rgb[2, 2][0]).all()  # unlabeled stays gray



def stage_argv(name, params):
    """The CLI words of a reproduce step: the stage name and its flags."""
    return [name] + [word for key, value in params.items()
                     for word in (f"--{key}", str(value))]


INPUT_STEPS = [(name, params) for name, params in pipeline.REPRODUCE
               if pipeline.STAGES[name].inputs(**params)]


class TestStageTable:
    def test_reproduce_runs_every_stage(self):
        assert ({name for name, _ in pipeline.REPRODUCE}
                == set(pipeline.STAGES) - {"reproduce"})

    @pytest.mark.parametrize(
        "name, params", INPUT_STEPS,
        ids=[" ".join(stage_argv(*step)) for step in INPUT_STEPS])
    def test_empty_out_is_missing_input(self, tmp_path, capsys, name,
                                        params):
        out = tmp_path / "run"
        out.mkdir()
        rc = cli.main(["--out", str(out)] + stage_argv(name, params))
        assert rc == cli.EXIT_MISSING_INPUT
        assert f"missing input for {name}: " in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_missing_sidecar_is_missing_input(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        write_train_fixture(out, pipeline.resolve_config(SMALL_TRAIN), 2)
        os.remove(os.path.join(out, "seg_stage1.kowt"))
        rc = cli.main(["--out", out, "propagate"])
        assert rc == cli.EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert "missing input for propagate: " in err
        assert "seg_stage1.kowt" in err
        assert not os.path.exists(os.path.join(out, "masks_propagated"))


class TestThreads:
    def test_threads_reach_environment_before_numpy(self, tmp_path):
        # records OPENBLAS_NUM_THREADS when numpy is first imported
        script = textwrap.dedent("""
            import importlib.abc, json, os, sys
            seen = []
            class Spy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.meta_path.insert(0, Spy())
            from radroute import cli
            rc = cli.main(["--threads", "3", "--out", sys.argv[1], "fuse"])
            print(json.dumps([rc, seen]))
        """)
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS")}
        src = os.path.dirname(os.path.dirname(radroute.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "empty")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            cli.EXIT_MISSING_INPUT, ["3"]]


def run_capped_cli(*argv):
    """`radroute argv...` in a child capped as capped.run_capped: a loader
    that builds layers from a bad header before checking it fails there."""
    return capped.run_capped(
        "import sys\nfrom radroute.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n", *argv)


def _unet_tensors(change):
    """The tensors of a depth-1, 2-channel U-Net, changed as change names:
    the counts of depth 30 and depth 2, a count no depth has, a layer0.p0
    of 4096 or of no input channels."""
    named = segmentation.UNet(depth=1, base_channels=2).named_params()
    extra = [(f"extra{i:03d}", np.zeros(1)) for i in range(8 * 29)]
    if change == "huge-base":
        named[0] = ("layer0.p0", np.zeros((1 << 12, 1, 3, 3)))
    elif change == "no-input":
        named[0] = ("layer0.p0", np.zeros((2, 0, 3, 3)))
    return named + {"depth-30": extra, "depth-2": extra[:8],
                    "depth-x": extra[:1]}.get(change, [])


class TestModelHeaders:
    # A U-Net's layout comes from the tensor records of its .kowt: depth
    # from their count, base and input channels from layer0.p0's shape
    @pytest.mark.parametrize("change", [
        "valid", "depth-30", "depth-2", "depth-x", "huge-base", "no-input"])
    def test_unet_header_checked_before_any_layer(self, tmp_path, change):
        out = tmp_path / "run"
        os.makedirs(out / "scans")
        numeric.save_weights(out / "m.kowt", _unet_tensors(change))
        proc = run_capped_cli("--out", str(out), "segment", "--scans",
                              "scans", "--model", "m")
        if change == "valid":
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            return
        assert proc.returncode == cli.EXIT_ERROR
        assert "m.kowt" in proc.stderr, proc.stderr
        assert len(proc.stderr) < 400, proc.stderr

    # a gammatone model's header with its representation changed: the
    # weights of another image shape are refused naming the .kowt, a
    # representation that is no string of REPRESENTATIONS naming the header
    @pytest.mark.parametrize("representation, named", [
        ("gammatone", "poses_train.csv"), ("spectrogram", "audio_model.kowt"),
        ("mel", "audio_model.kowt"), ("x", "audio_model.json"),
        (32.0, "audio_model.json"), (None, "audio_model.json")],
        ids=["valid", "spectrogram", "mel", "unknown", "float", "missing"])
    def test_audio_header_checked_before_any_layer(self, tmp_path,
                                                   representation, named):
        out = tmp_path / "run"
        os.makedirs(out)
        (out / "poses_train.csv").write_bytes(b"")
        formats.write_wav(out / "traverse_audio.wav", np.zeros(22050),
                          44100.0)
        audio.save_model(out / "audio_model.kowt", out / "audio_model.json",
                         audio.build_model((1, 32, 50)), "gammatone",
                         pipeline.stft_config(pipeline.DEFAULT_CONFIG))
        header = json.loads((out / "audio_model.json").read_text())
        header["representation"] = representation
        if representation is None:
            del header["representation"]
        (out / "audio_model.json").write_text(json.dumps(header))
        proc = run_capped_cli("--out", str(out), "eval-audio")
        assert proc.returncode == cli.EXIT_ERROR
        assert named in proc.stderr, proc.stderr
        if representation is None:
            assert "'representation'" in proc.stderr, proc.stderr

    # a WAV whose header declares a rate of 2**31 Hz over a few frames: the
    # model's input shape comes from one window at that rate, so the window
    # is checked against the frames the file holds before it is built
    def test_wav_rate_beyond_its_frames_exits_1(self, tmp_path):
        out = tmp_path / "run"
        os.makedirs(out)
        (out / "poses_train.csv").write_bytes(b"")
        formats.write_wav(out / "traverse_audio.wav", np.zeros(64), 44100.0)
        data = bytearray((out / "traverse_audio.wav").read_bytes())
        data[24:28] = (1 << 31).to_bytes(4, "little")
        (out / "traverse_audio.wav").write_bytes(bytes(data))
        audio.save_model(out / "audio_model.kowt", out / "audio_model.json",
                         audio.build_model((1, 32, 50)), "gammatone",
                         pipeline.stft_config(pipeline.DEFAULT_CONFIG))
        proc = run_capped_cli("--out", str(out), "eval-audio")
        assert proc.returncode == cli.EXIT_ERROR, proc.stderr
        assert "traverse_audio.wav" in proc.stderr, proc.stderr


PREDICTIONS_HEADER = "timestamp,class,p_grass,p_gravel,p_asphalt\n"
GOOD_ROW = "0.250000,grass,0.900000,0.050000,0.050000\n"


class TestPredictionsReader:
    @pytest.mark.parametrize("rows, where", [
        ([GOOD_ROW, "0.750000,gravel,0.1\n"], "row 3: 3 columns"),
        (["0.250000,mud,0.9,0.05,0.05\n"], "row 2 column class"),
        (["0.250000,grass,nan,0.05,0.05\n"], "row 2 column p_grass"),
        (["0.250000,grass,0.9,inf,0.05\n"], "row 2 column p_gravel"),
        (["0.250000,grass,0.9,0.05,x\n"], "row 2 column p_asphalt"),
        ([GOOD_ROW, GOOD_ROW], "row 3 column timestamp"),
        (["0.750000,grass,0.9,0.05,0.05\n", GOOD_ROW],
         "row 3 column timestamp")],
        ids=["truncated-row", "unknown-class", "nan", "inf", "not-a-number",
             "repeated-time", "earlier-time"])
    def test_bad_row_exits_1_naming_row_and_column(self, tmp_path, capsys,
                                                   rows, where):
        out = tmp_path / "run"
        os.makedirs(out / "scans_train")
        formats.write_csv(out / "fused.csv", pipeline.FUSED_COLUMNS,
                          np.array([[0.25, 1.0, 2.0, 0.0]]))
        path = out / "predictions.csv"
        path.write_text(PREDICTIONS_HEADER + "".join(rows))
        with pytest.raises(InputError, match=where):
            pipeline._read_predictions(str(path))
        assert cli.main(["--out", str(out), "paint"]) == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{path} {where}" in err

    def test_written_predictions_read_back(self, tmp_path):
        formats.write_csv(tmp_path / "p.csv", pipeline.PREDICTION_COLUMNS,
                          [(0.25 + 0.5 * t, t, *np.eye(3)[t])
                           for t in range(3)])
        back = pipeline._read_predictions(str(tmp_path / "p.csv"))
        assert [(p.terrain, p.timestamp) for p in back] == [
            (0, 0.25), (1, 0.75), (2, 1.25)]
        np.testing.assert_array_equal([p.probabilities for p in back],
                                      np.eye(3))


@pytest.fixture(scope="module")
def gate9_fused_run(gate9_audio_run, tmp_path_factory):
    """A copy of gate9_audio_run's tree after eval-audio and fuse."""
    _, cfg_path, audio_out = gate9_audio_run
    out = tmp_path_factory.mktemp("fused") / "run"
    shutil.copytree(audio_out, out)
    for stage in ("eval-audio", "fuse"):
        assert cli.main(["--config", str(cfg_path), "--out", str(out),
                         stage]) == cli.EXIT_OK
    return cfg_path, out


def _damaged(lines, how):
    """The lines of a CSV file (header first) damaged as how names."""
    lines = list(lines)
    if how == "nan":
        fields = lines[2].split(",")
        fields[1] = "nan"
        lines[2] = ",".join(fields)
    elif how == "short-row":
        lines[3] = lines[3].rsplit(",", 1)[0]
    elif how == "header-only":
        del lines[1:]
    elif how == "wrong-header":
        lines[0] = lines[0].replace("timestamp", "time")
    elif how == "unsorted":
        lines[2], lines[3] = lines[3], lines[2]
    return lines


class TestSensorCsvReader:
    # what follows the file's path in the error
    CASES = {"nan": " row 3 column {}: 'nan' is not a finite number",
             "short-row": " row 4: 3 columns, expected 4",
             "header-only": ": no data rows",
             "wrong-header": " row 1: header is not",
             "unsorted": " row 4 column timestamp"}

    @pytest.mark.parametrize("name, columns, stage, written", [
        ("vo.csv", pipeline.VO_COLUMNS, "fuse", "fused.csv"),
        ("gps.csv", pipeline.GPS_COLUMNS, "fuse", "fused.csv"),
        ("fused.csv", pipeline.FUSED_COLUMNS, "paint",
         "labeled_trajectory.csv")])
    @pytest.mark.parametrize("how", sorted(CASES))
    def test_damaged_file_exits_1_naming_row(self, gate9_fused_run,
                                             tmp_path, capsys, name,
                                             columns, stage, written, how):
        cfg_path, fused_out = gate9_fused_run
        out = tmp_path / "run"
        os.makedirs(out)
        for rel in pipeline.STAGES[stage].inputs():
            copy = shutil.copytree if rel == "scans_train" else shutil.copy
            copy(fused_out / rel, out / rel)
        path = out / name
        path.write_text("\n".join(_damaged(
            path.read_text().splitlines(), how)) + "\n")
        where = self.CASES[how].format(columns[1][0])
        with pytest.raises(InputError, match=re.escape(where)):
            formats.read_csv(path, columns)
        rc = cli.main(["--config", str(cfg_path), "--out", str(out), stage])
        assert rc == cli.EXIT_ERROR
        assert f"{path}{where}" in capsys.readouterr().err
        assert not (out / written).exists()

    @pytest.mark.parametrize("sigma", ["0.000000000", "-2.000000000"])
    def test_sigma_not_positive_exits_1_naming_row(self, gate9_fused_run,
                                                   tmp_path, capsys, sigma):
        # the EKF squares sigma, so without the check a negative one fuses
        cfg_path, fused_out = gate9_fused_run
        out = tmp_path / "run"
        os.makedirs(out)
        for rel in pipeline.STAGES["fuse"].inputs():
            shutil.copy(fused_out / rel, out / rel)
        path = out / "gps.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + sigma
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["--config", str(cfg_path), "--out", str(out), "fuse"])
        assert rc == cli.EXIT_ERROR
        assert (f"{path} row 3 column sigma: {float(sigma)} is not positive"
                in capsys.readouterr().err)
        assert not (out / "fused.csv").exists()

    def test_written_files_read_back(self, gate9_fused_run):
        _, out = gate9_fused_run
        for name, columns in (("vo.csv", pipeline.VO_COLUMNS),
                              ("gps.csv", pipeline.GPS_COLUMNS),
                              ("fused.csv", pipeline.FUSED_COLUMNS)):
            rows = formats.read_csv(out / name, columns)
            np.testing.assert_array_equal(rows, np.loadtxt(
                out / name, delimiter=",", skiprows=1, ndmin=2))


class TestPosesReader:
    # what follows the path of poses_train.csv in the error
    CASES = {"cut": " row 4: 2 columns, expected 5",
             "nan": " row 3 column x: 'nan' is not a finite number",
             "mud": " row 3 column terrain: unknown class 'mud'"}

    @pytest.mark.parametrize("how", sorted(CASES))
    def test_damaged_file_exits_1_naming_row(self, gate9_fused_run,
                                             tmp_path, capsys, how):
        cfg_path, fused_out = gate9_fused_run
        out = tmp_path / "run"
        os.makedirs(out)
        for rel in pipeline.STAGES["fuse"].inputs():
            shutil.copy(fused_out / rel, out / rel)
        path = out / "poses_train.csv"
        rows = path.read_text().splitlines(keepends=True)
        if how == "cut":  # the file ends inside row 4, after its x
            rows[3:] = [",".join(rows[3].split(",")[:2])]
        else:
            fields = rows[2].rstrip("\n").split(",")
            fields[1 if how == "nan" else 4] = how
            rows[2] = ",".join(fields) + "\n"
        path.write_text("".join(rows))
        where = self.CASES[how]
        with pytest.raises(InputError, match=re.escape(where)):
            formats.read_csv(path, pipeline.POSE_COLUMNS)
        rc = cli.main(["--config", str(cfg_path), "--out", str(out), "fuse"])
        assert rc == cli.EXIT_ERROR
        assert f"{path}{where}" in capsys.readouterr().err
        assert not (out / "fused.csv").exists()

    def test_written_file_reads_back(self, gate9_fused_run):
        _, out = gate9_fused_run
        truth = formats.read_csv(out / "poses_train.csv",
                                 pipeline.POSE_COLUMNS)
        rows = np.loadtxt(out / "poses_train.csv", delimiter=",",
                          skiprows=1, usecols=range(4))
        np.testing.assert_array_equal(truth[:, :4], rows)


class TestWorldReader:
    @staticmethod
    def check_edit_exits_1(tmp_path, capsys, key, value, error):
        """world_train.json with key set to value fails load_world and
        propagate with error after its path, before propagate writes."""
        out = str(tmp_path / "run")
        write_train_fixture(out, pipeline.resolve_config(SMALL_TRAIN), 2)
        path = os.path.join(out, "world_train.json")
        with open(path) as f:
            meta = json.load(f)
        meta[key] = value
        with open(path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(InputError, match=re.escape(error)):
            simworld.load_world(path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_TRAIN))
        rc = cli.main(["--config", str(cfg_path), "--out", out, "propagate"])
        assert rc == cli.EXIT_ERROR
        assert f"{path}: {error}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out,
                                               "propagation_report.json"))

    @pytest.mark.parametrize("cell_size", [0, -0.4, None, "0.4"])
    def test_bad_cell_size_exits_1(self, tmp_path, capsys, cell_size):
        self.check_edit_exits_1(tmp_path, capsys, "cell_size", cell_size,
                                "cell_size must be a positive number")

    @pytest.mark.parametrize("key, value, shape", [
        ("grid_height", 63, (63, 64)), ("grid_width", 128, (64, 128)),
        ("grid_width", "64", (64, "64"))],
        ids=["height", "width", "width-text"])
    def test_grid_size_not_the_pgm_shape_exits_1(self, tmp_path, capsys,
                                                  key, value, shape):
        self.check_edit_exits_1(
            tmp_path, capsys, key, value,
            f"grid_height, grid_width {shape} do not match the (64, 64) "
            f"grid of")

    @pytest.mark.parametrize("damage, error", [
        ("truncated", "not JSON text"), ("no-paths", "no key 'paths'"),
        ("paths-5", "paths must be a list, got 5"),
        ("vertex-text", "vertices must be [x, y] pairs of finite numbers")])
    def test_unreadable_world_exits_1_naming_file_and_key(self, tmp_path,
                                                          capsys, damage,
                                                          error):
        out = str(tmp_path / "run")
        write_train_fixture(out, pipeline.resolve_config(SMALL_TRAIN), 2)
        path = os.path.join(out, "world_train.json")
        with open(path) as f:
            text = f.read()
        if damage == "truncated":
            text = text[:len(text) // 2]
        else:
            meta = json.loads(text)
            if damage == "no-paths":
                del meta["paths"]
            elif damage == "paths-5":
                meta["paths"] = 5
            else:
                meta["paths"][0]["vertices"][1] = [1, "a"]
            text = json.dumps(meta)
        with open(path, "w") as f:
            f.write(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_TRAIN))
        rc = cli.main(["--config", str(cfg_path), "--out", out, "propagate"])
        assert rc == cli.EXIT_ERROR
        where = f"{path} path 0" if damage == "vertex-text" else path
        assert f"{where}: {error}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "masks_propagated"))


class TestConfigFile:
    @pytest.mark.parametrize("text, error", [
        ('{"seed": 3', "not JSON text"), ("[1, 2]", "not a JSON object"),
        (b'{"seed": 3}\xff', "not JSON text")],
        ids=["truncated", "list", "not-utf8"])
    def test_unreadable_config_exits_1_naming_it(self, tmp_path, capsys,
                                                 text, error):
        path = tmp_path / "cfg.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out = tmp_path / "run"
        rc = cli.main(["--config", str(path), "--out", str(out), "fuse"])
        assert rc == cli.EXIT_ERROR
        assert f"{path}: {error}" in capsys.readouterr().err
        assert not out.exists()
