import json
import os
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import radroute
from radroute import (audio, canvas, cli, formats, pipeline, segmentation,
                      simworld)
from radroute.errors import ConfigurationError


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
             ({"audio": {"clips_per_class": 0}}, "audio.clips_per_class")]

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
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
                                 "probability_threshold": 0.01},
                "canvas": {"image_size": 2},
                "eval": {"min_iou": 1.01, "min_pixel_accuracy": -1.0}}
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

    def test_audio_stages_follow_hop(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.GATE9, "dsp": {"hop": 220}}))
        out = tmp_path / "run"
        for stage in ("simulate", "train-audio", "eval-audio"):
            rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                           stage])
            assert rc == cli.EXIT_OK, stage
        header = json.loads((out / "audio_model.json").read_text())
        assert header["input_shape"] == [1, 32, 99]
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
    def test_matches_dataset_train_audio_builds(self, gate9_audio_run):
        cfg, _, out = gate9_audio_run
        datasets = audio.build_datasets(
            pipeline._class_recordings(str(out)), ("gammatone",),
            cfg=pipeline.stft_config(cfg))
        assert len(datasets["gammatone"]) == pipeline.audio_window_count(
            cfg) == 120


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
        monkeypatch.setattr(pipeline, "_load_masks", lambda out, sub: [None])
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
        scan = simworld.synth_radar(world, pose, sc, seed)
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
    sc = pipeline.sim_config(cfg)
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
            simworld.synth_radar(world, pose, sc, seed + i))
    size = cfg["canvas"]["image_size"]
    for i in range(n_masks):
        formats.write_pgm(
            os.path.join(out, "masks_initial", f"mask_{i:03d}.pgm"),
            canvas.mask_to_pgm_values(np.zeros((size, size), np.uint8)))
    scfg = cfg["segmentation"]
    segmentation.save_unet(
        os.path.join(out, "seg_stage1.kowt"),
        os.path.join(out, "seg_stage1.json"),
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
        os.remove(os.path.join(out, "seg_stage1.json"))
        rc = cli.main(["--out", out, "propagate"])
        assert rc == cli.EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert "missing input for propagate: " in err
        assert "seg_stage1.json" in err
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
