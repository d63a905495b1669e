import contextlib
import os
import tracemalloc

import numpy as np
import pytest

from radroute import audio, dsp, formats, numeric, pipeline
from radroute.audio import (AudioDataset, TrainConfig, build_datasets,
                            build_model, classify_stream, extract_features,
                            train_classifier)
from radroute.dsp import AudioClip, GammatoneFilterbank, StftConfig
from radroute.errors import NumericError, ShapeError
from radroute.simworld import TerrainClass, synth_audio
from test_numeric import cached_arrays

from oracles import gammatonegram_fast, mel_spectrogram, spectrogram

# the framing of the default config: 10 ms Hamming frames at 44.1 kHz
DEFAULT_STFT = pipeline.stft_config(pipeline.DEFAULT_CONFIG)


def clips(terrain, n, seed0=0, duration=0.5):
    return [synth_audio(terrain, duration, 44100.0, seed0 + i)
            for i in range(n)]


class ClipStream:
    """An AudioClip read as build_datasets and classify_stream read a
    formats.WavReader; it can be read more than once."""

    def __init__(self, clip):
        self.samples, self.sample_rate = clip.samples, clip.sample_rate
        self.n_frames = len(clip.samples)

    def blocks(self, frames):
        for start in range(0, len(self.samples), frames):
            yield self.samples[start:start + frames]


def streams(terrain, n, seed0=0, duration=0.5):
    return [ClipStream(clip) for clip in clips(terrain, n, seed0, duration)]


def two_class_dataset(n=3, representation="spectrogram"):
    return build_datasets(
        {TerrainClass.GRASS: streams(TerrainClass.GRASS, n),
         TerrainClass.GRAVEL: streams(TerrainClass.GRAVEL, n, seed0=100)},
        0, DEFAULT_STFT)[representation]


def write_recordings(out, per_class, duration):
    """per_class recordings of each terrain under out/audio, named as
    simulate names them."""
    os.makedirs(out / "audio")
    for terrain in TerrainClass:
        for i, clip in enumerate(clips(terrain, per_class, seed0=10 * terrain,
                                       duration=duration)):
            formats.write_wav(
                out / "audio" / f"{terrain.name.lower()}_{i}.wav",
                clip.samples, clip.sample_rate)


def stream_images(clip, representation, cfg=DEFAULT_STFT):
    """The images audio._block_images gives of clip, one row a window."""
    return np.concatenate([block[representation] for block in
                           audio._block_images(ClipStream(clip),
                                               (representation,), cfg)])


class TestSliceClip:
    """The 0.5 s windows that build_datasets and classify_stream cut from
    a stream."""

    def test_window_count_for_recording_session(self):
        # 15 min per class from each of 2 microphones at 0.5 s windows
        fs = 1000.0
        recording = AudioClip(np.zeros(int(900 * fs)), fs)
        per_mic = len(stream_images(recording, "spectrogram"))
        assert per_mic == 1800
        assert 2 * per_mic == 3600  # per class, both microphones

    def test_partial_window_dropped(self):
        clip = AudioClip(np.zeros(22050 + 11025), 44100.0)
        assert len(stream_images(clip, "spectrogram")) == 1
        ds = build_datasets({TerrainClass.GRASS: [ClipStream(clip)],
                             TerrainClass.GRAVEL: [ClipStream(clip)]},
                            0, DEFAULT_STFT)["spectrogram"]
        assert len(ds) == 2 and ds.skipped_short == 0

    def test_windows_are_consecutive(self):
        # 66 windows: a block edge at 64, then a trailing partial window
        clip = synth_audio(TerrainClass.GRAVEL, 33.3, 44100.0, 7)
        windows = clip.samples[:66 * 22050].reshape(66, 22050)
        assert audio.WINDOW_BLOCK == 64
        for rep in audio.REPRESENTATIONS:
            want = np.concatenate([audio.window_features(
                windows[i:i + 1], 44100.0, (rep,), DEFAULT_STFT)[rep]
                for i in range(66)])
            assert np.array_equal(stream_images(clip, rep),
                                  want.astype(np.float32)), rep


class TestBuildDataset:
    def test_shapes_and_balance(self):
        ds = two_class_dataset(n=3)
        assert len(ds) == 6
        assert ds.images.shape == (6, 221, 50, 1)
        assert ds.input_shape == (1, 221, 50)
        counts = np.bincount(ds.labels)
        assert counts[int(TerrainClass.GRASS)] == 3
        assert counts[int(TerrainClass.GRAVEL)] == 3

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            build_datasets({TerrainClass.GRASS:
                            streams(TerrainClass.GRASS, 2)}, 0, DEFAULT_STFT)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_datasets({}, 0, DEFAULT_STFT)

    def test_short_clips_counted(self):
        short = ClipStream(AudioClip(np.zeros(1000), 44100.0))
        ds = build_datasets(
            {TerrainClass.GRASS: streams(TerrainClass.GRASS, 2) + [short],
             TerrainClass.GRAVEL: streams(TerrainClass.GRAVEL, 2)},
            0, DEFAULT_STFT)["spectrogram"]
        assert ds.skipped_short == 1
        assert len(ds) == 4

    def test_deterministic_order(self):
        a = two_class_dataset()
        b = two_class_dataset()
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.images, b.images)

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            extract_features(clips(TerrainClass.GRASS, 1)[0], "cepstrum",
                             DEFAULT_STFT)


class TestFeatures:
    def test_standardized(self):
        img = extract_features(clips(TerrainClass.GRAVEL, 1)[0], "mel",
                               DEFAULT_STFT)
        assert abs(img.mean()) < 1e-9
        assert abs(img.std() - 1.0) < 1e-9

    def test_gain_invariance(self):
        clip = clips(TerrainClass.GRASS, 1)[0]
        half = AudioClip(clip.samples * 0.5, clip.sample_rate)
        a = extract_features(clip, "spectrogram", DEFAULT_STFT)
        b = extract_features(half, "spectrogram", DEFAULT_STFT)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_representation_shapes(self):
        clip = clips(TerrainClass.GRASS, 1)[0]
        for rep, shape in (("spectrogram", (221, 50)), ("mel", (64, 50)),
                           ("gammatone", (32, 50))):
            assert extract_features(clip, rep, DEFAULT_STFT).shape == shape


def oracle_image(clip, representation, cfg):
    """standardize() of the per-clip dsp function's image."""
    if representation == "spectrogram":
        image = spectrogram(clip, cfg)
    elif representation == "mel":
        image = mel_spectrogram(clip, cfg, audio.N_MEL_CHANNELS)
    else:
        fb = GammatoneFilterbank.design(audio.N_GAMMATONE_CHANNELS,
                                        clip.sample_rate)
        image = gammatonegram_fast(clip, fb, cfg)
    return audio.standardize(image.values)


class TestBatchedFeatures:
    # 33.3 s: 66 windows and a trailing partial window
    @pytest.fixture(scope="class")
    def recording(self):
        return synth_audio(TerrainClass.GRAVEL, 33.3, 44100.0, 7)

    @pytest.mark.parametrize("cfg", [
        DEFAULT_STFT, StftConfig(frame_len=441, hop=220, fft_size=512)],
        ids=["default", "hop220-fft512"])
    def test_matches_per_clip_oracles(self, recording, cfg):
        windows = recording.samples[:66 * 22050].reshape(66, 22050)
        for start in range(0, 66, audio.WINDOW_BLOCK):
            block = windows[start:start + audio.WINDOW_BLOCK]
            images = audio.window_features(block, recording.sample_rate,
                                           audio.REPRESENTATIONS, cfg)
            for rep in audio.REPRESENTATIONS:
                assert images[rep].shape[0] == len(block)
                assert images[rep].dtype == np.float64
                worst = max(np.abs(images[rep][i] - oracle_image(
                    AudioClip(w, 44100.0), rep, cfg)).max()
                    for i, w in enumerate(block))
                assert worst <= 1e-12, rep

    def test_whole_clip_matches_oracle(self):
        clip = synth_audio(TerrainClass.ASPHALT, 1.3, 44100.0, 2)
        cfg = StftConfig(frame_len=441, hop=220, fft_size=512)
        for rep in audio.REPRESENTATIONS:
            got = extract_features(clip, rep, cfg)
            assert np.abs(got - oracle_image(clip, rep, cfg)).max() <= 1e-12

    def test_all_representations_match_single(self, monkeypatch):
        data = {TerrainClass.GRASS: streams(TerrainClass.GRASS, 2),
                TerrainClass.GRAVEL: streams(TerrainClass.GRAVEL, 2, seed0=9)}
        shared = audio.build_datasets(data, 5, DEFAULT_STFT)
        for rep in shared:
            monkeypatch.setattr(audio, "REPRESENTATIONS", (rep,))
            single = build_datasets(data, 5, DEFAULT_STFT)[rep]
            np.testing.assert_array_equal(shared[rep].images, single.images)
            np.testing.assert_array_equal(shared[rep].labels, single.labels)

    def test_short_clip_skipped_in_every_dataset(self):
        short = ClipStream(AudioClip(np.zeros(1000), 44100.0))
        datasets = audio.build_datasets(
            {TerrainClass.GRASS: streams(TerrainClass.GRASS, 2) + [short],
             TerrainClass.GRAVEL: streams(TerrainClass.GRAVEL, 2)},
            0, DEFAULT_STFT)
        for ds in datasets.values():
            assert ds.skipped_short == 1
            assert len(ds) == 4

    def test_mixed_sample_rates_rejected(self):
        with pytest.raises(ValueError, match="sample rates"):
            audio.build_datasets(
                {TerrainClass.GRASS: streams(TerrainClass.GRASS, 1),
                 TerrainClass.GRAVEL: [ClipStream(AudioClip(np.ones(8000),
                                                            8000.0))]},
                0, DEFAULT_STFT)

    def test_filterbanks_built_once_per_train_audio(self, tmp_path,
                                                    monkeypatch):
        write_recordings(tmp_path, 2, 2.0)
        # eval-audio's inputs: a 2 s traverse at the recordings' rate
        [traverse] = clips(TerrainClass.GRASS, 1, duration=2.0)
        formats.write_wav(tmp_path / "traverse_audio.wav", traverse.samples,
                          traverse.sample_rate)
        formats.write_csv(tmp_path / "poses_train.csv", pipeline.POSE_COLUMNS,
                          np.column_stack([np.arange(3.0), np.zeros((3, 4))]))
        audio._filter_weights.cache_clear()
        calls = {"mel_filterbank": 0, "gammatone_weights": 0}
        for name in calls:
            original = getattr(dsp, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(dsp, name, counted)
        cfg = pipeline.resolve_config({"audio": {"epochs": 1, "trials": 1}})
        pipeline.run_train_audio(cfg, str(tmp_path))
        assert calls == {"mel_filterbank": 1, "gammatone_weights": 1}
        # the model's zero window and the stream reuse train-audio's banks
        assert pipeline.run_eval_audio(cfg, str(tmp_path))[
            "n_predictions"] == 4
        assert calls == {"mel_filterbank": 1, "gammatone_weights": 1}

    def test_cached_filterbanks_are_read_only(self):
        for rep in ("mel", "gammatone"):
            weights, _ = audio._filter_weights(rep, 44100.0, 441)
            assert audio._filter_weights(rep, 44100.0, 441)[0] is weights
            with pytest.raises(ValueError, match="read-only"):
                weights[0, 0] = 1.0


class TestDatasetMemory:
    def test_traced_peak_is_the_datasets_and_one_block(self, tmp_path):
        # 140 windows per recording: blocks of 64, 64 and 12. Each block's
        # samples, frames, spectrum and power come and go (about 4.1 blocks
        # of float64 samples); no recording is held whole, and no image is
        # held twice
        write_recordings(tmp_path, 1, 70.0)
        block = audio.WINDOW_BLOCK * 22050 * 8
        with contextlib.ExitStack() as stack:
            recordings = pipeline._class_recordings(str(tmp_path), stack)
            tracemalloc.start()
            try:
                datasets = build_datasets(recordings, 0, DEFAULT_STFT)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        held = sum(ds.images.nbytes for ds in datasets.values())
        assert len(datasets["mel"]) == 420
        assert peak <= held + 5 * block, (
            f"{(peak - held) / block:.2f} blocks beyond the datasets")


class TestTraining:
    def test_learns_two_easy_classes(self):
        train = two_class_dataset(n=8)
        test = build_datasets(
            {TerrainClass.GRASS: streams(TerrainClass.GRASS, 3, seed0=500),
             TerrainClass.GRAVEL: streams(TerrainClass.GRAVEL, 3, seed0=600)},
            0, DEFAULT_STFT)["spectrogram"]
        model, log = train_classifier(
            train, np.arange(len(train)),
            TrainConfig(learning_rate=0.02, batch_size=16, epochs=4, seed=0))
        assert len(log.epoch_loss) == 4
        report = audio.evaluate(model, test, np.arange(len(test)))
        assert report["accuracy"] >= 0.9
        assert report["confusion"].sum() == len(test)

    def test_single_sample_overfits(self):
        ds = two_class_dataset(n=1)
        one = AudioDataset(images=ds.images[:1], labels=ds.labels[:1],
                           representation=ds.representation, skipped_short=0)
        model, log = train_classifier(
            one, np.arange(1),
            TrainConfig(learning_rate=0.1, batch_size=1, epochs=30, seed=0))
        assert log.epoch_accuracy[-1] == 1.0

    def test_deterministic(self):
        ds = two_class_dataset(n=2)
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, epochs=1, seed=0)
        m1, _ = train_classifier(ds, np.arange(len(ds)), cfg)
        m2, _ = train_classifier(ds, np.arange(len(ds)), cfg)
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1, p2)

    def test_divergence_reported(self):
        ds = two_class_dataset(n=2)
        ds.images[0, 0, 0, 0] = np.nan  # poisons the loss on batch one
        with pytest.raises(NumericError):
            train_classifier(ds, np.arange(len(ds)),
                             TrainConfig(learning_rate=0.02,
                                         batch_size=len(ds), epochs=1,
                                         seed=0))


class TestFloat32:
    def test_dataset_images_are_float32(self):
        assert two_class_dataset(n=1).images.dtype == np.float32

    def test_float32_pass_stays_float32(self):
        rng = np.random.default_rng(3)
        model = build_model((1, 32, 50), rng=rng)
        x = rng.normal(size=(4, 32, 50, 1)).astype(np.float32)
        probs = model.forward(x)
        _, grad = numeric.cross_entropy(probs, audio.one_hot(
            np.array([0, 1, 2, 0])))
        assert probs.dtype == np.float32 and grad.dtype == np.float32
        for layer in reversed(model.layers):
            grad = layer.backward(grad)
            assert grad.dtype == np.float32
        convs = [layer for layer in model.layers
                 if isinstance(layer, numeric.Conv2d)]
        # the first conv runs im2col, the others the kernel-row panel
        assert [c.in_channels == 1 for c in convs] == [True, False, False]
        for layer in convs:
            cached = cached_arrays(layer)
            assert cached and all(a.dtype == np.float32 for a in cached)
        assert all(g.dtype == np.float64 for g in model.grads)

    def test_matches_float64_pass(self):
        rng = np.random.default_rng(4)
        model = build_model((1, 32, 50), rng=rng)
        x = rng.normal(size=(4, 32, 50, 1))
        p64 = model.forward(x)
        p32 = model.forward(x.astype(np.float32))
        assert np.abs(p32 - p64).max() < 1e-5


@pytest.fixture(scope="module")
def model():
    ds = two_class_dataset(n=4)
    trained, _ = train_classifier(
        ds, np.arange(len(ds)),
        TrainConfig(learning_rate=0.02, batch_size=16, epochs=2, seed=0))
    return trained


class TestPredictAndStream:
    def test_probabilities_sum_to_one(self, model):
        clip = clips(TerrainClass.GRASS, 1)[0]
        [pred] = classify_stream(model, ClipStream(clip), "spectrogram",
                                 DEFAULT_STFT)
        assert abs(pred.probabilities.sum() - 1.0) < 1e-9
        assert pred.terrain == int(np.argmax(pred.probabilities))

    def test_gain_invariant_class(self, model):
        clip = clips(TerrainClass.GRAVEL, 1)[0]
        half = AudioClip(clip.samples * 0.5, clip.sample_rate)
        [a] = classify_stream(model, ClipStream(clip), "spectrogram",
                              DEFAULT_STFT)
        [b] = classify_stream(model, ClipStream(half), "spectrogram",
                              DEFAULT_STFT)
        assert a.terrain == b.terrain

    def test_stream_rate_and_timestamps(self, model):
        stream = synth_audio(TerrainClass.GRASS, 10.0, 44100.0, 0)
        preds = classify_stream(model, ClipStream(stream), "spectrogram",
                                DEFAULT_STFT)
        assert len(preds) == 20
        times = [p.timestamp for p in preds]
        np.testing.assert_allclose(times, (np.arange(20) + 0.5) * 0.5,
                                   atol=1e-12)

    def test_stream_too_short(self, model):
        with pytest.raises(ValueError):
            classify_stream(model,
                            ClipStream(AudioClip(np.zeros(100), 44100.0)),
                            "spectrogram", DEFAULT_STFT)

    def test_channel_first_rejected(self, model):
        clip = clips(TerrainClass.GRASS, 1)[0]
        images = audio.window_features(clip.samples[None], clip.sample_rate,
                                       ("spectrogram",),
                                       DEFAULT_STFT)["spectrogram"]
        model.forward(images[..., None])
        with pytest.raises(ShapeError):
            model.forward(images[:, None])


class StubModel:
    """Replays a fixed probability row per sample, in dataset order."""

    def __init__(self, probs):
        self.probs = probs
        self.cursor = 0

    def forward(self, x):
        out = self.probs[self.cursor:self.cursor + len(x)]
        self.cursor += len(x)
        return out


class TestEvaluate:
    def dataset(self, labels):
        labels = np.asarray(labels)
        return AudioDataset(images=np.zeros((len(labels), 4, 4, 1)),
                            labels=labels, representation="mel",
                            skipped_short=0)

    def test_all_correct(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = audio.evaluate(StubModel(np.eye(3)[labels]),
                                self.dataset(labels), np.arange(6))
        assert report["accuracy"] == 1.0
        assert np.trace(report["confusion"]) == 6

    def test_cyclic_shift_all_wrong(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = audio.evaluate(StubModel(np.eye(3)[(labels + 1) % 3]),
                                self.dataset(labels), np.arange(6))
        assert report["accuracy"] == 0.0
        assert np.trace(report["confusion"]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            audio.evaluate(StubModel(np.zeros((0, 3))), self.dataset([]),
                           np.arange(0))


class TestModelIo:
    @pytest.mark.parametrize("shape", [(1, 32, 50), (1, 221, 50),
                                       (2, 17, 9)])
    def test_header_shapes_are_the_built_model(self, shape):
        # audio.load_model checks a file against these before building
        assert audio._param_shapes(*shape) == [
            (name, p.shape) for name, p in
            numeric.named_params(build_model(shape).layers)]

    def test_roundtrip(self, tmp_path):
        ds = two_class_dataset(n=2)
        model, _ = train_classifier(
            ds, np.arange(len(ds)),
            TrainConfig(learning_rate=0.02, batch_size=16, epochs=1, seed=0))
        audio.save_model(tmp_path / "m.kowt", tmp_path / "m.json", model,
                         "spectrogram", DEFAULT_STFT)
        fresh = audio.load_model(tmp_path / "m.kowt", ds.input_shape)
        x = ds.images[:2]
        np.testing.assert_array_equal(fresh.forward(x), model.forward(x))
        import json
        header = json.loads((tmp_path / "m.json").read_text())
        assert header["representation"] == "spectrogram"
        assert header["class_order"] == ["grass", "gravel", "asphalt"]
        assert header["dsp"] == {"frame_len": 441, "hop": 441,
                                 "fft_size": 441}
        assert "input_shape" not in header

    def test_weights_of_relu_before_pool_order_load(self, tmp_path):
        # the network once ran conv -> relu -> maxpool per block; its
        # .kowt files keep loading, into the same names and shapes, and
        # classify alike, since max and ReLU commute
        shape = (1, 221, 50)  # a spectrogram window
        model = build_model(shape, rng=np.random.default_rng(6))
        layers = list(model.layers)
        for i in (1, 4, 7):
            assert isinstance(layers[i], numeric.MaxPool2d)
            assert isinstance(layers[i + 1], numeric.ReLU)
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
        old = numeric.Sequential(layers)
        names = [(name, p.shape)
                 for name, p in numeric.named_params(old.layers)]
        assert names == [
            ("layer0.p0", (4, 1, 3, 3)), ("layer0.p1", (4,)),
            ("layer3.p0", (8, 4, 3, 3)), ("layer3.p1", (8,)),
            ("layer6.p0", (8, 8, 3, 3)), ("layer6.p1", (8,)),
            ("layer10.p0", (8 * 27 * 6, 3)), ("layer10.p1", (3,))]
        numeric.save_weights(tmp_path / "old.kowt",
                             numeric.named_params(old.layers))
        fresh = audio.load_model(tmp_path / "old.kowt", shape)
        x = np.random.default_rng(8).normal(size=(4, 221, 50, 1)).astype(
            np.float32)
        np.testing.assert_array_equal(fresh.forward(x), old.forward(x))

    def test_predictions_csv(self, tmp_path):
        formats.write_csv(tmp_path / "p.csv", pipeline.PREDICTION_COLUMNS,
                          [(0.25, 1, 0.1, 0.8, 0.1)])
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "timestamp,class,p_grass,p_gravel,p_asphalt"
        assert lines[1] == "0.250000,gravel,0.100000,0.800000,0.100000"
