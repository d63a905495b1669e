import json
import os
import wave

import numpy as np
import pytest

from radroute import cli, formats, pipeline
from test_cli import SMALL_TRAIN, write_train_fixture


def wav_bytes(tmp_path, n=100):
    path = tmp_path / "full.wav"
    formats.write_wav(path, np.linspace(-0.5, 0.5, n), 8000.0)
    return path.read_bytes()


class TestWriteCsv:
    def test_bytes_equal_savetxt(self, tmp_path):
        # signed zeros, values that round at the 9th decimal, and
        # magnitudes from 1e-12 to 1e5 of either sign
        rng = np.random.default_rng(24)
        rows = np.concatenate([
            [[0.0, -0.0, 5e-10, -1.5e-9]],
            rng.choice([-1.0, 1.0], (2000, 4))
            * 10.0 ** rng.uniform(-12, 5, (2000, 4))])
        formats.write_csv(tmp_path / "a.csv",
                          [(name, ".9f") for name in "wxyz"], rows)
        np.savetxt(tmp_path / "b.csv", rows, delimiter=",", header="w,x,y,z",
                   comments="", fmt="%.9f")
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())


class TestReadWav:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.wav"
        samples = np.array([0.0, 0.5, -0.5, 1.0])
        formats.write_wav(path, samples, 8000.0)
        got, rate = formats.read_wav(path)
        assert rate == 8000.0
        np.testing.assert_allclose(got, samples, atol=1.0 / 32767)

    @pytest.mark.parametrize("keep", [0, 6, 10, 20, 40])
    def test_truncated_header_rejected(self, tmp_path, keep):
        path = tmp_path / "cut.wav"
        path.write_bytes(wav_bytes(tmp_path)[:keep])
        with pytest.raises(ValueError, match="truncated"):
            formats.read_wav(path)

    @pytest.mark.parametrize("drop", [1, 2, 100])
    def test_truncated_payload_rejected(self, tmp_path, drop):
        path = tmp_path / "cut.wav"
        path.write_bytes(wav_bytes(tmp_path)[:-drop])
        with pytest.raises(ValueError, match="truncated WAV file"):
            formats.read_wav(path)

    def test_riff_chunk_ending_inside_the_data_rejected(self, tmp_path):
        # wave reads no byte past the RIFF chunk, so a RIFF size 128 short
        # loaded 36 of the 100 samples the data chunk declares
        path = tmp_path / "short_riff.wav"
        raw = bytearray(wav_bytes(tmp_path))
        raw[4] ^= 0x80
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="header declares 100 frames, "
                                             "data holds 36"):
            formats.read_wav(path)


class TestWavReader:
    @staticmethod
    def write(tmp_path, n=1000):
        path = tmp_path / "a.wav"
        formats.write_wav(path, np.random.default_rng(n).uniform(-1, 1, n),
                          8000.0)
        return path

    @pytest.mark.parametrize("frames", [1, 7, 999, 1000, 1001])
    def test_blocks_concatenate_to_whole_read(self, tmp_path, frames):
        path = self.write(tmp_path)
        whole, rate = formats.read_wav(path)
        with formats.WavReader(path) as wav:
            assert (wav.sample_rate, wav.n_frames) == (8000, 1000)
            blocks = list(wav.blocks(frames))
        assert [len(b) for b in blocks[:-1]] == [frames] * (len(blocks) - 1)
        np.testing.assert_array_equal(np.concatenate(blocks), whole)
        assert whole.dtype == np.float64 and rate == 8000.0

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.wav"
        formats.write_wav(path, np.zeros(0), 8000.0)
        samples, rate = formats.read_wav(path)
        assert samples.shape == (0,) and rate == 8000.0

    @pytest.mark.parametrize("cut", [250, 1001, 1500])
    def test_payload_cut_mid_block_rejected(self, tmp_path, cut):
        # 44 header bytes, then 2 bytes a frame: blocks of 100 frames are
        # 200 bytes, and every cut falls inside one
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes()[:44 + cut])
        with pytest.raises(ValueError, match="truncated WAV file"):
            with formats.WavReader(path) as wav:
                list(wav.blocks(100))

    @pytest.mark.parametrize("byte", [16, 17, 18, 19])
    def test_format_chunk_larger_than_file_rejected(self, tmp_path, byte):
        # the fmt chunk's declared size; wave itself raises RuntimeError
        raw = bytearray(wav_bytes(tmp_path))
        raw[byte] ^= 0x80
        path = tmp_path / "bad.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="malformed WAV header"):
            formats.read_wav(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        raw = bytearray(wav_bytes(tmp_path))
        raw[24:28] = bytes(4)
        path = tmp_path / "bad.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="sample rate 0"):
            formats.read_wav(path)


def write_wav_oracle(path, samples, sample_rate):
    """The one-shot writer: quantize everything, write once."""
    pcm = np.clip(np.asarray(samples), -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(round(sample_rate)))
        w.writeframes(pcm.tobytes())
    return path.read_bytes()


class TestStreamedWriteWav:
    CHUNK = formats.WAV_CHUNK

    @staticmethod
    def samples(n):
        # beyond [-1, 1] too, so clipping is exercised
        return np.random.default_rng(n).normal(0.0, 0.6, n)

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 17])
    def test_array_matches_one_shot_writer(self, tmp_path, n):
        x = self.samples(n)
        path = tmp_path / "a.wav"
        formats.write_wav(path, x, 44100.0)
        assert path.read_bytes() == write_wav_oracle(tmp_path / "b.wav", x,
                                                     44100.0)

    def test_iterable_of_blocks_matches_one_shot_writer(self, tmp_path):
        x = self.samples(3 * self.CHUNK + 5)
        cuts = [0, 3, 3, self.CHUNK - 2, self.CHUNK + 9, 2 * self.CHUNK,
                len(x)]
        blocks = (x[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
        path = tmp_path / "a.wav"
        formats.write_wav(path, blocks, 22050.0)
        assert path.read_bytes() == write_wav_oracle(tmp_path / "b.wav", x,
                                                     22050.0)

    def test_two_dimensional_blocks_are_flattened_row_major(self, tmp_path):
        x = self.samples(6 * 1000)
        path = tmp_path / "a.wav"
        formats.write_wav(path, iter([x[:4000].reshape(4, 1000),
                                      x[4000:].reshape(2, 1000)]), 8000.0)
        assert path.read_bytes() == write_wav_oracle(tmp_path / "b.wav", x,
                                                     8000.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, CHUNK + 3])
    def test_non_finite_sample_rejected(self, tmp_path, bad, where):
        x = self.samples(2 * self.CHUNK)
        x[where] = bad
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError, match="non-finite.*bad.wav"):
            formats.write_wav(path, iter([x[:5], x[5:]]), 8000.0)
        assert not path.exists()


class TestReadExact:
    def test_short_read_names_what_and_where(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abcdef")
        with open(path, "rb") as f:
            assert formats.read_exact(f, 4, "blob") == b"abcd"
            with pytest.raises(ValueError,
                               match="truncated blob: wanted 4 bytes at "
                                     "offset 4, got 2"):
                formats.read_exact(f, 4, "blob")

    def test_size_checked_before_reading(self, tmp_path):
        # a declared size far beyond the file is refused before the read
        # could allocate it
        path = tmp_path / "blob"
        path.write_bytes(b"abcdef")
        with open(path, "rb") as f:
            with pytest.raises(ValueError, match="wanted 4611686018427387904 "
                                                 "bytes at offset 0, got 6"):
                formats.read_exact(f, 1 << 62, "blob")


def pgm_bytes(tmp_path):
    path = tmp_path / "full.pgm"
    formats.write_pgm(path, np.arange(64, dtype=np.uint8).reshape(8, 8))
    return path.read_bytes()


class TestReadPgm:
    def test_whitespace_and_digit_valued_pixels(self, tmp_path):
        # pixels that look like header bytes: "\n", " ", "\t", "5"
        image = np.full((3, 4), 200, dtype=np.uint8)
        image[0, :4] = [10, 32, 9, 53]
        path = tmp_path / "a.pgm"
        formats.write_pgm(path, image)
        np.testing.assert_array_equal(formats.read_pgm(path), image)

    @pytest.mark.parametrize("keep", [0, 1, 2, 4, 6, 9, 10])
    def test_truncated_header_rejected(self, tmp_path, keep):
        # the header "P5\n8 8\n255\n" is 11 bytes
        path = tmp_path / "cut.pgm"
        path.write_bytes(pgm_bytes(tmp_path)[:keep])
        with pytest.raises(ValueError, match="truncated"):
            formats.read_pgm(path)

    @pytest.mark.parametrize("drop", [1, 10, 64])
    def test_truncated_payload_rejected(self, tmp_path, drop):
        path = tmp_path / "cut.pgm"
        path.write_bytes(pgm_bytes(tmp_path)[:-drop])
        with pytest.raises(ValueError,
                           match=f"truncated PGM file .*holds {64 - drop} "):
            formats.read_pgm(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(pgm_bytes(tmp_path) + b"\0")
        with pytest.raises(ValueError, match="overlong PGM file"):
            formats.read_pgm(path)

    def test_propagate_on_truncated_mask_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        write_train_fixture(out, pipeline.resolve_config(SMALL_TRAIN), 2)
        path = os.path.join(out, "masks_initial", "mask_001.pgm")
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:-10])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_TRAIN))
        rc = cli.main(["--config", str(cfg_path), "--out", out, "propagate"])
        assert rc == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert "truncated PGM file" in err and "mask_001.pgm" in err
        assert not os.path.exists(os.path.join(out, "masks_propagated"))
