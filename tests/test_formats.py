import json
import os

import numpy as np
import pytest

from radroute import cli, formats, pipeline
from test_cli import SMALL_TRAIN, write_train_fixture


def wav_bytes(tmp_path, n=100):
    path = tmp_path / "full.wav"
    formats.write_wav(path, np.linspace(-0.5, 0.5, n), 8000.0)
    return path.read_bytes()


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
