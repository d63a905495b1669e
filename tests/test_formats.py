import numpy as np
import pytest

from radroute import formats


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
