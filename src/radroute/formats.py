"""Small binary/text format helpers: PGM, PPM, WAV, CSV streams."""

import json
import os
import re
import wave

import numpy as np

WAV_CHUNK = 1 << 16  # samples quantized and written per write_wav step


def write_pgm(path, image: np.ndarray):
    """8-bit binary PGM (P5)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    if image.dtype != np.uint8:
        raise ValueError("PGM image must be uint8")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_pgm(path) -> np.ndarray:
    """8-bit binary PGM (P5, no comments): exactly W·H pixel bytes follow
    the single whitespace byte after maxval."""
    with open(path, "rb") as f:
        data = f.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise ValueError(f"truncated or malformed PGM header in {path}")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    pixels = data[header.end():]
    if len(pixels) != w * h:
        what = "truncated" if len(pixels) < w * h else "overlong"
        raise ValueError(f"{what} PGM file {path}: header declares {w}x{h} "
                         f"pixels, data holds {len(pixels)} bytes")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def write_ppm(path, image: np.ndarray):
    """8-bit binary PPM (P6), image shaped (H, W, 3)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("PPM image must be uint8 (H, W, 3)")
    h, w, _ = image.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def db_image_to_pgm(path, values: np.ndarray):
    """TimeFrequencyImage values (dB) to PGM with an affine dB->gray mapping,
    gray = round((db - lo) / (hi - lo) * 255)."""
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.round((values - lo) / span * 255.0).astype(np.uint8)
    write_pgm(path, gray)


def write_json(path, obj):
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_wav(path, samples, sample_rate: float):
    """Mono PCM-16 WAV from an array or an iterable of arrays (each
    flattened), quantized and written WAV_CHUNK samples at a time. A
    non-finite sample raises ValueError naming the file, and removes it."""
    blocks = [samples] if isinstance(samples, np.ndarray) else samples
    try:
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(int(round(sample_rate)))
            for block in blocks:
                flat = np.ravel(block)
                for start in range(0, len(flat), WAV_CHUNK):
                    chunk = flat[start:start + WAV_CHUNK]
                    if not np.isfinite(chunk).all():
                        raise ValueError(f"non-finite sample in WAV data "
                                         f"for {path}")
                    pcm = np.round(np.clip(chunk, -1.0, 1.0) * 32767.0)
                    w.writeframesraw(pcm.astype("<i2").tobytes())
    except ValueError:
        os.remove(path)
        raise


class WavReader:
    """A mono PCM-16 WAV file open for reading in blocks.

    Opening checks the header, and that the sample data it declares fits
    in the file, before anything is read: a file cut short or malformed
    raises ValueError naming it.
    """

    def __init__(self, path):
        self._file = open(path, "rb")
        try:
            self._open(path)
        except BaseException:
            self._file.close()
            raise

    def _open(self, path):
        try:
            w = self._wave = wave.open(self._file)
        except (EOFError, RuntimeError, wave.Error) as exc:
            # RuntimeError: a chunk declares more bytes than follow it
            raise ValueError(f"truncated or malformed WAV header in {path}: "
                             f"{exc or 'unexpected end of file'}") from exc
        if w.getnchannels() != 1 or w.getsampwidth() != 2:
            raise ValueError(f"expected mono PCM-16 WAV in {path}")
        self.sample_rate = float(w.getframerate())
        if self.sample_rate < 1:
            raise ValueError(f"WAV file {path} declares sample rate "
                             f"{self.sample_rate}")
        self.n_frames = w.getnframes()
        # wave.open leaves the file at the first sample
        held = (os.fstat(self._file.fileno()).st_size - self._file.tell()) // 2
        if self.n_frames > held:
            raise ValueError(f"truncated WAV file {path}: header declares "
                             f"{self.n_frames} frames, data holds {held}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def blocks(self, frames: int):
        """Samples in [-1, 1] float64, `frames` at a time; the last block
        holds the rest."""
        for start in range(0, self.n_frames, frames):
            raw = self._wave.readframes(min(frames, self.n_frames - start))
            yield np.frombuffer(raw, dtype="<i2") / 32767.0


def read_wav(path):
    """Returns (samples in [-1, 1] float64, sample_rate): WavReader's
    one-block read."""
    with WavReader(path) as wav:
        samples = next(wav.blocks(max(wav.n_frames, 1)), np.empty(0))
    return samples, wav.sample_rate


def read_exact(f, n: int, what: str) -> bytes:
    """n bytes from a binary file, or ValueError("truncated <what> ...")
    before anything is read if the file holds fewer."""
    at = f.tell()
    left = os.fstat(f.fileno()).st_size - at
    if n > left:
        raise ValueError(f"truncated {what}: wanted {n} bytes at offset "
                         f"{at}, got {max(left, 0)}")
    return f.read(n)


def write_csv(path, header: str, rows: np.ndarray, fmt: str = "%.9f"):
    np.savetxt(path, rows, delimiter=",", header=header, comments="",
               fmt=fmt)


def read_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
