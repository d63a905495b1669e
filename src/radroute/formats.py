"""Small binary/text format helpers: PGM, PPM, WAV, CSV streams."""

import json
import re
import wave

import numpy as np


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


def write_wav(path, samples: np.ndarray, sample_rate: float):
    """Mono PCM-16 WAV."""
    pcm = np.clip(np.asarray(samples), -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(round(sample_rate)))
        w.writeframes(pcm.tobytes())


def read_wav(path):
    """Returns (samples in [-1, 1] float64, sample_rate).

    A file cut short in its header or its sample data raises ValueError.
    """
    try:
        w = wave.open(str(path), "rb")
    except (EOFError, wave.Error) as exc:
        raise ValueError(f"truncated or malformed WAV header in {path}: "
                         f"{exc or 'unexpected end of file'}") from exc
    with w:
        if w.getnchannels() != 1 or w.getsampwidth() != 2:
            raise ValueError("expected mono PCM-16 WAV")
        rate = w.getframerate()
        n_frames = w.getnframes()
        raw = w.readframes(n_frames)
    if len(raw) != 2 * n_frames:
        raise ValueError(f"truncated WAV file {path}: header declares "
                         f"{n_frames} frames, data holds {len(raw) // 2}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return samples, float(rate)


def read_exact(f, n: int, what: str) -> bytes:
    """n bytes from a binary file, or ValueError("truncated <what> ...")."""
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated {what}: wanted {n} bytes at offset "
                         f"{f.tell() - len(data)}, got {len(data)}")
    return data


def write_csv(path, header: str, rows: np.ndarray, fmt: str = "%.9f"):
    np.savetxt(path, rows, delimiter=",", header=header, comments="",
               fmt=fmt)


def read_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
