"""Seeded reader fuzz: every reader of a binary file the pipeline writes
either loads what the damaged file declares or raises ValueError, and the
reader of its sensor and pose CSV files loads valid rows or raises
InputError.

Each format starts from a small valid file. The cases are that file cut at
every byte, and FLIPS single-bit flips at seeded positions. A binary case
that loads must come back with the shape its own header declares; any
other outcome but ValueError (MemoryError, OverflowError, struct.error, a
bare RuntimeError from `wave`) fails. A CSV case that loads must come back
finite, with the header's columns and increasing timestamps; any other
outcome but InputError fails. The failures are listed together.
"""

import re
import struct

import numpy as np
import pytest

from radroute import canvas, formats, numeric, pipeline
from radroute.errors import InputError

FLIPS = 300


def _wav(path):
    formats.write_wav(path, np.linspace(-0.5, 0.5, 100), 8000.0)
    return lambda p: formats.read_wav(p)[0].shape


def _wav_declared(data):
    # the writer's 44-byte header: the data chunk's byte count at 40
    return (struct.unpack_from("<I", data, 40)[0] // 2,)


def _rds(path):
    canvas.save_polar_scan(path, canvas.PolarScan(
        np.arange(6.0).reshape(3, 2), 0.25, 1.0, np.array([1.0, 2.0, 0.3])))
    return lambda p: canvas.load_polar_scan(p).power.shape


def _rds_declared(data):
    return struct.unpack_from("<II", data, 4)


def _kowt(path):
    numeric.save_weights(path, [("w", np.ones((2, 3))), ("b", np.zeros(2))])
    return lambda p: [t.shape for _, t in numeric.load_weights(p)]


def _kowt_declared(data):
    # magic, version, count, then per tensor: name length, name, rank,
    # shape, float64 values
    (count,), at, shapes = struct.unpack_from("<I", data, 8), 12, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, at)
        (rank,) = struct.unpack_from("<I", data, at + 4 + name_len)
        at += 8 + name_len
        shape = struct.unpack_from(f"<{rank}I", data, at)
        at += 4 * rank + 8 * int(np.prod(shape))
        shapes.append(shape)
    return shapes


def _pgm(path):
    formats.write_pgm(path, np.arange(64, dtype=np.uint8).reshape(8, 8))
    return lambda p: formats.read_pgm(p).shape


def _pgm_declared(data):
    w, h = re.match(rb"P5\s+(\d+)\s+(\d+)", data).groups()
    return int(h), int(w)


FORMATS = {"wav": (_wav, _wav_declared), "rds": (_rds, _rds_declared),
           "kowt": (_kowt, _kowt_declared), "pgm": (_pgm, _pgm_declared)}


def _cases(data: bytes, seed: int):
    for keep in range(len(data)):
        yield f"cut at {keep}", data[:keep]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        pos, bit = int(rng.integers(len(data))), int(rng.integers(8))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        yield f"bit {bit} of byte {pos} flipped", bytes(flipped)


@pytest.mark.parametrize("ext", sorted(FORMATS))
def test_damaged_file_loads_as_declared_or_raises_value_error(tmp_path, ext):
    write, declared = FORMATS[ext]
    valid = tmp_path / f"valid.{ext}"
    shape_of = write(valid)
    path = tmp_path / f"case.{ext}"
    failures = []
    seed = 1400 + sorted(FORMATS).index(ext)
    for what, data in _cases(valid.read_bytes(), seed):
        path.write_bytes(data)
        try:
            shape = shape_of(path)
        except ValueError:
            continue
        except Exception as exc:  # noqa: BLE001 - the failure is the type
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if shape != declared(data):
            failures.append(f"{what}: loaded {shape}, header declares "
                            f"{declared(data)}")
    assert failures == []


CSV_FILES = {"vo.csv": pipeline.VO_COLUMNS, "gps.csv": pipeline.GPS_COLUMNS,
             "fused.csv": pipeline.FUSED_COLUMNS}


@pytest.mark.parametrize("name", sorted(CSV_FILES))
def test_damaged_csv_loads_valid_rows_or_raises_input_error(tmp_path, name):
    columns = CSV_FILES[name]
    rng = np.random.default_rng(1500 + sorted(CSV_FILES).index(name))
    valid = tmp_path / f"valid_{name}"
    formats.write_csv(valid, columns, np.column_stack([
        np.cumsum(rng.uniform(0.1, 1.0, 5)),
        rng.normal(size=(5, len(columns) - 1))]))
    path = tmp_path / name
    failures = []
    for what, data in _cases(valid.read_bytes(), rng.integers(1 << 30)):
        path.write_bytes(data)
        try:
            rows = formats.read_csv(path, columns)
        except InputError:
            continue
        except Exception as exc:  # noqa: BLE001 - the failure is the type
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if not (rows.ndim == 2 and rows.shape[1] == len(columns)
                and np.isfinite(rows).all()
                and (np.diff(rows[:, 0]) > 0).all()):
            failures.append(f"{what}: loaded {rows!r}")
    assert failures == []
