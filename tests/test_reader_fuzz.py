"""Seeded reader fuzz: every reader of a file the pipeline writes or reads
either loads what the damaged file declares or raises a named error.

Each format starts from a small valid file. The cases are that file cut at
every byte, and FLIPS single-bit flips at seeded positions.
- A binary case that loads must come back with the shape its own header
  declares; any other outcome but ValueError (MemoryError, OverflowError,
  struct.error, a bare RuntimeError from `wave`) fails.
- A CSV case that loads must come back finite, with the header's columns,
  increasing timestamps and a class code of its table in each class
  column; any other outcome but InputError fails.
- A JSON case (the config file, a world, the audio model header) that
  loads must read equal to the values its text declares; any other
  outcome but InputError or ConfigurationError (KeyError, TypeError,
  FileNotFoundError, UnicodeDecodeError) fails.
The failures are listed together.

Each format's cases run in a child process whose address space is capped
(tests/capped.py), so a reader that allocates what a damaged header
declares fails there with MemoryError, and the host keeps its memory; a
RuntimeWarning fails a case there as it does under pytest.
"""

import argparse
import json
import pathlib
import re
import struct
import zlib

import numpy as np
import pytest

import capped
from radroute import audio, canvas, cli, formats, numeric, pipeline, simworld
from radroute.errors import ConfigurationError, InputError

FLIPS = 300

HERE = pathlib.Path(__file__).resolve().parent
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_reader_fuzz
function = getattr(test_reader_fuzz, sys.argv[2])
print(json.dumps(function(*sys.argv[3:])))
"""


def _capped(function: str, *args) -> list:
    """The failures function(*args) of this module returns, run in a child
    process capped as capped.run_capped."""
    proc = capped.run_capped(CHILD, HERE, function, *args, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _seed(name: str) -> int:
    """A fixture's seed, from its own name, so that no other fixture's
    coming or going moves it."""
    return zlib.crc32(name.encode())


def _cases(data: bytes, seed: int):
    for keep in range(len(data)):
        yield f"cut at {keep}", data[:keep]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        pos, bit = int(rng.integers(len(data))), int(rng.integers(8))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        yield f"bit {bit} of byte {pos} flipped", bytes(flipped)


def _fuzz(valid: bytes, path: pathlib.Path, seed: int, read, errors,
          check) -> list:
    """For each case of the valid bytes written to path: read(path), which
    may raise errors, and check(what it read, the bytes), which returns
    None or what is wrong."""
    failures = []
    for what, data in _cases(valid, seed):
        path.write_bytes(data)
        try:
            loaded = read(path)
        except errors:
            continue
        except Exception as exc:  # noqa: BLE001 - the failure is the type
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        wrong = check(loaded, data)
        if wrong is not None:
            failures.append(f"{what}: {wrong}")
    return failures


# ------------------------------------------------------------------ binary


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


def binary_failures(ext: str, directory: str) -> list:
    write, declared = FORMATS[ext]
    valid = pathlib.Path(directory, f"valid.{ext}")
    shape_of = write(valid)

    def check(shape, data):
        if shape != declared(data):
            return f"loaded {shape}, header declares {declared(data)}"

    return _fuzz(valid.read_bytes(), pathlib.Path(directory, f"case.{ext}"),
                 _seed(ext), shape_of, ValueError, check)


@pytest.mark.parametrize("ext", sorted(FORMATS))
def test_damaged_file_loads_as_declared_or_raises_value_error(tmp_path, ext):
    assert _capped("binary_failures", ext, str(tmp_path)) == []


# --------------------------------------------------------------------- CSV


def _valid_rows(rows, columns):
    classes = [(i, fmt) for i, (_, fmt) in enumerate(columns)
               if isinstance(fmt, dict)]
    if not (rows.ndim == 2 and rows.shape[1] == len(columns)
            and np.isfinite(rows).all() and (np.diff(rows[:, 0]) > 0).all()
            and all(set(rows[:, i]) <= set(fmt) for i, fmt in classes)):
        return f"loaded {rows!r}"


CSV_FILES = {"fused.csv": pipeline.FUSED_COLUMNS,
             "gps.csv": pipeline.GPS_COLUMNS, "vo.csv": pipeline.VO_COLUMNS,
             "labeled_trajectory.csv": pipeline.LABELED_COLUMNS,
             "poses_train.csv": pipeline.POSE_COLUMNS,
             "predictions.csv": pipeline.PREDICTION_COLUMNS}


def csv_failures(name: str, directory: str) -> list:
    columns = CSV_FILES[name]
    rng = np.random.default_rng(_seed(name))
    valid = pathlib.Path(directory, f"valid_{name}")
    rows = np.column_stack([np.cumsum(rng.uniform(0.1, 1.0, 5)),
                            rng.normal(size=(5, len(columns) - 1))])
    for i, (_, fmt) in enumerate(columns):
        if isinstance(fmt, dict):  # a class column holds codes
            rows[:, i] = rng.choice(list(fmt), 5)
    formats.write_csv(valid, columns, rows)
    return _fuzz(valid.read_bytes(), pathlib.Path(directory, name),
                 rng.integers(1 << 30),
                 lambda p: formats.read_csv(p, columns), InputError,
                 lambda rows, _: _valid_rows(rows, columns))


@pytest.mark.parametrize("name", list(CSV_FILES))
def test_damaged_csv_loads_valid_rows_or_raises_input_error(tmp_path, name):
    assert _capped("csv_failures", name, str(tmp_path)) == []


# -------------------------------------------------------------- JSON files
#
# Each entry writes a valid file into a directory and returns its path,
# the reader, and check(what it read, the bytes) as _fuzz takes it.


def _declared(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _unequal(got, want):
    if got != want:
        return f"read {got!r}, the text declares {want!r}"


def _config_file(directory):
    path = directory / "config.json"
    formats.write_json(path, {"seed": 3, "canvas": {"image_size": 64},
                              "segmentation": {"crop": 32, "stage1_lr": 0.1}})
    return path, (lambda p: cli.load_config(argparse.Namespace(
        config=str(p), seed=None, out=None))), (
        lambda cfg, data: _unequal(cfg, pipeline.resolve_config(
            _declared(data))))


def _world_file(directory):
    path = directory / "world_train.json"
    grid = np.zeros((4, 6), dtype=np.int8)
    grid[1:3, 2:5] = int(simworld.TerrainClass.ASPHALT)
    simworld.save_world(simworld.TerrainMap(grid, 0.4, [
        simworld.PathPolyline(np.array([[0.2, 0.5], [2.0, 1.25]]), 3.0),
        simworld.PathPolyline(np.array([[1.0, 0.0], [1.5, -0.75]]), 2.5,
                              untraversed=True)]),
        path, directory / "world_train.pgm")

    def check(world, data):
        meta = _declared(data)
        if not np.array_equal(world.grid, grid):
            return f"read grid {world.grid!r}"
        return _unequal(
            [world.cell_size] + [(p.vertices.tolist(), p.width,
                                  p.untraversed)
                                 for p in world.path_polylines],
            [meta["cell_size"]] + [(p["vertices"], p["width"],
                                    p["untraversed"]) for p in meta["paths"]])

    return path, simworld.load_world, check


def _audio_model_header(directory):
    # a 32 x 50 gammatone model at 8 kHz with 10 ms frames, beside a WAV
    # of one 0.5 s window at that rate
    dsp = {"frame_len": 80, "hop": 80, "fft_size": 80}
    cfg = pipeline.resolve_config({"dsp": dsp})
    model = audio.build_model((1, 32, 50), rng=np.random.default_rng(3))
    audio.save_model(directory / "audio_model.kowt",
                     directory / "audio_model.json", model, "gammatone",
                     pipeline.stft_config(cfg))
    weights = [p.tolist() for _, p in numeric.named_params(model.layers)]
    formats.write_wav(directory / "traverse_audio.wav", np.zeros(4000),
                      8000.0)

    def read(path):
        with formats.WavReader(directory / "traverse_audio.wav") as wav:
            loaded, rep = pipeline._load_audio_model(cfg, str(directory), wav)
        return rep, [p.tolist() for _, p in numeric.named_params(
            loaded.layers)]

    return directory / "audio_model.json", read, lambda got, data: _unequal(
        got, (_declared(data)["representation"], weights))


ARTIFACTS = {"config": _config_file, "world_train.json": _world_file,
             "audio_model.json": _audio_model_header}


def artifact_failures(name: str, directory: str) -> list:
    """The valid file must read equal, then each case is written over it,
    beside the files its reader also reads."""
    path, read, check = ARTIFACTS[name](pathlib.Path(directory))
    valid = path.read_bytes()
    wrong = check(read(path), valid)
    return ([f"the valid file: {wrong}"] if wrong else []) + _fuzz(
        valid, path, _seed(name), read,
        (InputError, ConfigurationError), check)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_damaged_artifact_reads_equal_or_raises_input_error(tmp_path, name):
    assert _capped("artifact_failures", name, str(tmp_path)) == []
