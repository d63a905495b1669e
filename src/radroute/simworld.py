"""Synthetic environments, trajectories, and sensor streams with ground truth.

A world is a flat terrain grid (grass / gravel / asphalt) with gravel path
polylines, one of which is deliberately never traversed so that downstream
generalisation can be scored on exactly that region. All generators are
pure functions of (inputs, seed).

Audio clips are synthesized with one batched rfft/irfft per block of at
most SYNTH_BLOCK_SAMPLES samples, in bounded memory; each clip keeps its
own seed, gain and peak, and its samples equal a one-clip call bit for bit.
"""

import os
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError, InputError
from .dsp import AudioClip
from .formats import json_object, read_json, read_pgm, write_json, write_pgm


class TerrainClass(IntEnum):
    GRASS = 0
    GRAVEL = 1
    ASPHALT = 2


TERRAIN_NAMES = {t: t.name.lower() for t in TerrainClass}

RANGE_RESOLUTION = {"short": 0.0438, "long": 0.1752}

# disjoint spectral emphasis band (Hz) per terrain, boost ~30 dB in power
TERRAIN_AUDIO_BANDS = {
    TerrainClass.ASPHALT: (200.0, 2000.0),
    TerrainClass.GRASS: (4000.0, 8000.0),
    TerrainClass.GRAVEL: (10000.0, 16000.0),
}
AUDIO_BAND_BOOST = 31.622776601683793  # +30 dB amplitude in-band
SYNTH_BLOCK_SAMPLES = 1 << 19  # per synth_audio_blocks block: 4 MB arrays

# radar reflectivity per terrain class, and the power factor beyond a
# scatterer within its angular sector
TERRAIN_REFLECTIVITY = {
    TerrainClass.GRASS: 1.0,
    TerrainClass.GRAVEL: 6.0,
    TerrainClass.ASPHALT: 3.0,
}
SHADOW_ATTENUATION = 0.15


@dataclass
class SimConfig:
    """The world, traverse and sensor settings: the keys of the config's
    simworld section, plus the radar profile of the scans."""

    radar_profile: str  # a RANGE_RESOLUTION key
    grid_size: int
    cell_size: float
    path_width: float
    gps_sigma: float
    gps_rate: float
    vo_trans_sigma: float
    vo_yaw_sigma: float
    vo_yaw_drift_deg_s: float
    speckle_on: bool
    scatterer_density: float  # count per km^2
    scan_interval_s: float
    speed: float
    vo_dt: float
    sample_rate: float

    def __post_init__(self):
        if self.radar_profile not in RANGE_RESOLUTION:
            raise ConfigurationError(
                f"unknown radar profile {self.radar_profile!r}")

    @property
    def range_resolution(self) -> float:
        return RANGE_RESOLUTION[self.radar_profile]

    @property
    def extent_m(self) -> float:
        return self.grid_size * self.cell_size


@dataclass
class PathPolyline:
    vertices: np.ndarray  # (n, 2) metres
    width: float
    untraversed: bool = False


@dataclass
class TerrainMap:
    grid: np.ndarray  # (H, W) of TerrainClass values, row-major y then x
    cell_size: float
    path_polylines: list
    _untraversed: np.ndarray | None = field(default=None, init=False,
                                            repr=False, compare=False)

    @property
    def extent_m(self) -> float:
        return self.grid.shape[0] * self.cell_size

    def terrain_at(self, x, y) -> np.ndarray:
        """Terrain class at metric coordinates; grass outside the grid."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        col = np.floor(x / self.cell_size).astype(np.int64)
        row = np.floor(y / self.cell_size).astype(np.int64)
        h, w = self.grid.shape
        inside = (col >= 0) & (col < w) & (row >= 0) & (row < h)
        out = np.full(np.broadcast(x, y).shape, int(TerrainClass.GRASS),
                      dtype=np.int64)
        out[inside] = self.grid[row[inside], col[inside]]
        return out

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x < self.extent_m and 0.0 <= y < self.extent_m

    def untraversed_mask(self) -> np.ndarray:
        """Grid cells under the untraversed path polyline(s), read-only;
        rasterized on the first call, as a world's paths do not change."""
        if self._untraversed is None:
            mask = np.zeros(self.grid.shape, dtype=bool)
            for poly in self.path_polylines:
                if poly.untraversed:
                    mask |= _rasterize_polyline(self.grid.shape,
                                                self.cell_size,
                                                poly.vertices, poly.width)
            mask.setflags(write=False)
            self._untraversed = mask
        return self._untraversed


@dataclass
class GroundTruth:
    timestamps: np.ndarray
    poses: np.ndarray  # (n, 3) of x, y, yaw
    terrain_at_pose: np.ndarray  # (n,) TerrainClass values


def _segment_distance(px, py, ax, ay, bx, by):
    """Distance from points (px, py) to segment (a, b)."""
    abx, aby = bx - ax, by - ay
    ab2 = abx * abx + aby * aby
    if ab2 < 1e-18:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * abx + (py - ay) * aby) / ab2, 0.0, 1.0)
    return np.hypot(px - (ax + t * abx), py - (ay + t * aby))


def _rasterize_polyline(shape, cell_size, vertices, width) -> np.ndarray:
    """Cells whose centre lies within width/2 of the polyline, each segment
    evaluated only over its bounding box padded by width/2 plus one cell."""
    h, w = shape
    ys = (np.arange(h) + 0.5) * cell_size
    xs = (np.arange(w) + 0.5) * cell_size
    mask = np.zeros(shape, dtype=bool)
    half = width / 2.0
    for a, b in zip(vertices[:-1], vertices[1:]):
        lo = np.floor((np.minimum(a, b) - half) / cell_size) - 1
        hi = np.ceil((np.maximum(a, b) + half) / cell_size) + 1
        (c0, r0), (c1, r1) = np.clip([lo, hi], 0, (w, h)).astype(int)
        px, py = np.meshgrid(xs[c0:c1], ys[r0:r1])
        mask[r0:r1, c0:c1] |= _segment_distance(px, py, *a, *b) <= half
    return mask


def _main_path_vertices(rng: np.random.Generator, extent: float) -> np.ndarray:
    """Wavy path crossing the map left to right through the middle band."""
    n = 9
    xs = np.linspace(0.08 * extent, 0.92 * extent, n)
    y0 = extent * rng.uniform(0.42, 0.58)
    amp = extent * 0.06
    phase = rng.uniform(0, 2 * np.pi)
    ys = y0 + amp * np.sin(np.linspace(0, 2.2 * np.pi, n) + phase)
    return np.column_stack([xs, ys])


def _side_path_vertices(rng: np.random.Generator, main: np.ndarray,
                        extent: float) -> np.ndarray:
    """Branch leaving the main path roughly perpendicular, toward the top."""
    k = len(main) // 2 + rng.integers(-1, 2)
    start = main[k]
    n = 6
    ys = np.linspace(start[1], 0.92 * extent, n)
    drift = extent * 0.05
    xs = start[0] + np.cumsum(rng.uniform(-drift, drift, size=n))
    xs[0] = start[0]
    xs = np.clip(xs, 0.08 * extent, 0.92 * extent)
    return np.column_stack([xs, ys])


def generate_world(seed: int, config: SimConfig) -> TerrainMap:
    """Grass world with two gravel paths: the main path, which the robot
    traverses, and a side path flagged untraversed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    extent = config.extent_m
    main = _main_path_vertices(rng, extent)
    side = _side_path_vertices(rng, main, extent)
    polylines = [
        PathPolyline(vertices=main, width=config.path_width),
        PathPolyline(vertices=side, width=config.path_width, untraversed=True),
    ]
    shape = (config.grid_size, config.grid_size)
    grid = np.full(shape, int(TerrainClass.GRASS), dtype=np.int8)
    for poly in polylines:
        grid[_rasterize_polyline(shape, config.cell_size, poly.vertices,
                                 poly.width)] = int(TerrainClass.GRAVEL)
    return TerrainMap(grid=grid, cell_size=config.cell_size,
                      path_polylines=polylines)


def _chord_resample(vertices: np.ndarray, step: float) -> np.ndarray:
    """Walk a polyline in exact Euclidean (chord) steps of length `step`."""
    pts = [vertices[0].copy()]
    p = vertices[0].astype(np.float64)
    seg = 0
    u = 0.0  # parameter along current segment
    n_seg = len(vertices) - 1
    while seg < n_seg:
        a, b = vertices[seg], vertices[seg + 1]
        d = b - a
        # solve |a + u d - p|^2 = step^2 for u in (u, 1]
        f = a + u * d - p
        aa = d @ d
        bb = 2.0 * (f @ d)
        cc = f @ f - step * step
        disc = bb * bb - 4.0 * aa * cc
        root = None
        if aa > 1e-18 and disc >= 0.0:
            cand = (-bb + np.sqrt(disc)) / (2.0 * aa)
            nu = u + cand
            if 1e-12 < cand and nu <= 1.0 + 1e-12:
                root = min(nu, 1.0)
        if root is None:
            seg += 1
            u = 0.0
            continue
        u = root
        p = a + u * d
        pts.append(p.copy())
    return np.array(pts)


def plan_traverse(terrain_map: TerrainMap, config: SimConfig) -> GroundTruth:
    """Drive the traversed path at fixed speed with one grass excursion.

    The excursion loops below the main path (the untraversed branch goes
    up), so the planned route never enters the untraversed path.
    """
    traversed = [p for p in terrain_map.path_polylines if not p.untraversed]
    if not traversed:
        raise ConfigurationError("no traversable path in map")
    main = traversed[0].vertices
    extent = terrain_map.extent_m

    # waypoints: first half of the path, loop out onto grass, then rest
    k = len(main) // 2
    mid = main[k]
    depth = 0.18 * extent
    excursion = np.array([
        [mid[0] - 0.05 * extent, mid[1] - depth * 0.5],
        [mid[0], mid[1] - depth],
        [mid[0] + 0.06 * extent, mid[1] - depth * 0.6],
    ])
    excursion[:, 1] = np.clip(excursion[:, 1], 0.05 * extent, extent)
    waypoints = np.vstack([main[:k + 1], excursion, main[k:]])

    step = config.speed * config.vo_dt
    pts = _chord_resample(waypoints, step)
    d = np.diff(pts, axis=0)
    yaw = np.arctan2(d[:, 1], d[:, 0])
    yaw = np.concatenate([yaw, yaw[-1:]])
    timestamps = np.arange(len(pts)) * config.vo_dt
    terrain = terrain_map.terrain_at(pts[:, 0], pts[:, 1])

    # never enter the untraversed branch (its shared junction cells aside)
    for poly in terrain_map.path_polylines:
        if not poly.untraversed:
            continue
        half = poly.width / 2.0
        for a, b in zip(poly.vertices[:-1], poly.vertices[1:]):
            on_branch = _segment_distance(pts[:, 0], pts[:, 1],
                                          a[0], a[1], b[0], b[1]) <= half
            junction = np.hypot(pts[:, 0] - poly.vertices[0, 0],
                                pts[:, 1] - poly.vertices[0, 1]) \
                <= 2.5 * poly.width
            if np.any(on_branch & ~junction):
                raise ConfigurationError(
                    "planned traverse enters untraversed path")
    return GroundTruth(timestamps=timestamps,
                       poses=np.column_stack([pts, yaw]),
                       terrain_at_pose=terrain)


def synth_audio_blocks(terrains, duration_s: float, sample_rate: float,
                       seeds):
    """Band-shaped noise clips, one per (terrain, seed), as (k, n) blocks of
    consecutive clips, k as large as SYNTH_BLOCK_SAMPLES allows (at least
    1). Each clip draws its own noise, takes its terrain's band gain and is
    peak-normalised to 0.9 on its own."""
    terrains = [int(TerrainClass(t)) for t in terrains]
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate))
    # the bins lo <= f <= hi of each terrain's band; every other gain is 1
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    bands = {terrain: slice(np.searchsorted(freqs, lo, "left"),
                            np.searchsorted(freqs, hi, "right"))
             for terrain, (lo, hi) in TERRAIN_AUDIO_BANDS.items()}
    del freqs
    per_block = max(1, SYNTH_BLOCK_SAMPLES // n)
    for start in range(0, len(terrains), per_block):
        block = terrains[start:start + per_block]
        noise = np.empty((len(block), n))
        for row, terrain, seed in zip(noise, block, seeds[start:]):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, terrain, 0xA0D10]))
            rng.standard_normal(out=row)
        spec = np.fft.rfft(noise)
        del noise
        for row, terrain in zip(spec, block):
            row[bands[terrain]] *= AUDIO_BAND_BOOST
        shaped = np.fft.irfft(spec, n=n)
        del spec
        shaped *= (0.9 / np.maximum(np.abs(shaped).max(axis=1),
                                    1e-12))[:, None]
        yield shaped


def synth_audio(terrain: TerrainClass, duration_s: float, sample_rate: float,
                seed: int) -> AudioClip:
    """Band-shaped noise with a class-specific spectral emphasis band: the
    one-clip case of synth_audio_blocks."""
    (block,) = synth_audio_blocks([terrain], duration_s, sample_rate, [seed])
    return AudioClip(samples=block[0], sample_rate=sample_rate)


def scene_scatterers(terrain_map: TerrainMap, config: SimConfig,
                     world_seed: int) -> np.ndarray:
    """Fixed point scatterers (tree trunks etc.) for a given world, (n, 2) m."""
    rng = np.random.default_rng(np.random.SeedSequence([world_seed, 0x5CA7]))
    area_km2 = (terrain_map.extent_m / 1000.0) ** 2
    n = rng.poisson(config.scatterer_density * area_km2)
    return rng.uniform(0.0, terrain_map.extent_m, size=(n, 2))


def radar_bin_count(config: SimConfig) -> int:
    max_range = config.extent_m / 2.0
    return int(np.ceil(max_range / config.range_resolution))


def synth_radar(terrain_map: TerrainMap, pose, config: SimConfig, seed: int,
                scatterers: np.ndarray, timestamp: float):
    """One polar scan at a pose: reflectivity x unit-mean exponential speckle.

    Azimuth index a looks along world angle yaw + 2*pi*a/A, with A =
    canvas.N_AZIMUTHS. Scatterers produce a bright return and attenuate
    all power beyond them within their angular sector by
    SHADOW_ATTENUATION. Returns a canvas.PolarScan.
    """
    from .canvas import N_AZIMUTHS, PolarScan  # local: avoids a cycle

    x0, y0, yaw = float(pose[0]), float(pose[1]), float(pose[2])
    if not terrain_map.contains(x0, y0):
        raise ValueError("pose outside map")
    res = config.range_resolution
    n_bins = radar_bin_count(config)
    angles = yaw + 2.0 * np.pi * np.arange(N_AZIMUTHS) / N_AZIMUTHS
    ranges = (np.arange(n_bins) + 0.5) * res
    px = x0 + np.cos(angles)[:, None] * ranges[None, :]
    py = y0 + np.sin(angles)[:, None] * ranges[None, :]
    # one gather from a reflectivity raster padded by one grass cell, at floor
    # indices clipped onto the pad (terrain_at's grass off the grid)
    h, w = terrain_map.grid.shape
    values = np.zeros(len(TerrainClass))
    for cls, value in TERRAIN_REFLECTIVITY.items():
        values[int(cls)] = value
    raster = values[np.pad(terrain_map.grid, 1,
                           constant_values=int(TerrainClass.GRASS))]
    col = np.clip(np.floor(px / terrain_map.cell_size), -1, w) + 1
    row = np.clip(np.floor(py / terrain_map.cell_size), -1, h) + 1
    refl = raster.take((row * (w + 2) + col).astype(np.intp))
    extent = terrain_map.extent_m  # and zero beyond extent_m
    refl[(px < 0) | (px >= extent) | (py < 0) | (py >= extent)] = 0.0

    if len(scatterers):
        sx, sy = scatterers[:, 0] - x0, scatterers[:, 1] - y0
        s_range = np.hypot(sx, sy)
        s_bearing = np.arctan2(sy, sx)
        trunk_radius = 0.5
        for r, bearing in zip(s_range, s_bearing):
            if r < 2.0 * trunk_radius or r > ranges[-1]:
                continue
            half_width = np.arctan2(trunk_radius, r)
            dang = (angles - bearing + np.pi) % (2.0 * np.pi) - np.pi
            hit = np.abs(dang) <= half_width
            if not hit.any():
                continue
            bin_idx = int(r / res)
            refl[hit, bin_idx] = 20.0  # bright scatterer return
            refl[hit, bin_idx + 1:] *= SHADOW_ATTENUATION

    if config.speckle_on:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4ADA]))
        power = rng.exponential(1.0, size=refl.shape)
        power *= refl
    else:
        power = refl
    return PolarScan(power=power, range_resolution=res, timestamp=timestamp,
                     pose=np.array([x0, y0, yaw]))


def synth_vo(truth: GroundTruth, config: SimConfig, seed: int) -> np.ndarray:
    """Body-frame VO increments with Gaussian noise and a yaw-drift bias.

    Returns rows (timestamp, dx, dy, dyaw), one per step after the first
    pose; the timestamp is the end of the step.
    """
    if len(truth.poses) < 2:
        raise ValueError("need at least 2 poses")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DD0]))
    poses = truth.poses
    dt = np.diff(truth.timestamps)
    dxy_world = np.diff(poses[:, :2], axis=0)
    yaw_prev = poses[:-1, 2]
    c, s = np.cos(yaw_prev), np.sin(yaw_prev)
    dx_body = c * dxy_world[:, 0] + s * dxy_world[:, 1]
    dy_body = -s * dxy_world[:, 0] + c * dxy_world[:, 1]
    dyaw = np.diff(poses[:, 2])
    dyaw = (dyaw + np.pi) % (2.0 * np.pi) - np.pi
    n = len(dt)
    dx_body = dx_body + rng.normal(0.0, config.vo_trans_sigma, n)
    dy_body = dy_body + rng.normal(0.0, config.vo_trans_sigma, n)
    dyaw = (dyaw + rng.normal(0.0, config.vo_yaw_sigma, n)
            + np.deg2rad(config.vo_yaw_drift_deg_s) * dt)
    return np.column_stack([truth.timestamps[1:], dx_body, dy_body, dyaw])


def synth_gps(truth: GroundTruth, config: SimConfig, seed: int) -> np.ndarray:
    """Noisy global position fixes at gps_rate; rows (timestamp, x, y, sigma)."""
    if len(truth.poses) < 2:
        raise ValueError("need at least 2 poses")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B5]))
    t0, t1 = truth.timestamps[0], truth.timestamps[-1]
    times = np.arange(t0, t1 + 1e-9, 1.0 / config.gps_rate)
    x = np.interp(times, truth.timestamps, truth.poses[:, 0])
    y = np.interp(times, truth.timestamps, truth.poses[:, 1])
    x = x + rng.normal(0.0, config.gps_sigma, len(times))
    y = y + rng.normal(0.0, config.gps_sigma, len(times))
    sigma = np.full(len(times), config.gps_sigma)
    return np.column_stack([times, x, y, sigma])


def ground_truth_mask(terrain_map: TerrainMap, pose, image_size: int,
                      metres_per_pixel: float) -> np.ndarray:
    """Cartesian binary mask: 1 where the underlying map cell is gravel.

    Shares the scan frame convention of canvas.polar_to_cartesian.
    Evaluation-only; never used for training.
    """
    from .canvas import scan_frame_to_world, pixel_grid_scan_frame

    xs, ys = pixel_grid_scan_frame(image_size, metres_per_pixel)
    wx, wy = scan_frame_to_world(xs, ys, pose)
    terrain = terrain_map.terrain_at(wx, wy)
    return (terrain == int(TerrainClass.GRAVEL)).astype(np.uint8)


def untraversed_region_mask(terrain_map: TerrainMap, pose, image_size: int,
                            metres_per_pixel: float) -> np.ndarray:
    """Pixels of a scan image that fall on the untraversed path."""
    from .canvas import scan_frame_to_world, pixel_grid_scan_frame

    region = terrain_map.untraversed_mask()
    xs, ys = pixel_grid_scan_frame(image_size, metres_per_pixel)
    wx, wy = scan_frame_to_world(xs, ys, pose)
    col = np.clip((wx / terrain_map.cell_size).astype(np.int64), 0,
                  region.shape[1] - 1)
    row = np.clip((wy / terrain_map.cell_size).astype(np.int64), 0,
                  region.shape[0] - 1)
    inside = ((wx >= 0) & (wx < terrain_map.extent_m)
              & (wy >= 0) & (wy < terrain_map.extent_m))
    return region[row, col] & inside


def save_world(terrain_map: TerrainMap, json_path, pgm_path):
    """World as JSON metadata plus a PGM class grid."""
    meta = {
        "grid_height": terrain_map.grid.shape[0],
        "grid_width": terrain_map.grid.shape[1],
        "cell_size": terrain_map.cell_size,
        "grid_pgm": os.path.basename(str(pgm_path)),
        "paths": [
            {
                "vertices": poly.vertices.tolist(),
                "width": poly.width,
                "untraversed": bool(poly.untraversed),
            }
            for poly in terrain_map.path_polylines
        ],
    }
    write_json(json_path, meta)
    write_pgm(pgm_path, terrain_map.grid.astype(np.uint8))


def load_world(json_path) -> TerrainMap:
    """The world of a save_world file; InputError as formats.read_json (of
    the file and of each of its paths), or unless its cell_size is a
    positive number, its grid_height and grid_width are the shape of the
    PGM that its grid_pgm names beside it, its paths are a list and the
    vertices of each are [x, y] pairs of finite numbers."""
    meta = read_json(json_path, ("cell_size", "grid_pgm", "grid_height",
                                 "grid_width", "paths"))
    cell_size = meta["cell_size"]
    if type(cell_size) not in (int, float) or not 0 < cell_size < np.inf:
        raise InputError(f"{json_path}: cell_size must be a positive "
                         f"number, got {cell_size!r}")
    pgm = os.path.join(os.path.dirname(str(json_path)), str(meta["grid_pgm"]))
    if not os.path.isfile(pgm):
        raise InputError(f"{json_path}: grid_pgm {meta['grid_pgm']!r} names "
                         f"no file beside it")
    grid = read_pgm(pgm).astype(np.int8)
    shape = (meta["grid_height"], meta["grid_width"])
    if grid.shape != shape:
        raise InputError(f"{json_path}: grid_height, grid_width {shape} do "
                         f"not match the {grid.shape} grid of {pgm}")
    if not isinstance(meta["paths"], list):
        raise InputError(f"{json_path}: paths must be a list, got "
                         f"{meta['paths']!r}")
    polylines = []
    for i, p in enumerate(meta["paths"]):
        where = f"{json_path} path {i}"
        p = json_object(p, ("vertices", "width", "untraversed"), where)
        try:
            vertices = np.asarray(p["vertices"], dtype=np.float64)
        except (TypeError, ValueError):  # a string, or rows of two lengths
            vertices = np.empty(0)
        if vertices.ndim != 2 or vertices.shape[1] != 2 or not np.isfinite(
                vertices).all():
            raise InputError(f"{where}: vertices must be [x, y] pairs of "
                             f"finite numbers, got {p['vertices']!r}")
        polylines.append(PathPolyline(vertices=vertices, width=p["width"],
                                      untraversed=p["untraversed"]))
    return TerrainMap(grid=grid, cell_size=cell_size,
                      path_polylines=polylines)
