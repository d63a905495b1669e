"""Radar scan geometry and label painting.

Scan frame convention: origin at the robot, x-axis along the robot's yaw,
image x (columns) to the right and image y (rows) downward both in scan
metres; the scan center sits at the image center. Azimuth index a of a
polar scan looks along scan-frame angle 2*pi*a/A.
"""

import functools
import os
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ShapeError
from .formats import read_exact


class Label(IntEnum):
    UNLABELED = 0
    NOT_PATH = 1
    PATH = 2


LABEL_TO_GRAY = {Label.UNLABELED: 0, Label.NOT_PATH: 128, Label.PATH: 255}
GRAY_TO_LABEL = {v: k for k, v in LABEL_TO_GRAY.items()}

N_AZIMUTHS = 400


@dataclass
class PolarScan:
    """Radar power on an (azimuth, range-bin) grid."""

    power: np.ndarray  # (A, R), azimuth-major
    range_resolution: float  # metres per bin
    timestamp: float
    pose: np.ndarray  # (x, y, yaw) of the robot at scan time

    def __post_init__(self):
        self.power = np.asarray(self.power, dtype=np.float64)
        self.pose = np.asarray(self.pose, dtype=np.float64)
        if self.power.ndim != 2:
            raise ShapeError("polar power must be (azimuths, bins)")
        if np.any(self.power < 0):
            raise ValueError("radar power must be non-negative")

    @property
    def n_azimuths(self) -> int:
        return self.power.shape[0]

    @property
    def n_bins(self) -> int:
        return self.power.shape[1]

    @property
    def max_range(self) -> float:
        return self.n_bins * self.range_resolution


@dataclass
class CartesianScan:
    """Metric image resampling of a polar scan."""

    image: np.ndarray  # (W, W)
    metres_per_pixel: float
    timestamp: float
    pose: np.ndarray
    max_range: float

    @property
    def size(self) -> int:
        return self.image.shape[0]


def pixel_grid_scan_frame(image_size: int, metres_per_pixel: float):
    """Scan-frame (x, y) metre coordinates of every pixel center."""
    c = (np.arange(image_size) - image_size / 2.0 + 0.5) * metres_per_pixel
    xs, ys = np.meshgrid(c, c)  # xs varies with columns, ys with rows
    return xs, ys


def scan_frame_to_world(xs, ys, pose):
    """Rotate by yaw and translate by the scan pose."""
    x0, y0, yaw = float(pose[0]), float(pose[1]), float(pose[2])
    c, s = np.cos(yaw), np.sin(yaw)
    return x0 + c * xs - s * ys, y0 + s * xs + c * ys


def world_to_scan_frame(wx, wy, pose):
    """Inverse of scan_frame_to_world."""
    x0, y0, yaw = float(pose[0]), float(pose[1]), float(pose[2])
    c, s = np.cos(yaw), np.sin(yaw)
    dx, dy = np.asarray(wx) - x0, np.asarray(wy) - y0
    return c * dx + s * dy, -s * dx + c * dy


@functools.lru_cache(maxsize=2)
def _polar_plan(image_size: int, metres_per_pixel: float, n_azimuths: int,
                n_bins: int, range_resolution: float):
    """polar_to_cartesian's gather and blend for one geometry, read-only:
    flat power indices (4, W, W) int32 of the corners (a0, r0), (a0, r1),
    (a1, r0), (a1, r1); the azimuth and range fractions; and the pixels
    beyond max range. Every scan of a run shares one geometry."""
    xs, ys = pixel_grid_scan_frame(image_size, metres_per_pixel)
    rng = np.hypot(xs, ys)
    ang = np.arctan2(ys, xs) % (2.0 * np.pi)
    az = ang / (2.0 * np.pi) * n_azimuths  # fractional azimuth index
    rb = rng / range_resolution - 0.5  # fractional bin index
    a0 = np.floor(az).astype(np.int64) % n_azimuths
    a1 = (a0 + 1) % n_azimuths
    fa = az - np.floor(az)
    r0 = np.clip(np.floor(rb), 0, n_bins - 1).astype(np.int64)
    r1 = np.clip(r0 + 1, 0, n_bins - 1)
    fr = np.clip(rb - r0, 0.0, 1.0)
    corners = np.stack([a0 * n_bins + r0, a0 * n_bins + r1,
                        a1 * n_bins + r0, a1 * n_bins + r1]).astype(np.int32)
    plan = (corners, fa, fr, rng > n_bins * range_resolution)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def polar_to_cartesian(scan: PolarScan, image_size: int,
                       metres_per_pixel: float) -> CartesianScan:
    """Resample by bilinear interpolation over the polar grid.

    Pixels beyond max range are zero. Azimuth interpolation wraps; range
    interpolation clamps at the first/last bin centers.
    """
    if image_size < 32:
        raise ValueError("image size must be >= 32")
    corners, fa, fr, beyond = _polar_plan(
        image_size, metres_per_pixel, scan.n_azimuths, scan.n_bins,
        scan.range_resolution)
    p00, p01, p10, p11 = scan.power.ravel()[corners]
    image = ((1 - fa) * ((1 - fr) * p00 + fr * p01)
             + fa * ((1 - fr) * p10 + fr * p11))
    image[beyond] = 0.0
    return CartesianScan(image=image, metres_per_pixel=metres_per_pixel,
                         timestamp=scan.timestamp, pose=scan.pose.copy(),
                         max_range=scan.max_range)


def range_ignore_mask(image_size: int, metres_per_pixel: float,
                      max_range: float) -> np.ndarray:
    """True at pixels beyond radar max range (no information there)."""
    xs, ys = pixel_grid_scan_frame(image_size, metres_per_pixel)
    return np.hypot(xs, ys) > max_range


def paint_labels(scan: CartesianScan, labeled_trajectory,
                 footprint_radius_m: float,
                 use_negatives: bool) -> np.ndarray:
    """Paint trajectory terrain labels onto the scan as a label mask.

    Gravel entries paint PATH discs, grass/asphalt paint NOT_PATH (when
    use_negatives). Later entries overwrite earlier ones on conflict.
    Returns a (W, W) uint8 mask of Label values.
    """
    from .simworld import TerrainClass

    w = scan.size
    mask = np.full((w, w), int(Label.UNLABELED), dtype=np.uint8)
    if len(labeled_trajectory) == 0:
        return mask
    mpp = scan.metres_per_pixel
    half_extent = w * mpp / 2.0
    rad_px = footprint_radius_m / mpp
    for (x, y, _), cls in zip(labeled_trajectory.poses,
                              labeled_trajectory.terrain):
        sx, sy = world_to_scan_frame(x, y, scan.pose)
        if abs(sx) > half_extent or abs(sy) > half_extent:
            continue
        if int(cls) == int(TerrainClass.GRAVEL):
            value = int(Label.PATH)
        elif use_negatives:
            value = int(Label.NOT_PATH)
        else:
            continue
        # pixel center of (sx, sy): col = sx/mpp + w/2 - 0.5
        pc = sx / mpp + w / 2.0 - 0.5
        pr = sy / mpp + w / 2.0 - 0.5
        c_lo = max(int(np.ceil(pc - rad_px)), 0)
        c_hi = min(int(np.floor(pc + rad_px)), w - 1)
        r_lo = max(int(np.ceil(pr - rad_px)), 0)
        r_hi = min(int(np.floor(pr + rad_px)), w - 1)
        if c_hi < c_lo or r_hi < r_lo:
            continue
        cols = np.arange(c_lo, c_hi + 1)
        rows = np.arange(r_lo, r_hi + 1)
        dc = cols[None, :] - pc
        dr = rows[:, None] - pr
        disc = dc * dc + dr * dr <= rad_px * rad_px
        sub = mask[r_lo:r_hi + 1, c_lo:c_hi + 1]
        sub[disc] = value
    return mask


def mask_to_pgm_values(mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mask, dtype=np.uint8)
    for label, gray in LABEL_TO_GRAY.items():
        out[mask == int(label)] = gray
    return out


def mask_from_pgm_values(gray: np.ndarray) -> np.ndarray:
    out = np.zeros_like(gray, dtype=np.uint8)
    for value, label in GRAY_TO_LABEL.items():
        out[gray == value] = int(label)
    return out


RDS_MAGIC = b"RDS1"


def save_polar_scan(path, scan: PolarScan):
    """RDS1 binary: magic, u32 A, u32 R, f32 resolution, f64 timestamp,
    3x f64 pose, then A*R little-endian f32 power values azimuth-major."""
    with open(path, "wb") as f:
        f.write(RDS_MAGIC)
        f.write(struct.pack("<II", scan.n_azimuths, scan.n_bins))
        f.write(struct.pack("<f", scan.range_resolution))
        f.write(struct.pack("<d", scan.timestamp))
        f.write(struct.pack("<3d", *scan.pose))
        f.write(np.ascontiguousarray(scan.power, dtype="<f4").tobytes())


@dataclass(frozen=True)
class ScanHeader:
    """The fields of an RDS1 scan file that precede its power values."""

    n_azimuths: int
    n_bins: int
    range_resolution: float
    timestamp: float
    pose: np.ndarray

    @property
    def max_range(self) -> float:
        return self.n_bins * self.range_resolution


def _read_scan_header(f, path) -> ScanHeader:
    """The header at the start of f, checked: its values finite, and the
    payload it declares exactly the rest of the file."""
    if f.read(4) != RDS_MAGIC:
        raise ValueError(f"not an RDS1 scan file: {path}")
    a, r, res, timestamp, *pose = struct.unpack(
        "<IIfd3d", read_exact(f, 44, "scan file header"))
    held = os.fstat(f.fileno()).st_size - f.tell()
    if held != 4 * a * r:
        what = ("truncated scan file payload" if held < 4 * a * r
                else "overlong scan file")
        raise ValueError(f"{what} {path}: header declares {a}x{r} values, "
                         f"file holds {held} bytes")
    if not (np.isfinite([res, timestamp, *pose]).all() and res > 0):
        raise ValueError(f"bad scan file header in {path}: resolution {res}, "
                         f"timestamp {timestamp}, pose {pose}")
    return ScanHeader(n_azimuths=a, n_bins=r,
                      range_resolution=float(np.float32(res)),
                      timestamp=timestamp, pose=np.array(pose))


def load_scan_header(path) -> ScanHeader:
    with open(path, "rb") as f:
        return _read_scan_header(f, path)


def load_polar_scan(path) -> PolarScan:
    with open(path, "rb") as f:
        header = _read_scan_header(f, path)
        power = np.frombuffer(f.read(), dtype="<f4")
    if not np.all(np.isfinite(power)):
        raise ValueError(f"non-finite power in scan file {path}")
    return PolarScan(power=power.astype(np.float64).reshape(
                         header.n_azimuths, header.n_bins),
                     range_resolution=header.range_resolution,
                     timestamp=header.timestamp, pose=header.pose)
