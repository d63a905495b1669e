import struct

import numpy as np
import pytest

from radroute import canvas
from radroute.canvas import (CartesianScan, Label, PolarScan,
                             paint_labels, polar_to_cartesian)
from radroute.fusion import LabeledTrajectory
from radroute.simworld import TerrainClass


def polar(power, res=0.2, pose=(0.0, 0.0, 0.0), t=0.0):
    return PolarScan(power=power, range_resolution=res, timestamp=t,
                     pose=np.array(pose, dtype=float))


def cart(size=64, mpp=0.4, pose=(0.0, 0.0, 0.0)):
    return CartesianScan(image=np.zeros((size, size)), metres_per_pixel=mpp,
                         timestamp=0.0, pose=np.array(pose, dtype=float),
                         max_range=size * mpp)


def traj(points, terrain):
    points = np.asarray(points, dtype=float)
    n = len(points)
    return LabeledTrajectory(
        timestamps=np.arange(n, dtype=float),
        poses=np.column_stack([points, np.zeros(n)]),
        terrain=np.asarray(terrain, dtype=np.int64),
        confidence=np.ones(n))


def polar_to_cartesian_inline(scan, image_size, metres_per_pixel):
    """The per-scan resampling formula, rebuilt in full on every call."""
    xs, ys = canvas.pixel_grid_scan_frame(image_size, metres_per_pixel)
    rng = np.hypot(xs, ys)
    ang = np.arctan2(ys, xs) % (2.0 * np.pi)
    a = scan.n_azimuths
    az = ang / (2.0 * np.pi) * a
    rb = rng / scan.range_resolution - 0.5
    a0 = np.floor(az).astype(np.int64) % a
    a1 = (a0 + 1) % a
    fa = az - np.floor(az)
    r0 = np.clip(np.floor(rb), 0, scan.n_bins - 1).astype(np.int64)
    r1 = np.clip(r0 + 1, 0, scan.n_bins - 1)
    fr = np.clip(rb - r0, 0.0, 1.0)
    p = scan.power
    image = ((1 - fa) * ((1 - fr) * p[a0, r0] + fr * p[a0, r1])
             + fa * ((1 - fr) * p[a1, r0] + fr * p[a1, r1]))
    image[rng > scan.max_range] = 0.0
    return image


class TestPolarToCartesian:
    def test_zero_in_zero_out(self):
        scan = polar(np.zeros((400, 50)))
        assert not polar_to_cartesian(scan, 64, 0.4).image.any()

    def test_hot_bin_lands_right_of_center(self):
        # coarse azimuth grid so the ray spans neighbouring pixel rows
        power = np.zeros((36, 50))
        r_bin = 20
        power[0, r_bin] = 100.0
        scan = polar(power, res=0.2)
        out = polar_to_cartesian(scan, 64, 0.2)
        row, col = np.unravel_index(np.argmax(out.image), out.image.shape)
        r_m = (r_bin + 0.5) * 0.2
        want_col = r_m / 0.2 + 64 / 2.0 - 0.5
        want_row = 64 / 2.0 - 0.5
        assert abs(col - want_col) <= 1.0
        assert abs(row - want_row) <= 1.0

    def test_energy_ratio_uniform_scan(self):
        scan = polar(np.ones((400, 50)), res=0.2)  # max range 10 m
        out = polar_to_cartesian(scan, 64, 0.4)
        image_energy = out.image.sum() * 0.4 ** 2
        polar_energy = np.pi * scan.max_range ** 2  # unit power disc area
        assert 0.8 <= image_energy / polar_energy <= 1.2

    def test_beyond_max_range_is_zero(self):
        scan = polar(np.ones((400, 10)), res=0.2)  # max range 2 m
        out = polar_to_cartesian(scan, 64, 0.4)
        ignore = canvas.range_ignore_mask(64, 0.4, scan.max_range)
        assert not out.image[ignore].any()
        assert out.image[~ignore].all()

    @pytest.mark.parametrize("geometry", [(400, 150, 0.25, 256, 0.35),
                                          (36, 50, 0.2, 64, 0.4)])
    def test_cached_plan_is_byte_identical_to_inline_formula(self, geometry):
        n_az, n_bins, res, size, mpp = geometry
        rng = np.random.default_rng(n_az)
        for _ in range(3):  # the first call builds the plan; the rest reuse it
            scan = polar(rng.exponential(1.0, size=(n_az, n_bins)), res=res)
            got = polar_to_cartesian(scan, size, mpp).image
            want = polar_to_cartesian_inline(scan, size, mpp)
            assert got.tobytes() == want.tobytes()

    def test_returned_image_is_the_callers_own(self):
        scan = polar(np.random.default_rng(2).exponential(size=(400, 50)))
        first = polar_to_cartesian(scan, 64, 0.4).image
        want = first.copy()
        first[...] = -1.0
        again = polar_to_cartesian(scan, 64, 0.4).image
        assert again.tobytes() == want.tobytes()
        plan = canvas._polar_plan(64, 0.4, 400, 50, 0.2)
        assert not any(arr.flags.writeable for arr in plan)
        assert plan[0].dtype == np.int32

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            polar_to_cartesian(polar(np.zeros((400, 10))), 16, 0.4)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            polar(np.full((400, 5), -1.0))


class TestFrames:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        pose = (12.3, -4.5, 0.77)
        x, y = rng.normal(size=100), rng.normal(size=100)
        sx, sy = canvas.world_to_scan_frame(x, y, pose)
        bx, by = canvas.scan_frame_to_world(sx, sy, pose)
        assert np.abs(bx - x).max() < 1e-9
        assert np.abs(by - y).max() < 1e-9

    def test_pixel_grid_centered(self):
        xs, ys = canvas.pixel_grid_scan_frame(64, 0.5)
        assert abs(xs.sum()) < 1e-9 and abs(ys.sum()) < 1e-9
        assert xs[0, 1] - xs[0, 0] == 0.5
        assert ys[1, 0] - ys[0, 0] == 0.5


def disc_oracle(size, mpp, center_xy, radius):
    """Pixels whose center is within radius of the point, by brute force."""
    xs, ys = canvas.pixel_grid_scan_frame(size, mpp)
    return (np.hypot(xs - center_xy[0], ys - center_xy[1]) <= radius)


class TestPaintLabels:
    def test_entry_at_scan_pose(self):
        scan = cart(pose=(5.0, 7.0, 0.4))
        mask = paint_labels(scan, traj([(5.0, 7.0)],
                                       [int(TerrainClass.GRAVEL)]),
                            footprint_radius_m=1.0)
        want = disc_oracle(64, 0.4, (0.0, 0.0), 1.0 / 0.4 * 0.4)
        np.testing.assert_array_equal(mask == int(Label.PATH), want)
        assert mask[31:33, 31:33].min() == int(Label.PATH)

    def test_far_entry_ignored(self):
        scan = cart()
        mask = paint_labels(scan, traj([(1000.0, 0.0)],
                                       [int(TerrainClass.GRAVEL)]))
        assert not mask.any()

    def test_disc_matches_bruteforce_exactly(self):
        scan = cart(size=64, mpp=0.4)
        point = (3.37, -2.11)
        for radius in (0.33, 0.9, 2.5):
            mask = paint_labels(scan, traj([point],
                                           [int(TerrainClass.GRAVEL)]),
                                footprint_radius_m=radius)
            want = disc_oracle(64, 0.4, point, radius)
            np.testing.assert_array_equal(mask == int(Label.PATH), want)

    def test_negative_classes(self):
        scan = cart()
        lt = traj([(0.0, 0.0), (4.0, 0.0), (-4.0, 0.0)],
                  [int(TerrainClass.GRAVEL), int(TerrainClass.GRASS),
                   int(TerrainClass.ASPHALT)])
        mask = paint_labels(scan, lt, footprint_radius_m=0.5)
        assert (mask == int(Label.PATH)).any()
        assert (mask == int(Label.NOT_PATH)).any()
        off = paint_labels(scan, lt, footprint_radius_m=0.5,
                           use_negatives=False)
        assert not (off == int(Label.NOT_PATH)).any()
        np.testing.assert_array_equal(off == int(Label.PATH),
                                      mask == int(Label.PATH))

    def test_later_entry_wins_on_conflict(self):
        scan = cart()
        lt = traj([(0.0, 0.0), (0.0, 0.0)],
                  [int(TerrainClass.GRAVEL), int(TerrainClass.GRASS)])
        mask = paint_labels(scan, lt, footprint_radius_m=0.5)
        assert not (mask == int(Label.PATH)).any()
        assert (mask == int(Label.NOT_PATH)).any()

    def test_order_independent_when_disjoint(self):
        scan = cart()
        pts = [(-6.0, -6.0), (0.0, 5.0), (6.0, -3.0), (8.0, 8.0)]
        cls = [int(TerrainClass.GRAVEL), int(TerrainClass.GRASS),
               int(TerrainClass.GRAVEL), int(TerrainClass.ASPHALT)]
        a = paint_labels(scan, traj(pts, cls), footprint_radius_m=0.8)
        order = [2, 0, 3, 1]
        b = paint_labels(scan, traj([pts[i] for i in order],
                                    [cls[i] for i in order]),
                         footprint_radius_m=0.8)
        np.testing.assert_array_equal(a, b)

    def test_rotation_equivariance(self):
        # rotate the world by 90 degrees: same scan-frame geometry
        pts = np.array([(2.2, 1.1), (-3.3, 0.7), (0.4, -4.6)])
        cls = [int(TerrainClass.GRAVEL)] * 3
        a = paint_labels(cart(pose=(0.0, 0.0, 0.0)), traj(pts, cls),
                         footprint_radius_m=0.9)
        rot = np.column_stack([-pts[:, 1], pts[:, 0]])
        b = paint_labels(cart(pose=(0.0, 0.0, np.pi / 2)), traj(rot, cls),
                         footprint_radius_m=0.9)
        np.testing.assert_array_equal(a, b)

    def test_empty_trajectory_empty_mask(self):
        mask = paint_labels(cart(), traj(np.zeros((0, 2)), []))
        assert mask.shape == (64, 64) and not mask.any()


class TestMaskPgm:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        mask = rng.integers(0, 3, size=(16, 16)).astype(np.uint8)
        gray = canvas.mask_to_pgm_values(mask)
        assert set(np.unique(gray)) <= {0, 128, 255}
        np.testing.assert_array_equal(canvas.mask_from_pgm_values(gray), mask)


class TestScanFile:
    def test_roundtrip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        scan = polar(rng.random((400, 30)).astype(np.float32)
                     .astype(np.float64),
                     res=0.0438, pose=(1.0, 2.0, 0.3), t=12.5)
        p1 = tmp_path / "a.rds"
        p2 = tmp_path / "b.rds"
        canvas.save_polar_scan(p1, scan)
        loaded = canvas.load_polar_scan(p1)
        canvas.save_polar_scan(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.power, scan.power)
        assert loaded.timestamp == scan.timestamp
        np.testing.assert_array_equal(loaded.pose, scan.pose)

    def test_byte_layout(self, tmp_path):
        power = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        scan = polar(power, res=0.25, pose=(1.0, -2.0, 0.5), t=7.0)
        path = tmp_path / "tiny.rds"
        canvas.save_polar_scan(path, scan)
        raw = path.read_bytes()
        assert raw[:4] == b"RDS1"
        assert struct.unpack_from("<II", raw, 4) == (3, 2)
        assert struct.unpack_from("<f", raw, 12)[0] == 0.25
        assert struct.unpack_from("<d", raw, 16)[0] == 7.0
        assert struct.unpack_from("<3d", raw, 24) == (1.0, -2.0, 0.5)
        assert raw[48:] == struct.pack("<6f", 1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("keep", [4, 30, 47])
    def test_truncated_header_rejected(self, tmp_path, keep):
        path = tmp_path / "scan.rds"
        canvas.save_polar_scan(path, polar(np.ones((3, 2)), res=0.25,
                                           pose=(0.0, 0.0, 0.0), t=1.0))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated scan file header"):
            canvas.load_polar_scan(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "scan.rds"
        canvas.save_polar_scan(path, polar(np.ones((3, 2)), res=0.25,
                                           pose=(0.0, 0.0, 0.0), t=1.0))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated scan file payload"):
            canvas.load_polar_scan(path)

    def test_header_reads_fields_without_payload(self, tmp_path):
        path = tmp_path / "scan.rds"
        canvas.save_polar_scan(path, polar(np.ones((3, 2)), res=0.25,
                                           pose=(1.0, -2.0, 0.5), t=7.0))
        header = canvas.load_scan_header(path)
        assert (header.n_azimuths, header.n_bins) == (3, 2)
        assert (header.timestamp, header.max_range) == (7.0, 0.5)
        np.testing.assert_array_equal(header.pose, [1.0, -2.0, 0.5])

    @pytest.mark.parametrize("edit,match", [
        (lambda raw: raw[:-4], "truncated scan file payload"),
        (lambda raw: raw + b"\0", "overlong scan file"),
        (lambda raw: raw[:12] + struct.pack("<f", 0.0) + raw[16:],
         "bad scan file header")])
    def test_header_checks_payload_size_and_values(self, tmp_path, edit,
                                                   match):
        # eval-seg reads only headers, so the header reader itself checks
        # the declared payload against the file
        path = tmp_path / "scan.rds"
        canvas.save_polar_scan(path, polar(np.ones((3, 2)), res=0.25,
                                           pose=(0.0, 0.0, 0.0), t=1.0))
        path.write_bytes(edit(path.read_bytes()))
        for load in (canvas.load_scan_header, canvas.load_polar_scan):
            with pytest.raises(ValueError, match=match):
                load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, tmp_path, bad):
        path = tmp_path / "scan.rds"
        canvas.save_polar_scan(path, polar(np.ones((3, 2)), res=0.25,
                                           pose=(0.0, 0.0, 0.0), t=1.0))
        raw = bytearray(path.read_bytes())
        raw[48 + 4 * 2:48 + 4 * 3] = struct.pack("<f", bad)  # power[1, 0]
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="non-finite power.*scan.rds"):
            canvas.load_polar_scan(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rds"
        path.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(ValueError):
            canvas.load_polar_scan(path)
