import numpy as np
import pytest

from radroute import simworld
from radroute.errors import ConfigurationError
from radroute.simworld import (SimConfig, TerrainClass, generate_world,
                               plan_traverse, synth_audio, synth_gps,
                               synth_radar, synth_vo)


def small_config(**kw):
    return SimConfig(grid_size=64, **kw)


def capsule_fraction_oracle(terrain_map):
    """Gravel-area fraction by dense polyline sampling + nearest-point test."""
    h, w = terrain_map.grid.shape
    cs = terrain_map.cell_size
    ys = (np.arange(h) + 0.5) * cs
    xs = (np.arange(w) + 0.5) * cs
    px, py = np.meshgrid(xs, ys)
    covered = np.zeros((h, w), dtype=bool)
    for poly in terrain_map.path_polylines:
        pts = []
        for a, b in zip(poly.vertices[:-1], poly.vertices[1:]):
            t = np.linspace(0.0, 1.0, 4000)[:, None]
            pts.append(a[None] * (1 - t) + b[None] * t)
        pts = np.vstack(pts)
        d2min = np.full((h, w), np.inf)
        for chunk in np.array_split(pts, 20):
            d2 = ((px[:, :, None] - chunk[None, None, :, 0]) ** 2
                  + (py[:, :, None] - chunk[None, None, :, 1]) ** 2)
            d2min = np.minimum(d2min, d2.min(axis=2))
        covered |= np.sqrt(d2min) <= poly.width / 2.0 + 1e-6
    return covered.mean(), covered


class TestGenerateWorld:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_world(7, cfg)
        b = generate_world(7, cfg)
        assert a.grid.tobytes() == b.grid.tobytes()
        for pa, pb in zip(a.path_polylines, b.path_polylines):
            np.testing.assert_array_equal(pa.vertices, pb.vertices)

    def test_gravel_fraction_vs_capsule_oracle(self):
        world = generate_world(3, small_config())
        frac, covered = capsule_fraction_oracle(world)
        assert 0.0 < frac < 0.5
        grid_frac = (world.grid == int(TerrainClass.GRAVEL)).mean()
        assert abs(grid_frac - frac) < 0.01
        # gravel cells are exactly the capsule-covered cells (tolerance
        # only at the capsule boundary)
        gravel = world.grid == int(TerrainClass.GRAVEL)
        assert (gravel ^ covered).mean() < 0.01

    def test_zero_paths_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(n_paths=0)

    def test_single_path_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_world(0, small_config(n_paths=1))

    def test_one_untraversed_path(self):
        world = generate_world(0, small_config())
        flags = [p.untraversed for p in world.path_polylines]
        assert flags.count(True) == 1
        assert flags.count(False) >= 1
        assert world.untraversed_mask().any()

    def test_untraversed_mask_rasterized_once(self):
        world = generate_world(0, small_config())
        mask = world.untraversed_mask()
        assert world.untraversed_mask() is mask
        assert not mask.flags.writeable
        branch = [p for p in world.path_polylines if p.untraversed][0]
        want = simworld._rasterize_polyline(world.grid.shape, world.cell_size,
                                            branch.vertices, branch.width)
        np.testing.assert_array_equal(mask, want)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(grid_size=32)


class TestPlanTraverse:
    def test_poses_inside_map(self):
        cfg = small_config()
        world = generate_world(1, cfg)
        truth = plan_traverse(world, 1, cfg)
        x, y = truth.poses[:, 0], truth.poses[:, 1]
        assert np.all((x >= 0) & (x < world.extent_m))
        assert np.all((y >= 0) & (y < world.extent_m))

    def test_two_terrain_classes_present(self):
        cfg = small_config()
        world = generate_world(1, cfg)
        truth = plan_traverse(world, 1, cfg)
        classes = set(truth.terrain_at_pose.tolist())
        assert {int(TerrainClass.GRASS), int(TerrainClass.GRAVEL)} <= classes

    def test_constant_step_length(self):
        cfg = small_config()
        world = generate_world(2, cfg)
        truth = plan_traverse(world, 2, cfg)
        steps = np.linalg.norm(np.diff(truth.poses[:, :2], axis=0), axis=1)
        dt = np.diff(truth.timestamps)
        assert np.abs(steps - cfg.speed * dt).max() < 1e-9

    def test_avoids_untraversed_branch(self):
        cfg = small_config()
        world = generate_world(4, cfg)
        truth = plan_traverse(world, 4, cfg)
        branch = [p for p in world.path_polylines if p.untraversed][0]
        # distance from each pose to the branch, skipping the junction end
        far_vertex = branch.vertices[-1]
        d = np.hypot(truth.poses[:, 0] - far_vertex[0],
                     truth.poses[:, 1] - far_vertex[1])
        assert d.min() > branch.width


class TestSynthAudio:
    def band_energy(self, clip, band):
        spec = np.abs(np.fft.rfft(clip.samples)) ** 2
        freqs = np.fft.rfftfreq(len(clip.samples), 1.0 / clip.sample_rate)
        sel = (freqs >= band[0]) & (freqs <= band[1])
        return spec[sel].mean()

    def test_sample_count(self):
        clip = synth_audio(TerrainClass.GRASS, 0.5, 44100.0, 0)
        assert len(clip.samples) == 22050

    def test_amplitude_bounded(self):
        clip = synth_audio(TerrainClass.GRAVEL, 0.5, 44100.0, 1)
        assert np.abs(clip.samples).max() <= 1.0

    def test_band_separation(self):
        grass = synth_audio(TerrainClass.GRASS, 0.5, 44100.0, 2)
        gravel = synth_audio(TerrainClass.GRAVEL, 0.5, 44100.0, 2)
        band_g = simworld.TERRAIN_AUDIO_BANDS[TerrainClass.GRAVEL]
        band_s = simworld.TERRAIN_AUDIO_BANDS[TerrainClass.GRASS]
        up = (self.band_energy(gravel, band_g)
              / self.band_energy(grass, band_g))
        down = (self.band_energy(grass, band_s)
                / self.band_energy(gravel, band_s))
        assert 10.0 * np.log10(up) >= 6.0
        assert 10.0 * np.log10(down) >= 6.0

    def test_deterministic(self):
        a = synth_audio(TerrainClass.ASPHALT, 0.5, 44100.0, 5)
        b = synth_audio(TerrainClass.ASPHALT, 0.5, 44100.0, 5)
        assert np.array_equal(a.samples, b.samples)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            synth_audio(TerrainClass.GRASS, 0.0, 44100.0, 0)
        with pytest.raises(ValueError):
            synth_audio(17, 0.5, 44100.0, 0)

    def test_band_energy_linear_rule_separates_classes(self):
        # argmax over normalized per-band energies is >= 99% accurate
        classes = list(TerrainClass)
        bands = [simworld.TERRAIN_AUDIO_BANDS[t] for t in classes]
        correct = total = 0
        for terrain in classes:
            for seed in range(30):
                clip = synth_audio(terrain, 0.1, 44100.0, seed)
                energies = [self.band_energy(clip, b) for b in bands]
                correct += classes[int(np.argmax(energies))] == terrain
                total += 1
        assert correct / total >= 0.99


class TestSynthRadar:
    def test_speckle_off_uniform_grass(self):
        cfg = small_config(speckle_on=False, scatterer_density=0.0)
        world = generate_world(0, cfg)
        world.grid[:] = int(TerrainClass.GRASS)
        pose = (world.extent_m / 2, world.extent_m / 2, 0.0)
        scan = synth_radar(world, pose, cfg, 0)
        grass = cfg.terrain_reflectivity[TerrainClass.GRASS]
        vals = np.unique(scan.power)
        assert set(vals.tolist()) <= {0.0, grass}
        assert (scan.power == grass).mean() > 0.5
        assert scan.power.shape == (400, simworld.radar_bin_count(cfg))

    def test_speckle_mean_preserves_reflectivity_order(self):
        cfg = small_config()
        world = generate_world(0, cfg)
        pose = (world.extent_m / 2, world.extent_m / 2, 0.0)
        scan = synth_radar(world, pose, cfg, 3)
        # classify each bin by the underlying terrain
        res = cfg.range_resolution
        angles = pose[2] + 2 * np.pi * np.arange(400) / 400
        ranges = (np.arange(scan.power.shape[1]) + 0.5) * res
        px = pose[0] + np.cos(angles)[:, None] * ranges[None, :]
        py = pose[1] + np.sin(angles)[:, None] * ranges[None, :]
        terrain = world.terrain_at(px, py)
        inside = ((px >= 0) & (px < world.extent_m)
                  & (py >= 0) & (py < world.extent_m))
        means = {}
        for cls in (TerrainClass.GRASS, TerrainClass.GRAVEL):
            sel = inside & (terrain == int(cls))
            assert sel.sum() > 1000
            means[cls] = scan.power[sel].mean()
        assert means[TerrainClass.GRAVEL] > means[TerrainClass.GRASS]

    def test_speckle_is_exponential(self):
        # unit-mean exponential: variance == mean^2 (within 20% at n=1e4)
        cfg = small_config(scatterer_density=0.0)
        world = generate_world(0, cfg)
        world.grid[:] = int(TerrainClass.GRASS)
        pose = (world.extent_m / 2, world.extent_m / 2, 0.0)
        scan = synth_radar(world, pose, cfg, 1)
        vals = scan.power[scan.power > 0][:10000]
        assert len(vals) == 10000
        m, v = vals.mean(), vals.var()
        assert abs(v - m * m) / (m * m) < 0.2

    def test_shadow_attenuates_beyond_scatterer(self):
        cfg = small_config(speckle_on=False)
        world = generate_world(0, cfg)
        world.grid[:] = int(TerrainClass.GRASS)
        center = world.extent_m / 2
        pose = (center, center, 0.0)
        scat = np.array([[center + 5.0, center]])
        plain = synth_radar(world, pose, cfg, 0)
        shadowed = synth_radar(world, pose, cfg, 0, scatterers=scat)
        res = cfg.range_resolution
        scatter_bin = int(5.0 / res)
        beyond = slice(scatter_bin + 1, None)
        assert np.all(shadowed.power[0, beyond]
                      <= cfg.shadow_attenuation * plain.power[0, beyond]
                      + 1e-12)
        assert shadowed.power[0, scatter_bin] > plain.power[0, scatter_bin]

    def test_pose_outside_map(self):
        cfg = small_config()
        world = generate_world(0, cfg)
        with pytest.raises(ValueError):
            synth_radar(world, (-1.0, 5.0, 0.0), cfg, 0)


def straight_truth(duration_s, dt=0.1, speed=1.0):
    n = int(round(duration_s / dt)) + 1
    t = np.arange(n) * dt
    poses = np.column_stack([speed * t, np.zeros(n), np.zeros(n)])
    return simworld.GroundTruth(timestamps=t, poses=poses,
                                terrain_at_pose=np.zeros(n, dtype=np.int64))


def dead_reckon(vo, start_pose):
    x, y, yaw = start_pose
    for _, dx, dy, dyaw in vo:
        c, s = np.cos(yaw), np.sin(yaw)
        x += c * dx - s * dy
        y += s * dx + c * dy
        yaw += dyaw
    return x, y, yaw


class TestVoGps:
    def test_noiseless_vo_dead_reckons_exactly(self):
        cfg = small_config(vo_trans_sigma=0.0, vo_yaw_sigma=0.0,
                           vo_yaw_drift=0.0)
        world = generate_world(0, cfg)
        truth = plan_traverse(world, 0, cfg)
        vo = synth_vo(truth, cfg, 0)
        x, y, yaw = dead_reckon(vo, truth.poses[0])
        assert abs(x - truth.poses[-1, 0]) < 1e-9
        assert abs(y - truth.poses[-1, 1]) < 1e-9

    def test_gps_rate(self):
        truth = straight_truth(100.0)
        cfg = small_config()
        gps = synth_gps(truth, cfg, 0)
        assert abs(len(gps) - 100) <= 1

    def test_yaw_drift_integrates_to_sixty_degrees(self):
        cfg = small_config(vo_trans_sigma=0.0, vo_yaw_sigma=0.0,
                           vo_yaw_drift=np.deg2rad(0.5))
        truth = straight_truth(120.0)
        vo = synth_vo(truth, cfg, 0)
        _, _, yaw = dead_reckon(vo, truth.poses[0])
        err_deg = np.rad2deg(yaw - truth.poses[-1, 2])
        assert abs(err_deg - 60.0) < 1e-6

    def test_streams_deterministic(self):
        cfg = small_config()
        truth = straight_truth(20.0)
        assert np.array_equal(synth_vo(truth, cfg, 9),
                              synth_vo(truth, cfg, 9))
        assert np.array_equal(synth_gps(truth, cfg, 9),
                              synth_gps(truth, cfg, 9))

    def test_too_few_poses(self):
        cfg = small_config()
        truth = simworld.GroundTruth(
            timestamps=np.array([0.0]), poses=np.zeros((1, 3)),
            terrain_at_pose=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError):
            synth_vo(truth, cfg, 0)
        with pytest.raises(ValueError):
            synth_gps(truth, cfg, 0)


class TestGroundTruthMask:
    def test_uniform_grass_all_zero(self):
        cfg = small_config()
        world = generate_world(0, cfg)
        world.grid[:] = int(TerrainClass.GRASS)
        pose = (world.extent_m / 2, world.extent_m / 2, 0.3)
        mask = simworld.ground_truth_mask(world, pose, 64, 0.4)
        assert not mask.any()

    def test_pixel_on_path_cell_is_one(self):
        cfg = small_config()
        world = generate_world(0, cfg)
        rows, cols = np.nonzero(world.grid == int(TerrainClass.GRAVEL))
        cx = (cols[0] + 0.5) * world.cell_size
        cy = (rows[0] + 0.5) * world.cell_size
        # yaw 0: scan-frame +x is world +x; centre pixel covers the pose
        mask = simworld.ground_truth_mask(world, (cx, cy, 0.0), 64, 0.4)
        assert mask[32, 32] == 1

    def test_path_fraction_matches_cell_counting(self):
        cfg = small_config()
        world = generate_world(5, cfg)
        size, mpp = 64, 0.4
        c = world.extent_m / 2
        mask = simworld.ground_truth_mask(world, (c, c, 0.0), size, mpp)
        half = size / 2 * mpp
        cs = world.cell_size
        h, w = world.grid.shape
        ys = (np.arange(h) + 0.5) * cs
        xs = (np.arange(w) + 0.5) * cs
        inx = (xs > c - half) & (xs < c + half)
        iny = (ys > c - half) & (ys < c + half)
        sub = world.grid[np.ix_(iny, inx)]
        cell_frac = (sub == int(TerrainClass.GRAVEL)).mean()
        assert abs(mask.mean() - cell_frac) < 0.02


class TestWorldIo:
    def test_world_roundtrip(self, tmp_path):
        cfg = small_config()
        world = generate_world(6, cfg)
        simworld.save_world(world, tmp_path / "world.json",
                            tmp_path / "world.pgm")
        loaded = simworld.load_world(tmp_path / "world.json")
        np.testing.assert_array_equal(loaded.grid, world.grid)
        assert loaded.cell_size == world.cell_size
        for a, b in zip(loaded.path_polylines, world.path_polylines):
            np.testing.assert_array_equal(a.vertices, b.vertices)
            assert (a.width, a.untraversed) == (b.width, b.untraversed)

    def test_poses_roundtrip(self, tmp_path):
        cfg = small_config()
        world = generate_world(6, cfg)
        truth = plan_traverse(world, 6, cfg)
        simworld.save_poses_csv(tmp_path / "poses.csv", truth)
        loaded = simworld.load_poses_csv(tmp_path / "poses.csv")
        np.testing.assert_allclose(loaded.timestamps, truth.timestamps,
                                   atol=1e-6)
        np.testing.assert_allclose(loaded.poses, truth.poses, atol=1e-9)
        np.testing.assert_array_equal(loaded.terrain_at_pose,
                                      truth.terrain_at_pose)
