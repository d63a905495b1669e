import tracemalloc

import numpy as np
import pytest

from radroute import canvas, formats, pipeline, simworld
from radroute.errors import ConfigurationError
from radroute.simworld import (TerrainClass, generate_world, plan_traverse,
                               synth_audio, synth_gps, synth_radar, synth_vo)

NO_SCATTERERS = np.zeros((0, 2))


def small_config(radar_profile="short", **simworld):
    """The default simworld section on a 64-cell grid, with overrides."""
    return pipeline.sim_config(pipeline.resolve_config(
        {"simworld": {"grid_size": 64, **simworld}}), radar_profile)


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
            small_config(grid_size=32)


def rasterize_oracle(shape, cell_size, vertices, width):
    """Every segment's distance evaluated over the full grid."""
    h, w = shape
    px, py = np.meshgrid((np.arange(w) + 0.5) * cell_size,
                         (np.arange(h) + 0.5) * cell_size)
    mask = np.zeros(shape, dtype=bool)
    for a, b in zip(vertices[:-1], vertices[1:]):
        mask |= simworld._segment_distance(px, py, a[0], a[1], b[0],
                                           b[1]) <= width / 2.0
    return mask


class TestRasterizeBoundingBox:
    @pytest.mark.parametrize("vertices", [
        [[-5.0, 3.0], [10.0, 12.0], [30.0, -4.0]],    # leaves bottom edge
        [[20.0, 10.0], [27.0, 10.0], [40.0, 30.0]],   # leaves right, top
        [[-3.0, -3.0], [-3.0, -3.0], [5.0, 5.0]],     # zero-length, outside
        [[12.0, 12.0], [12.0, 12.0]],                 # zero-length, inside
        [[12.3, 8.1], [12.3, 8.1], [12.3, 8.1], [0.2, 25.0]],
        [[-9.0, -9.0], [-2.0, 40.0]],                 # wholly off the grid
        [[0.0, 0.0], [25.6, 25.6]],                   # corner to corner
    ])
    @pytest.mark.parametrize("width", [0.0, 1.0, 3.0, 7.3])
    def test_matches_full_grid_oracle(self, vertices, width):
        vertices = np.array(vertices)
        got = simworld._rasterize_polyline((48, 64), 0.4, vertices, width)
        want = rasterize_oracle((48, 64), 0.4, vertices, width)
        assert np.array_equal(got, want)

    def test_generated_world_paths(self):
        world = generate_world(11, small_config(cell_size=0.37))
        for poly in world.path_polylines:
            got = simworld._rasterize_polyline(world.grid.shape,
                                               world.cell_size,
                                               poly.vertices, poly.width)
            want = rasterize_oracle(world.grid.shape, world.cell_size,
                                    poly.vertices, poly.width)
            assert got.any() and np.array_equal(got, want)


class TestPlanTraverse:
    def test_poses_inside_map(self):
        cfg = small_config()
        world = generate_world(1, cfg)
        truth = plan_traverse(world, cfg)
        x, y = truth.poses[:, 0], truth.poses[:, 1]
        assert np.all((x >= 0) & (x < world.extent_m))
        assert np.all((y >= 0) & (y < world.extent_m))

    def test_two_terrain_classes_present(self):
        cfg = small_config()
        world = generate_world(1, cfg)
        truth = plan_traverse(world, cfg)
        classes = set(truth.terrain_at_pose.tolist())
        assert {int(TerrainClass.GRASS), int(TerrainClass.GRAVEL)} <= classes

    def test_constant_step_length(self):
        cfg = small_config()
        world = generate_world(2, cfg)
        truth = plan_traverse(world, cfg)
        steps = np.linalg.norm(np.diff(truth.poses[:, :2], axis=0), axis=1)
        dt = np.diff(truth.timestamps)
        assert np.abs(steps - cfg.speed * dt).max() < 1e-9

    def test_avoids_untraversed_branch(self):
        cfg = small_config()
        world = generate_world(4, cfg)
        truth = plan_traverse(world, cfg)
        branch = [p for p in world.path_polylines if p.untraversed][0]
        # distance from each pose to the branch, skipping the junction end
        far_vertex = branch.vertices[-1]
        d = np.hypot(truth.poses[:, 0] - far_vertex[0],
                     truth.poses[:, 1] - far_vertex[1])
        assert d.min() > branch.width


def synth_audio_oracle(terrain, duration_s, sample_rate, seed):
    """The per-clip synthesis formula: one rfft/irfft per clip."""
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(terrain),
                                                        0xA0D10]))
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    lo, hi = simworld.TERRAIN_AUDIO_BANDS[TerrainClass(terrain)]
    gain = np.ones_like(freqs)
    gain[(freqs >= lo) & (freqs <= hi)] = simworld.AUDIO_BAND_BOOST
    shaped = np.fft.irfft(spec * gain, n=n)
    shaped *= 0.9 / max(np.max(np.abs(shaped)), 1e-12)
    return shaped


class TestSynthAudioBlocks:
    TERRAINS = [2, 0, 0, 1, 2, 1, 0, 1, 2, 2, 0]

    def check(self, duration_s, sample_rate, rows_per_block):
        seeds = [1000 + 7 * i for i in range(len(self.TERRAINS))]
        blocks = list(simworld.synth_audio_blocks(
            self.TERRAINS, duration_s, sample_rate, seeds))
        assert [len(b) for b in blocks] == rows_per_block
        rows = np.concatenate(blocks)
        for row, terrain, seed in zip(rows, self.TERRAINS, seeds):
            want = synth_audio_oracle(terrain, duration_s, sample_rate,
                                      seed)
            assert np.array_equal(row, want)

    def test_mixed_terrains_across_block_boundaries(self, monkeypatch):
        # 441-sample clips, four to a block: 4 + 4 + 3
        monkeypatch.setattr(simworld, "SYNTH_BLOCK_SAMPLES", 4 * 441 + 440)
        self.check(0.01, 44100.0, [4, 4, 3])

    def test_default_budget_half_second_windows(self):
        per_block = simworld.SYNTH_BLOCK_SAMPLES // 22050
        assert 1 < per_block < len(self.TERRAINS) * 3
        self.TERRAINS = self.TERRAINS * 3
        n = len(self.TERRAINS)
        self.check(0.5, 44100.0,
                   [per_block] * (n // per_block) + [n % per_block])

    def test_clip_longer_than_budget_is_its_own_block(self, monkeypatch):
        monkeypatch.setattr(simworld, "SYNTH_BLOCK_SAMPLES", 1000)
        self.check(0.05, 44100.0, [1] * len(self.TERRAINS))

    def test_odd_length_and_rate(self):
        self.check(0.0371, 22050.0, [len(self.TERRAINS)])

    def test_traced_peak_per_sample_is_bounded(self):
        # the noise, its spectrum and irfft's copy of it: 24 bytes a
        # sample; no gain table, band mask or gathered gains
        n = 441000
        tracemalloc.start()
        try:
            for block in simworld.synth_audio_blocks([2], 10.0, 44100.0,
                                                     [5]):
                assert block.shape == (1, n)
            del block
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 28 * n, f"{peak / n:.1f} bytes a sample"

    def test_synth_audio_is_the_one_clip_case(self):
        for terrain in TerrainClass:
            clip = synth_audio(terrain, 0.5, 44100.0, 3)
            assert clip.sample_rate == 44100.0
            assert np.array_equal(clip.samples,
                                  synth_audio_oracle(terrain, 0.5, 44100.0,
                                                     3))


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
        scan = synth_radar(world, pose, cfg, 0, NO_SCATTERERS, 0.0)
        grass = simworld.TERRAIN_REFLECTIVITY[TerrainClass.GRASS]
        vals = np.unique(scan.power)
        assert set(vals.tolist()) <= {0.0, grass}
        assert (scan.power == grass).mean() > 0.5
        assert scan.power.shape == (400, simworld.radar_bin_count(cfg))

    def test_speckle_mean_preserves_reflectivity_order(self):
        cfg = small_config()
        world = generate_world(0, cfg)
        pose = (world.extent_m / 2, world.extent_m / 2, 0.0)
        scan = synth_radar(world, pose, cfg, 3, NO_SCATTERERS, 0.0)
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
        scan = synth_radar(world, pose, cfg, 1, NO_SCATTERERS, 0.0)
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
        plain = synth_radar(world, pose, cfg, 0, NO_SCATTERERS, 0.0)
        shadowed = synth_radar(world, pose, cfg, 0, scat, 0.0)
        res = cfg.range_resolution
        scatter_bin = int(5.0 / res)
        beyond = slice(scatter_bin + 1, None)
        assert np.all(shadowed.power[0, beyond]
                      <= simworld.SHADOW_ATTENUATION * plain.power[0, beyond]
                      + 1e-12)
        assert shadowed.power[0, scatter_bin] > plain.power[0, scatter_bin]

    def test_pose_outside_map(self):
        cfg = small_config()
        world = generate_world(0, cfg)
        with pytest.raises(ValueError):
            synth_radar(world, (-1.0, 5.0, 0.0), cfg, 0, NO_SCATTERERS, 0.0)


def reflectivity_oracle(world, pose, cfg):
    """Per-class masks over terrain_at (grass off the grid), zero beyond
    extent_m, at canvas.N_AZIMUTHS azimuths."""
    n_azimuths = canvas.N_AZIMUTHS
    ranges = (np.arange(simworld.radar_bin_count(cfg)) + 0.5) \
        * cfg.range_resolution
    angles = pose[2] + 2.0 * np.pi * np.arange(n_azimuths) / n_azimuths
    px = pose[0] + np.cos(angles)[:, None] * ranges[None, :]
    py = pose[1] + np.sin(angles)[:, None] * ranges[None, :]
    terrain = world.terrain_at(px, py)
    refl = np.zeros(terrain.shape)
    for cls, value in simworld.TERRAIN_REFLECTIVITY.items():
        refl[terrain == int(cls)] = value
    inside = ((px >= 0) & (px < world.extent_m)
              & (py >= 0) & (py < world.extent_m))
    refl[~inside] = 0.0
    return refl


class TestRadarReflectivityLookup:
    @pytest.mark.parametrize("cell_size", [0.4, 0.1, 0.37])
    def test_matches_terrain_at_oracle_near_every_edge(self, cell_size,
                                                       monkeypatch):
        monkeypatch.setattr(canvas, "N_AZIMUTHS", 90)
        cfg = small_config(cell_size=cell_size, speckle_on=False,
                           radar_profile="long")
        world = generate_world(2, cfg)
        world.grid[0, :] = world.grid[-1, :] = int(TerrainClass.ASPHALT)
        world.grid[:, 0] = world.grid[:, -1] = int(TerrainClass.GRAVEL)
        e = world.extent_m
        poses = [(0.0, e / 2, 0.1), (e - 1e-9, e / 2, 2.0),
                 (e / 2, 0.01, -1.0), (e / 2, e - 0.01, 0.7),
                 (0.05, 0.05, 0.3), (e - 0.2, e - 0.3, 4.0),
                 (e / 3, e / 4, 0.0)]
        for pose in poses:
            got = synth_radar(world, pose, cfg, 0, NO_SCATTERERS, 0.0).power
            want = reflectivity_oracle(world, pose, cfg)
            assert (want == 0).any()  # beams leave the grid
            assert np.array_equal(got, want), pose

    def test_inside_extent_past_the_last_cell_reads_grass(self):
        # 96 * 0.65 rounds to just above 62.4, while floor(62.4 / 0.65) is
        # 96: a beam sample at x = 62.4 lies inside extent_m but past the
        # last column, where terrain_at reads grass
        cfg = small_config(grid_size=96, cell_size=0.65, speckle_on=False)
        world = generate_world(1, cfg)
        world.grid[:, -1] = int(TerrainClass.GRAVEL)
        x = 62.4
        assert x < world.extent_m and np.floor(x / cfg.cell_size) == 96
        ranges = (np.arange(simworld.radar_bin_count(cfg)) + 0.5) \
            * cfg.range_resolution
        k = next(k for k, r in enumerate(ranges) if (x - r) + r == x)
        pose = (x - ranges[k], world.extent_m / 2, 0.0)  # azimuth 0 is +x
        power = synth_radar(world, pose, cfg, 0, NO_SCATTERERS, 0.0).power
        assert power[0, k] == simworld.TERRAIN_REFLECTIVITY[TerrainClass.GRASS]
        assert np.array_equal(power, reflectivity_oracle(world, pose, cfg))

    def test_speckle_multiplies_the_same_reflectivity(self):
        cfg = small_config()
        world = generate_world(4, cfg)
        pose = (1.0, world.extent_m - 2.0, 5.5)
        got = synth_radar(world, pose, cfg, 9, NO_SCATTERERS, 0.0).power
        rng = np.random.default_rng(np.random.SeedSequence([9, 0x4ADA]))
        want = reflectivity_oracle(world, pose, cfg)
        want = want * rng.exponential(1.0, size=want.shape)
        assert np.array_equal(got, want)


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
                           vo_yaw_drift_deg_s=0.0)
        world = generate_world(0, cfg)
        truth = plan_traverse(world, cfg)
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
                           vo_yaw_drift_deg_s=0.5)
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
        truth = plan_traverse(world, cfg)
        formats.write_csv(tmp_path / "poses.csv", pipeline.POSE_COLUMNS,
                          np.column_stack([truth.timestamps, truth.poses,
                                           truth.terrain_at_pose]))
        loaded = formats.read_csv(tmp_path / "poses.csv",
                                  pipeline.POSE_COLUMNS)
        np.testing.assert_allclose(loaded[:, 0], truth.timestamps, atol=1e-6)
        np.testing.assert_allclose(loaded[:, 1:4], truth.poses, atol=1e-9)
        np.testing.assert_array_equal(loaded[:, 4], truth.terrain_at_pose)


class TestSimulateStream:
    # gate 9's config (tests/test_acceptance.py)
    GATE9 = {
        "seed": 7,
        "simworld": {"grid_size": 96, "scatterer_density": 300.0},
        "audio": {"clips_per_class": 40, "recordings_per_class": 2,
                  "epochs": 1, "trials": 1},
        "canvas": {"image_size": 96},
        "segmentation": {"stage1_steps": 20, "stage2_steps": 4,
                         "crops_per_scan": 10, "n_rotations": 2,
                         "crop": 32},
        "eval": {"eval_scans_per_world": 2, "min_pixel_accuracy": 0.0,
                 "min_iou": 0.0},
    }

    def test_peak_traced_memory_is_bounded(self, tmp_path):
        # the traverse stream (about 18 MB as float64 here) is synthesized
        # and written in blocks, never held whole
        cfg = pipeline.resolve_config(self.GATE9)
        tracemalloc.start()
        try:
            pipeline.run_simulate(cfg, str(tmp_path / "run"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_no_training_scan_fails_before_writing(self, tmp_path):
        cfg = pipeline.resolve_config(
            {**self.GATE9, "simworld": {**self.GATE9["simworld"],
                                        "scan_interval_s": 1e6}})
        out = tmp_path / "run"
        with pytest.raises(ConfigurationError,
                           match="simworld.scan_interval_s"):
            pipeline.run_simulate(cfg, str(out))
        assert not out.exists()
