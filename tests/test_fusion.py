import numpy as np
import pytest

from radroute import formats, fusion, pipeline, simworld
from radroute.errors import AssociationError, InputError, NumericError
from radroute.fusion import (EkfState, ekf_predict, ekf_update, fuse,
                             label_trajectory, wrap_angle)
from radroute.simworld import TerrainClass

from oracles import load_labeled_trajectory_csv

# the process noise of fuse's callers at the default VO noise levels
Q = fusion.default_process_noise(0.01, 0.002)


def small_config(**simworld):
    """The default simworld section on a 64-cell grid, with overrides."""
    return pipeline.sim_config(pipeline.resolve_config(
        {"simworld": {"grid_size": 64, **simworld}}), "short")


def fresh_state(mean=(0.0, 0.0, 0.0), cov=None):
    cov = np.eye(3) * 0.5 if cov is None else cov
    return EkfState(mean=np.array(mean, dtype=float), covariance=cov)


class TestWrapAngle:
    def test_range(self):
        a = wrap_angle(np.linspace(-20, 20, 1001))
        assert np.all(a > -np.pi) and np.all(a <= np.pi)

    def test_boundaries(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert abs(wrap_angle(3 * np.pi / 2) + np.pi / 2) < 1e-12


class TestPredict:
    def test_zero_increment_zero_q(self):
        s0 = fresh_state()
        s1 = ekf_predict(s0, (1.0, 0.0, 0.0, 0.0), np.zeros((3, 3)))
        np.testing.assert_array_equal(s1.mean, s0.mean)
        np.testing.assert_array_equal(s1.covariance, s0.covariance)

    def test_zero_increment_nonzero_q(self):
        s0 = fresh_state()
        q = np.diag([0.1, 0.1, 0.01])
        s1 = ekf_predict(s0, (1.0, 0.0, 0.0, 0.0), q)
        np.testing.assert_array_equal(s1.mean, s0.mean)
        assert np.trace(s1.covariance) > np.trace(s0.covariance)

    def test_rotation(self):
        s0 = fresh_state(mean=(0.0, 0.0, np.pi / 2))
        s1 = ekf_predict(s0, (1.0, 1.0, 0.0, 0.0), np.zeros((3, 3)))
        np.testing.assert_allclose(s1.mean[:2], [0.0, 1.0], atol=1e-12)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(0)
        state = fresh_state()
        q = np.diag([1e-4, 1e-4, 1e-6])
        for i in range(200):
            vo = (i * 0.1, rng.normal(0, 0.1), rng.normal(0, 0.1),
                  rng.normal(0, 0.05))
            state = ekf_predict(state, vo, q)
            p = state.covariance
            np.testing.assert_array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() >= -1e-9


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        s0 = fresh_state(mean=(3.0, -2.0, 0.4))
        s1 = ekf_update(s0, (0.0, 3.0, -2.0, 1.5))
        np.testing.assert_allclose(s1.mean, s0.mean, atol=1e-12)

    def test_position_covariance_contracts(self):
        s0 = fresh_state()
        s1 = ekf_update(s0, (0.0, 1.0, 1.0, 2.0))
        assert np.trace(s1.covariance[:2, :2]) <= np.trace(
            s0.covariance[:2, :2]) + 1e-12

    def test_infinite_sigma_no_effect(self):
        s0 = fresh_state(mean=(1.0, 2.0, 0.1))
        s1 = ekf_update(s0, (0.0, 50.0, -50.0, 1e12))
        np.testing.assert_allclose(s1.mean, s0.mean, atol=1e-9)
        np.testing.assert_allclose(s1.covariance, s0.covariance, atol=1e-9)

    def test_non_finite_fix_rejected(self):
        with pytest.raises(NumericError):
            ekf_update(fresh_state(), (0.0, np.nan, 0.0, 1.0))


def straight_truth(duration_s, dt=0.1, speed=1.0):
    n = int(round(duration_s / dt)) + 1
    t = np.arange(n) * dt
    poses = np.column_stack([speed * t, np.zeros(n), np.zeros(n)])
    return simworld.GroundTruth(timestamps=t, poses=poses,
                                terrain_at_pose=np.zeros(n, dtype=np.int64))


class TestFuse:
    def test_noise_free_recovers_truth(self):
        cfg = small_config(vo_trans_sigma=0.0, vo_yaw_sigma=0.0,
                           vo_yaw_drift_deg_s=0.0, gps_sigma=1e-6)
        world = simworld.generate_world(0, cfg)
        truth = simworld.plan_traverse(world, cfg)
        vo = simworld.synth_vo(truth, cfg, 0)
        traj = fuse(vo, np.zeros((0, 4)), truth.poses[0], np.zeros((3, 3)),
                    0.0)
        np.testing.assert_allclose(traj[:, 1:3], truth.poses[1:, :2],
                                   atol=1e-9)
        dyaw = wrap_angle(traj[:, 3] - truth.poses[1:, 2])
        assert np.abs(dyaw).max() < 1e-9

    def test_fused_beats_gps_and_bounds_yaw(self):
        # Monte Carlo at default noise over ~100 s (the 20-seed sweep and
        # the 60-degree drift scenario run in the acceptance suite)
        cfg = small_config()
        world = simworld.generate_world(0, cfg)
        truth = simworld.plan_traverse(world, cfg)
        wins = 0
        for seed in range(3):
            vo = simworld.synth_vo(truth, cfg, seed)
            gps = simworld.synth_gps(truth, cfg, seed)
            traj = fuse(vo, gps, truth.poses[0],
                        q=fusion.default_process_noise(cfg.vo_trans_sigma,
                                                       cfg.vo_yaw_sigma),
                        yaw_drift_rate=np.deg2rad(cfg.vo_yaw_drift_deg_s))
            fused_rmse = np.sqrt(np.mean(
                np.sum((traj[:, 1:3] - truth.poses[1:, :2]) ** 2, axis=1)))
            gx = np.interp(truth.timestamps, gps[:, 0], gps[:, 1])
            gy = np.interp(truth.timestamps, gps[:, 0], gps[:, 2])
            gps_rmse = np.sqrt(np.mean((gx - truth.poses[:, 0]) ** 2
                                       + (gy - truth.poses[:, 1]) ** 2))
            wins += fused_rmse <= 0.5 * gps_rmse
            yaw_err = np.rad2deg(abs(float(
                wrap_angle(traj[-1, 3] - truth.poses[-1, 2]))))
            assert yaw_err <= 5.0
        assert wins == 3

    def test_no_yaw_jumps_across_pi(self):
        # drive a full circle so yaw crosses the +/- pi boundary
        n = 400
        t = np.arange(n) * 0.1
        yaw = np.linspace(0, 2 * np.pi, n)
        poses = np.column_stack([np.cos(yaw), np.sin(yaw), wrap_angle(yaw)])
        truth = simworld.GroundTruth(timestamps=t, poses=poses,
                                     terrain_at_pose=np.zeros(n, np.int64))
        cfg = small_config(vo_trans_sigma=0.0, vo_yaw_sigma=0.0,
                           vo_yaw_drift_deg_s=0.0)
        vo = simworld.synth_vo(truth, cfg, 0)
        traj = fuse(vo, np.zeros((0, 4)), truth.poses[0], Q, 0.0)
        assert np.all(traj[:, 3] > -np.pi) and np.all(traj[:, 3] <= np.pi)
        steps = wrap_angle(np.diff(traj[:, 3]))
        assert np.abs(steps).max() < np.pi / 8

    def test_unordered_streams_rejected(self):
        vo = np.array([[0.1, 0, 0, 0], [0.05, 0, 0, 0]])
        with pytest.raises(InputError):
            fuse(vo, np.zeros((0, 4)), (0, 0, 0), Q, 0.0)
        vo_ok = np.array([[0.1, 0, 0, 0], [0.2, 0, 0, 0]])
        gps = np.array([[1.0, 0, 0, 1.0], [0.5, 0, 0, 1.0]])
        with pytest.raises(InputError):
            fuse(vo_ok, gps, (0, 0, 0), Q, 0.0)

    def test_deterministic(self):
        cfg = small_config()
        truth = straight_truth(30.0)
        vo = simworld.synth_vo(truth, cfg, 1)
        gps = simworld.synth_gps(truth, cfg, 1)
        a = fuse(vo, gps, truth.poses[0], Q, 0.0)
        b = fuse(vo, gps, truth.poses[0], Q, 0.0)
        assert np.array_equal(a, b)


class Pred:
    def __init__(self, timestamp, terrain=1, probabilities=(0.1, 0.8, 0.1)):
        self.timestamp = timestamp
        self.terrain = terrain
        self.probabilities = np.array(probabilities)


class TestLabelTrajectory:
    def traj(self, times):
        return np.column_stack([times, times, np.zeros_like(times),
                                np.zeros_like(times)])

    def test_aligned_streams_all_match(self):
        times = np.arange(0.25, 10.0, 0.5)
        preds = [Pred(t) for t in times]
        lt = label_trajectory(self.traj(times), preds)
        assert len(lt) == len(preds)
        assert lt.dropped == 0

    def test_out_of_window_dropped(self):
        times = np.array([0.0, 0.5, 1.0])
        preds = [Pred(0.5), Pred(1.3)]
        lt = label_trajectory(self.traj(times), preds)
        assert len(lt) == 1 and lt.dropped == 1

    def test_no_match_raises(self):
        with pytest.raises(AssociationError):
            label_trajectory(self.traj(np.array([0.0, 0.1])), [Pred(5.0)])

    def test_empty_inputs_raise(self):
        with pytest.raises(AssociationError):
            label_trajectory(np.zeros((0, 4)), [Pred(0.0)])
        with pytest.raises(AssociationError):
            label_trajectory(self.traj(np.array([0.0])), [])

    def test_noise_free_labels_match_map_lookup(self):
        cfg = small_config(vo_trans_sigma=0.0, vo_yaw_sigma=0.0,
                           vo_yaw_drift_deg_s=0.0)
        world = simworld.generate_world(2, cfg)
        truth = simworld.plan_traverse(world, cfg)
        vo = simworld.synth_vo(truth, cfg, 0)
        traj = fuse(vo, np.zeros((0, 4)), truth.poses[0], np.zeros((3, 3)),
                    0.0)
        times = np.arange(0.25, truth.timestamps[-1], 0.5)
        preds = [Pred(t, terrain=int(world.terrain_at(
            np.interp(t, truth.timestamps, truth.poses[:, 0]),
            np.interp(t, truth.timestamps, truth.poses[:, 1]))))
            for t in times]
        lt = label_trajectory(traj, preds)
        looked_up = world.terrain_at(lt.poses[:, 0], lt.poses[:, 1])
        agree = (looked_up == lt.terrain)
        # poses within a VO step of a class boundary may flip either way;
        # everything else must agree exactly
        assert agree.mean() > 0.97

    def test_csv_roundtrip(self, tmp_path):
        times = np.arange(0.25, 5.0, 0.5)
        preds = [Pred(t, terrain=int(TerrainClass.GRAVEL)) for t in times]
        lt = label_trajectory(self.traj(times), preds)
        formats.write_csv(tmp_path / "lt.csv", pipeline.LABELED_COLUMNS,
                          np.column_stack([lt.timestamps, lt.poses,
                                           lt.terrain, lt.confidence]))
        back = load_labeled_trajectory_csv(tmp_path / "lt.csv")
        np.testing.assert_allclose(back.timestamps, lt.timestamps, atol=1e-6)
        np.testing.assert_allclose(back.poses, lt.poses, atol=1e-9)
        np.testing.assert_array_equal(back.terrain, lt.terrain)
        np.testing.assert_allclose(back.confidence, lt.confidence, atol=1e-6)
