"""EKF fusing body-frame odometry increments with noisy GPS position fixes.

State is (x, y, yaw). Odometry increments act as control input in the
prediction step; GPS observes position only. The fused trajectory is then
joined with the audio terrain predictions by nearest timestamp.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssociationError, InputError, NumericError


def wrap_angle(a):
    """Wrap to (-pi, pi]."""
    w = -((-np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi)
    return w


@dataclass
class EkfState:
    mean: np.ndarray  # (3,) x, y, yaw
    covariance: np.ndarray  # (3, 3)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).copy()
        self.covariance = np.asarray(self.covariance, dtype=np.float64).copy()
        if self.mean.shape != (3,) or self.covariance.shape != (3, 3):
            raise ValueError("state is (x, y, yaw) with a 3x3 covariance")


def _check_psd(p: np.ndarray):
    eigvals = np.linalg.eigvalsh(p)
    if eigvals.min() < -1e-9:
        raise NumericError(f"covariance not PSD (min eig {eigvals.min():g})")


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def ekf_predict(state: EkfState, vo, q: np.ndarray) -> EkfState:
    """Propagate by a body-frame increment (timestamp, dx, dy, dyaw)."""
    dx, dy, dyaw = float(vo[1]), float(vo[2]), float(vo[3])
    x, y, yaw = state.mean
    c, s = np.cos(yaw), np.sin(yaw)
    mean = np.array([
        x + c * dx - s * dy,
        y + s * dx + c * dy,
        wrap_angle(yaw + dyaw),
    ])
    f = np.array([
        [1.0, 0.0, -s * dx - c * dy],
        [0.0, 1.0, c * dx - s * dy],
        [0.0, 0.0, 1.0],
    ])
    p = _symmetrize(f @ state.covariance @ f.T + q)
    _check_psd(p)
    return EkfState(mean=mean, covariance=p)


def ekf_update(state: EkfState, gps) -> EkfState:
    """Position-only linear update from (timestamp, x, y, sigma)."""
    z = np.array([float(gps[1]), float(gps[2])])
    sigma = float(gps[3])
    if not np.all(np.isfinite(z)) or not np.isfinite(sigma):
        raise NumericError("non-finite GPS fix")
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    r = sigma * sigma * np.eye(2)
    p = state.covariance
    s = h @ p @ h.T + r
    try:
        k = np.linalg.solve(s.T, (p @ h.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular innovation covariance") from exc
    innov = z - state.mean[:2]
    mean = state.mean + k @ innov
    mean[2] = wrap_angle(mean[2])
    ikh = np.eye(3) - k @ h
    p_new = _symmetrize(ikh @ p @ ikh.T + k @ r @ k.T)
    _check_psd(p_new)
    return EkfState(mean=mean, covariance=p_new)


def default_process_noise(vo_trans_sigma: float,
                          vo_yaw_sigma: float) -> np.ndarray:
    """Per-step Q built directly from the configured VO noise levels."""
    return np.diag([vo_trans_sigma ** 2, vo_trans_sigma ** 2,
                    vo_yaw_sigma ** 2])


def fuse(vo_stream: np.ndarray, gps_stream: np.ndarray, init_pose,
         q: np.ndarray, yaw_drift_rate: float) -> np.ndarray:
    """Event-ordered predict/update sweep from init_pose, with covariance
    diag(0.01, 0.01, 1e-4), and per-step process noise q.

    vo_stream rows: (timestamp, dx, dy, dyaw); gps rows: (t, x, y, sigma).
    Emits one state row (timestamp, x, y, yaw) per VO timestamp. GPS fixes
    are applied as soon as the filter time passes them. yaw_drift_rate is
    the calibrated systematic yaw-rate bias of the odometry (rad/s),
    subtracted from each increment before prediction.
    """
    vo_stream = np.atleast_2d(np.asarray(vo_stream, dtype=np.float64))
    gps_stream = np.atleast_2d(np.asarray(gps_stream, dtype=np.float64))
    if np.any(np.diff(vo_stream[:, 0]) <= 0):
        raise InputError("VO timestamps must be strictly increasing")
    if len(gps_stream) and np.any(np.diff(gps_stream[:, 0]) < 0):
        raise InputError("GPS timestamps must be sorted")
    if yaw_drift_rate != 0.0:
        vo_stream = vo_stream.copy()
        dts = np.diff(vo_stream[:, 0])
        dt0 = float(np.median(dts)) if len(dts) else 0.0
        vo_stream[:, 3] -= yaw_drift_rate * np.concatenate([[dt0], dts])
    state = EkfState(mean=np.asarray(init_pose, dtype=np.float64),
                     covariance=np.diag([0.01, 0.01, 1e-4]))
    out = np.empty((len(vo_stream), 4))
    gi = 0
    for i, vo in enumerate(vo_stream):
        # apply any GPS fix at or before this VO time, then predict
        while gi < len(gps_stream) and gps_stream[gi, 0] <= vo[0]:
            state = ekf_update(state, gps_stream[gi])
            gi += 1
        state = ekf_predict(state, vo, q)
        out[i] = (vo[0], state.mean[0], state.mean[1], state.mean[2])
    return out


@dataclass
class LabeledTrajectory:
    """Timestamped fused poses each carrying an audio terrain label."""

    timestamps: np.ndarray
    poses: np.ndarray  # (n, 3)
    terrain: np.ndarray  # (n,) TerrainClass ints
    confidence: np.ndarray  # (n,) max class probability
    dropped: int

    def __len__(self):
        return len(self.timestamps)


ASSOCIATION_WINDOW_S = 0.25  # half an audio clip


def label_trajectory(trajectory: np.ndarray,
                     predictions) -> LabeledTrajectory:
    """Join terrain predictions to the nearest trajectory pose in time.

    trajectory rows: (timestamp, x, y, yaw). predictions: iterable of
    objects with .timestamp, .terrain (int) and .probabilities.
    Predictions further than ASSOCIATION_WINDOW_S from any pose are
    dropped.
    """
    trajectory = np.atleast_2d(np.asarray(trajectory, dtype=np.float64))
    predictions = list(predictions)
    if len(trajectory) == 0 or len(predictions) == 0:
        raise AssociationError("empty trajectory or prediction stream")
    traj_t = trajectory[:, 0]
    rows, dropped = [], 0
    for pred in predictions:
        i = int(np.argmin(np.abs(traj_t - pred.timestamp)))
        if abs(traj_t[i] - pred.timestamp) > ASSOCIATION_WINDOW_S:
            dropped += 1
            continue
        rows.append((pred.timestamp, trajectory[i, 1], trajectory[i, 2],
                     trajectory[i, 3], int(pred.terrain),
                     float(np.max(pred.probabilities))))
    if not rows:
        raise AssociationError("no prediction matched any pose")
    arr = np.array(rows)
    return LabeledTrajectory(timestamps=arr[:, 0], poses=arr[:, 1:4],
                             terrain=arr[:, 4].astype(np.int64),
                             confidence=arr[:, 5], dropped=dropped)
