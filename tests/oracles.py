"""Reference computations the tests hold the package's fast paths to.

They are kept out of `src/` so that the package does not carry code that
only tests call, nor the imports that only this code needs (`scipy.signal`).
"""

import numpy as np
from scipy.signal import fftconvolve

from radroute.dsp import (FLOOR_DB, AudioClip, GammatoneFilterbank,
                          TimeFrequencyImage, frame_count, power_db)


def gammatonegram_direct(clip: AudioClip, filterbank: GammatoneFilterbank,
                         frame_len: int = 441,
                         floor_db: float = FLOOR_DB) -> TimeFrequencyImage:
    """Gammatonegram by direct per-channel convolution and framed energy sums."""
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    x = clip.samples
    if len(x) < frame_len:
        raise ValueError("clip shorter than one frame")
    n_frames = frame_count(len(x), frame_len, frame_len)
    n_used = n_frames * frame_len
    n_ch = len(filterbank.center_freqs)
    values = np.empty((n_ch, n_frames), dtype=np.float64)
    for i in range(n_ch):
        ir = filterbank.impulse_response(i, clip.sample_rate)
        y = fftconvolve(x, ir)[:n_used]
        energy = (y ** 2).reshape(n_frames, frame_len).sum(axis=1)
        values[i] = power_db(energy, floor_db)
    return TimeFrequencyImage(
        values=values,
        channel_freqs=filterbank.center_freqs,
        axis_kind="gammatone",
        floor_db=floor_db,
    )
