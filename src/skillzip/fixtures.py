"""Synthetic weight/activation suites with controllable structure.

Each suite is a base weight set, K fine-tuned variants, and calibration
plus held-out evaluation activations. The fine-tuned deltas share a common
low-rank component (so merging has something to extract) on top of smaller
per-task low-rank parts with geometrically decaying energy (so rank-wise
rotation has concentration to disperse). Activations carry channel
outliers whose positions are stable between calibration and evaluation,
mirroring the task-stable outlier patterns smoothing relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .prng import Prng

TASK_NAMES = ("math", "code", "chat", "web", "dialog")


@dataclass
class SynthSuite:
    base: dict[str, np.ndarray]
    tuned: dict[str, dict[str, np.ndarray]]  # task id -> layer -> weights
    calib: dict[str, np.ndarray]  # layer -> (T, C_i)
    eval_x: dict[str, np.ndarray]  # layer -> (T, C_i)


def _low_rank(rng: Prng, c_in: int, c_out: int, rank: int, scale: float, decay: float = 1.0) -> np.ndarray:
    """Sum of `rank` outer products; component j is scaled by decay^j."""
    total = np.zeros((c_in, c_out), dtype=np.float64)
    # Row j holds u_j then v_j, in the order the stream draws them.
    draws = rng.gauss_block(rank * (c_in + c_out)).reshape(rank, c_in + c_out)
    for j, row in enumerate(draws):
        total += (scale * decay**j) * np.outer(row[:c_in], row[c_in:]) / np.sqrt(c_in * c_out)
    return total.astype(np.float32)


def outlier_activations(rng: Prng, tokens: int, channels: int, columns: list[int], ratio: float) -> np.ndarray:
    """Uniform activations in [-15, 15] with `columns` scaled by `ratio`.
    Deterministic under the generator's state."""
    x = rng.uniform_matrix(tokens, channels, -15.0, 15.0)
    x[:, columns] *= np.float32(ratio)
    return x


def make_suite(
    seed: int,
    n_tasks: int = 3,
    n_layers: int = 1,
    c_in: int = 256,
    c_out: int = 256,
    calib_tokens: int = 64,
    eval_tokens: int = 64,
    shared_rank: int = 28,
    task_rank: int = 8,
    outlier_channels: int = 6,
    outlier_ratio: float = 100.0,
) -> SynthSuite:
    """Deterministic suite for a given seed; activations are uniform in
    [-15, 15] before the outlier columns are scaled."""
    sizes = dict(n_tasks=n_tasks, n_layers=n_layers, c_in=c_in, c_out=c_out, calib_tokens=calib_tokens, eval_tokens=eval_tokens)
    for name, size in sizes.items():  # a negative n_tasks would slice TASK_NAMES from the end
        if size < 1:
            raise ValidationError(f"suite size {name}={size} gives an empty shape; every size must be >= 1")
    if not (0 <= outlier_channels < c_in):
        raise ValidationError(f"outlier channel count must lie in [0, {c_in}), got {outlier_channels}")
    with np.errstate(over="ignore"):  # the outlier columns' peak |x|, as outlier_activations scales it
        peak = np.float32(15.0) * np.float32(outlier_ratio)
    if not (np.isfinite(peak) and outlier_ratio >= 1.0):
        raise ValidationError(f"outlier ratio must be finite and >= 1, with 15 * ratio finite in float32, got {outlier_ratio!r}")
    rng = Prng(seed)
    layer_names = [f"layer{i}" for i in range(n_layers)]
    tasks = list(TASK_NAMES[:n_tasks]) + [f"task{i}" for i in range(len(TASK_NAMES), n_tasks)]

    base: dict[str, np.ndarray] = {}
    shared_parts: dict[str, np.ndarray] = {}
    calib: dict[str, np.ndarray] = {}
    eval_x: dict[str, np.ndarray] = {}
    tuned: dict[str, dict[str, np.ndarray]] = {t: {} for t in tasks}

    for name in layer_names:
        lrng = rng.spawn(f"suite/{name}")
        base[name] = (lrng.gauss_matrix(c_in, c_out) * np.float32(0.05)).astype(np.float32)
        shared_parts[name] = _low_rank(lrng.spawn("shared"), c_in, c_out, shared_rank, scale=1.0, decay=0.85)

        cols = lrng.spawn("outliers").choice_indices(c_in, outlier_channels) if outlier_channels else []
        calib[name] = outlier_activations(lrng.spawn("calib"), calib_tokens, c_in, cols, outlier_ratio)
        eval_x[name] = outlier_activations(lrng.spawn("eval"), eval_tokens, c_in, cols, outlier_ratio)

        for task in tasks:
            part = _low_rank(lrng.spawn(f"task/{task}"), c_in, c_out, task_rank, scale=0.6, decay=0.7)
            tuned[task][name] = (base[name] + shared_parts[name] + part).astype(np.float32)

    return SynthSuite(base=base, tuned=tuned, calib=calib, eval_x=eval_x)
