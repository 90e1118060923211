"""Per-channel activation statistics.

Profiles record, for every layer and input channel, the mean and max of
|activation| over all calibration tokens. The streaming accumulators are
float64 so splitting the same tokens into different batches gives the same
profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError


@dataclass
class LayerStats:
    mean_abs: np.ndarray  # (C,) float64, mean of |x| per input channel
    max_abs: np.ndarray  # (C,) float64, running max of |x|
    token_count: int


@dataclass
class CalibProfile:
    layers: dict[str, LayerStats] = field(default_factory=dict)

    def stats(self, layer: str) -> LayerStats:
        if layer not in self.layers:
            raise ValidationError(f"no calibration stats for layer {layer!r}")
        return self.layers[layer]


class _Accumulator:
    def __init__(self, channels: int):
        self.channels = channels
        self.abs_sum = np.zeros(channels, dtype=np.float64)
        self.abs_max = np.zeros(channels, dtype=np.float64)
        self.tokens = 0

    def add(self, x: np.ndarray) -> None:
        if x.shape[1] != self.channels:
            raise ShapeError(f"activation batch has {x.shape[1]} channels, expected {self.channels}")
        ax = np.abs(x.astype(np.float64))
        self.abs_sum += ax.sum(axis=0)
        np.maximum(self.abs_max, ax.max(axis=0), out=self.abs_max)
        self.tokens += x.shape[0]

    def finish(self) -> LayerStats:
        return LayerStats(self.abs_sum / self.tokens, self.abs_max.copy(), self.tokens)


def profile(activations: dict[str, list[np.ndarray]]) -> CalibProfile:
    """Stream per-channel |x| statistics over batches, per layer."""
    out = CalibProfile()
    for layer, batches in activations.items():
        if not batches:
            raise ValidationError(f"layer {layer!r} has no activation batches")
        acc = _Accumulator(batches[0].shape[1])
        for x in batches:
            acc.add(x)
        out.layers[layer] = acc.finish()
    return out
