"""Parameter bundles for the layer types the subnets are built from."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .tensor import Tensor, affine, conv1d, lstm_forward, uniform_param


def named_tensors(params, prefix: str) -> dict[str, Tensor]:
    """Every Tensor under a parameter dataclass, keyed by its dotted field path.

    Fields that are neither a Tensor nor a dataclass (a conv's dilation)
    are skipped; names follow field declaration order.
    """
    out: dict[str, Tensor] = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            out[f"{prefix}.{f.name}"] = value
        elif is_dataclass(value):
            out.update(named_tensors(value, f"{prefix}.{f.name}"))
    return out


@dataclass
class LinearParams:
    weight: Tensor  # (c_in, c_out)
    bias: Tensor    # (c_out,)

    @classmethod
    def create(cls, rng: np.random.Generator, c_in: int, c_out: int) -> "LinearParams":
        return cls(
            weight=uniform_param(rng, (c_in, c_out), fan_in=c_in),
            bias=uniform_param(rng, (c_out,), fan_in=c_in),
        )

    def apply(self, x: Tensor, activation: str = "none") -> Tensor:
        return affine(x, self.weight, self.bias, activation)


@dataclass
class ConvParams:
    weight: Tensor  # (k, c_in, c_out)
    bias: Tensor    # (c_out,)
    dilation: int

    @classmethod
    def create(cls, rng, kernel_size: int, c_in: int, c_out: int, dilation: int) -> "ConvParams":
        fan_in = kernel_size * c_in
        return cls(
            weight=uniform_param(rng, (kernel_size, c_in, c_out), fan_in=fan_in),
            bias=uniform_param(rng, (c_out,), fan_in=fan_in),
            dilation=dilation,
        )

    def apply(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, dilation=self.dilation)


@dataclass
class LstmParams:
    wx: Tensor    # (c_in, 4*hidden)
    wh: Tensor    # (hidden, 4*hidden)
    bias: Tensor  # (4*hidden,)

    @classmethod
    def create(cls, rng, c_in: int, hidden: int) -> "LstmParams":
        return cls(
            wx=uniform_param(rng, (c_in, 4 * hidden), fan_in=c_in),
            wh=uniform_param(rng, (hidden, 4 * hidden), fan_in=hidden),
            bias=uniform_param(rng, (4 * hidden,), fan_in=hidden),
        )

    def apply(self, seq: Tensor) -> Tensor:
        return lstm_forward(seq, self.wx, self.wh, self.bias)


@dataclass
class RankerParams:
    """Three-layer scoring MLP: c_in -> m (relu) -> m (relu) -> 1 (sigmoid).

    The second-layer activation doubles as the intermediate representation
    handed to the selection coupler.
    """

    fc1: LinearParams
    fc2: LinearParams
    fc3: LinearParams

    @classmethod
    def create(cls, rng, c_in: int, width: int) -> "RankerParams":
        return cls(
            fc1=LinearParams.create(rng, c_in, width),
            fc2=LinearParams.create(rng, width, width),
            fc3=LinearParams.create(rng, width, 1),
        )

    def apply(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Score each row of x; returns ((L,) scores, (L, m) intermediates)."""
        hidden = self.fc2.apply(self.fc1.apply(x, "relu"), "relu")
        scores = self.fc3.apply(hidden, "sigmoid")
        return scores.reshape((x.shape[0],)), hidden
