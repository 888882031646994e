"""Latency models.

A :class:`LatencyModel` turns an abstract operation into a number of
virtual seconds.  Network links and the TPM timing profiles sample
:class:`NormalLatency`; :class:`ConstantLatency` is a fixed cost, so a
link or profile can swap noise for a constant without touching
component code.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional


class LatencyModel(ABC):
    """Samples a non-negative latency in seconds."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one latency value using ``rng``."""

    @abstractmethod
    def mean(self) -> float:
        """Expected value of the distribution (used by analytical checks)."""

    def __call__(self, rng: random.Random) -> float:
        return self.sample(rng)


class ConstantLatency(LatencyModel):
    """Always returns the same value."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self.seconds = float(seconds)

    def sample(self, rng: random.Random) -> float:
        return self.seconds

    def mean(self) -> float:
        return self.seconds

    def __repr__(self) -> str:
        return f"ConstantLatency({self.seconds!r})"


class NormalLatency(LatencyModel):
    """Normal distribution truncated from below (clamped at a floor).

    The floor defaults to ``max(0, mu - 4*sigma)``: far enough out that
    clamping barely distorts the distribution.  Clamping (rather than
    resampling) keeps RNG consumption at exactly one draw per sample
    regardless of the outcome, so every downstream sample in the stream
    stays aligned across configurations.
    """

    def __init__(
        self, mu: float, sigma: float, floor: Optional[float] = None
    ) -> None:
        if mu < 0:
            raise ValueError(f"mean latency must be non-negative, got {mu}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        if floor is None:
            floor = max(0.0, self.mu - 4.0 * self.sigma)
        if floor < 0:
            raise ValueError(f"floor must be non-negative, got {floor}")
        if floor > mu:
            raise ValueError(f"floor {floor} exceeds mean {mu}")
        self.floor = float(floor)

    def sample(self, rng: random.Random) -> float:
        if self.sigma == 0:
            return self.mu
        value = rng.normalvariate(self.mu, self.sigma)
        return value if value >= self.floor else self.floor

    def mean(self) -> float:
        # The floor sits >= 4 sigma below mu for every model in this
        # repo, so the clamping bias is negligible; analytical consumers
        # only use models with mu >= 3*sigma.
        return self.mu

    def __repr__(self) -> str:
        return (
            f"NormalLatency(mu={self.mu!r}, sigma={self.sigma!r}, "
            f"floor={self.floor!r})"
        )
