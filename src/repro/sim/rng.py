"""Deterministic random-number streams for the simulator.

Every stochastic component (network jitter, workload arrivals, keyboard
traces) draws from its own named stream forked off a single root seed,
so adding a new random consumer never perturbs the draws of existing
ones — runs stay comparable across code changes, which matters when
benchmarks compare configurations (E2, E5's checkpointing ablation).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


class RngStream:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "big"))

    def fork(self, name: str) -> "RngStream":
        """An independent stream derived from this one's identity."""
        return RngStream(self.seed, f"{self.name}/{name}")

    # -- draws -------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival times; *rate* is events per second."""
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def choices(self, seq, weights=None, k=1):
        return self._random.choices(seq, weights=weights, k=k)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, seq, k: int):
        return self._random.sample(seq, k)

    def random(self) -> float:
        return self._random.random()

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def bernoulli(self, p: float) -> bool:
        return self._random.random() < p
