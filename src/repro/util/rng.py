"""Deterministic random number generation.

Every stochastic decision in the library (random node choice in the
HDFS baseline policy, tie-break shuffles in retrieval ordering, workload
arrival jitter) draws from a :class:`DeterministicRng` so that a given
seed reproduces a run bit-for-bit. Components derive child generators
with :meth:`DeterministicRng.fork` keyed by a label, so adding a new
consumer does not perturb the streams of existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A labelled, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int | str = 0, label: str = "root") -> None:
        self.label = label
        self._seed = seed
        self._random = random.Random(self._digest(seed, label))

    @staticmethod
    def _digest(seed: int | str, label: str) -> int:
        payload = f"{seed}:{label}".encode()
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream keyed by ``label``."""
        return DeterministicRng(self._seed, f"{self.label}/{label}")

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        return self._random.sample(items, count)

    def shuffle(self, items: list[T]) -> list[T]:
        """Shuffle *in place* and return the list for chaining.

        ``random.Random.shuffle`` with its ``_randbelow`` inlined (the
        same body on Python 3.11 to 3.13): the same ``getrandbits`` draws,
        so the same permutation and the same stream afterwards.
        """
        getrandbits = self._random.getrandbits
        for i in range(len(items) - 1, 0, -1):
            # j uniform in [0, i]: rejection-sample (i + 1).bit_length() bits
            bits = (i + 1).bit_length()
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        return items

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy, leaving the input untouched."""
        return self.shuffle(list(items))

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)
