"""Deterministic random number helpers.

Every stochastic choice in the package (data generation, channel placement,
failure injection) flows through :class:`DeterministicRNG` seeded from a
single root seed, so identical configurations always reproduce identical
results and identical failure schedules.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a stable 64-bit child seed from a root seed and a name path.

    The derivation uses SHA-256 over the textual representation of the root
    seed and every name component, so adding new consumers never perturbs the
    streams of existing ones.
    """
    hasher = hashlib.sha256()
    hasher.update(str(root_seed).encode("utf-8"))
    for name in names:
        hasher.update(b"/")
        hasher.update(str(name).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little")


class DeterministicRNG:
    """A named, reproducible random stream built on ``numpy.random.Generator``."""

    def __init__(self, root_seed: int, *names: object):
        self._seed = derive_seed(root_seed, *names)
        self._generator = np.random.default_rng(self._seed)

    @property
    def seed(self) -> int:
        """The derived seed backing this stream."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator for bulk vectorised draws."""
        return self._generator

    def integers(self, low: int, high: int, size: int | None = None):
        """Draw integers uniformly from ``[low, high)``."""
        return self._generator.integers(low, high, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Draw floats uniformly from ``[low, high)``."""
        return self._generator.uniform(low, high, size=size)

    def choice(self, options: Sequence[T], size: int | None = None, replace: bool = True):
        """Choose among ``options`` uniformly."""
        indices = self._generator.choice(len(options), size=size, replace=replace)
        if size is None:
            return options[int(indices)]
        return [options[int(i)] for i in np.atleast_1d(indices)]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._generator.shuffle(items)

    def exponential(self, scale: float, size: int | None = None):
        """Draw from an exponential distribution with the given scale."""
        return self._generator.exponential(scale, size=size)

    def child(self, *names: object) -> "DeterministicRNG":
        """Create an independent child stream derived from this stream's seed."""
        return DeterministicRNG(self._seed, *names)


def stable_hash(value: object, buckets: int) -> int:
    """Hash ``value`` into ``[0, buckets)`` stably across processes.

    Python's built-in ``hash`` is salted per process for strings, so partition
    placement must not rely on it.
    """
    digest = hashlib.blake2b(repr(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


def stable_hash_array(values: Iterable[object], buckets: int) -> np.ndarray:
    """Vector form of :func:`stable_hash` for python-object iterables."""
    return np.array([stable_hash(v, buckets) for v in values], dtype=np.int64)
