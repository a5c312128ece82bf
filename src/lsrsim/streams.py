"""Deterministic substream derivation for reproducible Monte Carlo.

Every random draw in this package is tied to a ``(seed, index)`` pair, where
``seed`` is the user's master 64-bit seed and ``index`` is a nonnegative
substream index.  The Monte Carlo engine (:func:`lsrsim.outage.draw`) reads
trials in chunks of ``CHUNK_TRIALS``: substream ``k`` holds the variates of
trials ``[k * CHUNK_TRIALS, (k + 1) * CHUNK_TRIALS)``, so an index is a chunk
number.  The derivation is part of the package contract:

* the 128-bit Philox key for a master seed is
  ``np.random.SeedSequence(seed).generate_state(2, np.uint64)``;
* substream ``index`` starts the 256-bit Philox counter at ``index << 192``,
  i.e. counter words ``[0, 0, 0, index]`` in little-endian 64-bit order.

Distinct indices own disjoint counter blocks of 2**192 values each, which the
Philox construction guarantees to be statistically independent.  A substream
is a value-like token: what it produces depends only on ``(seed, index)``,
never on wall clock, thread identity, or draw order elsewhere.
"""

from __future__ import annotations

import numpy as np

from .channel import _check_integer

__all__ = ["CHUNK_TRIALS", "philox_key", "BlockSampler"]

# trials per substream of the Monte Carlo engine; part of the contract, so
# changing it changes every result
CHUNK_TRIALS = 4096


def philox_key(seed: int) -> np.ndarray:
    """128-bit Philox key derived from a master seed (two uint64 words)."""
    return np.random.SeedSequence(_check_integer("seed", seed)).generate_state(2, np.uint64)


class BlockSampler:
    """The substreams of one master seed, its key derived once.

    :meth:`stream` opens substream ``index`` as a fresh generator,
    ``Generator(Philox(key=key, counter=[0, 0, 0, index]))``, so nothing of
    the substreams opened before it survives.

    ``index`` must be an integer in ``[0, 2**64)`` (``np.integer``
    included); a bool, a float or any other value is refused with a
    :class:`~lsrsim.channel.ConfigError` naming ``stream index``.
    """

    def __init__(self, seed: int):
        self._key = philox_key(seed)

    def stream(self, index: int) -> np.random.Generator:
        """A new Generator at the start of substream ``index``."""
        # a uint64 array: numpy reads a list holding 2**64 - 1 as float64,
        # whose cast to uint64 warns of an invalid value
        counter = np.zeros(4, dtype=np.uint64)
        counter[3] = _check_integer("stream index", index)
        return np.random.Generator(np.random.Philox(key=self._key, counter=counter))

    def normals(self, index: int, out: np.ndarray) -> None:
        """Fill ``out`` with the first standard normals of substream ``index``."""
        self.stream(index).standard_normal(out=out)
