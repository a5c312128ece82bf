"""Deterministic substream derivation for reproducible parallel Monte Carlo.

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

from .channel import _U64_MAX, _check_integer

__all__ = ["CHUNK_TRIALS", "philox_key", "substream", "BlockSampler"]

# trials per substream of the Monte Carlo engine; part of the contract, so
# changing it changes every result
CHUNK_TRIALS = 4096


def philox_key(seed: int) -> np.ndarray:
    """128-bit Philox key derived from a master seed (two uint64 words)."""
    return np.random.SeedSequence(_check_integer("seed", seed)).generate_state(2, np.uint64)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent random stream for ``(seed, index)``.

    Two calls with the same arguments yield generators that produce
    bit-identical sequences; distinct indices yield independent streams.
    """
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = _check_integer("stream index", index)
    bitgen = np.random.Philox(key=philox_key(seed), counter=counter)
    return np.random.Generator(bitgen)


class BlockSampler:
    """Fast repeated access to the substreams of one master seed.

    Reuses a single Philox instance and jumps its counter to the block of
    each requested index, which is much cheaper than constructing a fresh
    generator per index while producing bit-identical output (verified by
    the test suite against :func:`substream`).

    :meth:`stream` writes the whole Philox state through its public
    ``state`` setter: the key, the counter ``[0, 0, 0, index]``, an empty
    output buffer (``buffer_pos = 4``, so the first draw generates a fresh
    block) and no cached 32-bit half.  Nothing of the previous index
    survives, however many words the previous draws consumed.  The template
    holds plain Python ints, not numpy's ``uint64`` arrays: the setter reads
    the words one by one, and reading an array element boxes a numpy scalar
    each time, which made the reset cost about three times as much.

    ``index`` must be an integer in ``[0, 2**64)`` (``np.integer``
    included); a bool, a float or any other value is refused with the
    :class:`~lsrsim.channel.ConfigError` of :func:`substream`.
    """

    def __init__(self, seed: int):
        key = philox_key(seed)
        self._bitgen = np.random.Philox(key=key)
        self._generator = np.random.Generator(self._bitgen)
        # template state reapplied by every stream() call, which writes
        # counter[3]
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": [int(key[0]), int(key[1])]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def stream(self, index: int) -> np.random.Generator:
        """The sampler's one Generator, reset to the start of substream
        ``index``; the next call resets it again."""
        if not (type(index) is int and 0 <= index <= _U64_MAX):
            index = _check_integer("stream index", index)
        self._counter[3] = index
        self._bitgen.state = self._state
        return self._generator

    def normals(self, index: int, out: np.ndarray) -> None:
        """Fill ``out`` with the first standard normals of substream ``index``."""
        self.stream(index).standard_normal(out=out)
