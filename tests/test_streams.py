import numpy as np
import pytest

from lsrsim import BlockSampler, philox_key
from oracles import substream


def test_substream_reproducible():
    a = substream(123, 7).standard_normal(32)
    b = substream(123, 7).standard_normal(32)
    np.testing.assert_array_equal(a, b)


def test_substreams_differ_across_indices_and_seeds():
    base = substream(123, 0).standard_normal(16)
    assert not np.array_equal(base, substream(123, 1).standard_normal(16))
    assert not np.array_equal(base, substream(124, 0).standard_normal(16))


def test_derivation_is_documented_key_plus_counter_block():
    # the contract: SeedSequence-derived key, index in the top counter word
    key = np.random.SeedSequence(777).generate_state(2, np.uint64)
    np.testing.assert_array_equal(key, philox_key(777))
    counter = np.array([0, 0, 0, 42], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key, counter=counter))
    np.testing.assert_array_equal(
        ref.standard_normal(64), substream(777, 42).standard_normal(64)
    )


def test_block_sampler_matches_substream():
    sampler = BlockSampler(2024)
    out = np.empty(48)
    for index in (0, 1, 5, 1000, 2**40):
        sampler.normals(index, out)
        np.testing.assert_array_equal(out, substream(2024, index).standard_normal(48))


def test_block_sampler_is_order_independent():
    sampler = BlockSampler(9)
    a = np.empty(16)
    b = np.empty(16)
    sampler.normals(3, a)
    sampler.normals(8, b)
    a2 = np.empty(16)
    sampler.normals(3, a2)  # revisiting an index reproduces its draws
    np.testing.assert_array_equal(a, a2)


def test_block_sampler_stream_resets_after_gamma_draws():
    # the gamma sampler rejects, so it stops at a chance position in the
    # stream; the next stream() call must start its substream afresh
    sampler = BlockSampler(77)
    for index in (5, 0, 5, 2**64 - 1):
        rng, ref = sampler.stream(index), substream(77, index)
        np.testing.assert_array_equal(rng.standard_gamma(3, size=99), ref.standard_gamma(3, size=99))
        np.testing.assert_array_equal(rng.standard_normal(7), ref.standard_normal(7))


@pytest.mark.parametrize("index", [2**63, 2**64 - 1])
def test_block_sampler_matches_substream_at_top_indices(index):
    sampler = BlockSampler(2024)
    out = np.empty(48)
    sampler.normals(index, out)
    np.testing.assert_array_equal(out, substream(2024, index).standard_normal(48))


def test_block_sampler_resets_mid_block():
    # 4096 normals take a few dozen ziggurat rejections beyond 4096 words, so
    # each trial ends at a chance position inside a 4-word Philox block with
    # nonzero low counter words; the next trial must start from a fresh block
    sampler = BlockSampler(31)
    out = np.empty(4 * 1024)
    first = np.empty_like(out)
    for index in range(64):
        sampler.normals(index, out)
        np.testing.assert_array_equal(out, substream(31, index).standard_normal(out.size))
        if index == 0:
            first[:] = out
    sampler.normals(0, out)  # revisiting an index reproduces its draws
    np.testing.assert_array_equal(out, first)


@pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_range_validation(seed, index):
    with pytest.raises(ValueError):
        substream(seed, index)


@pytest.mark.parametrize("seed", [1.7, -0.5, 1.0, True, np.bool_(True)])
def test_non_integer_seed_refused(seed):
    with pytest.raises(ValueError, match="seed"):
        substream(seed, 0)
    with pytest.raises(ValueError, match="seed"):
        BlockSampler(seed)


@pytest.mark.parametrize("index", [1.5, 2.0, True])
def test_non_integer_index_refused(index):
    with pytest.raises(ValueError, match="index"):
        substream(3, index)


@pytest.mark.parametrize("index", [1.5, 2.0, True, np.bool_(True), "3", None, -1, 2**64])
def test_block_sampler_refuses_bad_index(index):
    sampler = BlockSampler(3)
    with pytest.raises(ValueError, match="stream index"):
        sampler.normals(index, np.empty(4))
    with pytest.raises(ValueError, match="stream index"):
        sampler.stream(index)


def test_block_sampler_accepts_numpy_integer_index():
    sampler = BlockSampler(123)
    for index in (np.int64(7), np.uint64(2**64 - 1)):
        out = np.empty(8)
        sampler.normals(index, out)
        np.testing.assert_array_equal(out, substream(123, int(index)).standard_normal(8))


def test_numpy_integer_seed_and_index_accepted():
    np.testing.assert_array_equal(
        substream(np.uint64(123), np.int64(7)).standard_normal(8),
        substream(123, 7).standard_normal(8),
    )
