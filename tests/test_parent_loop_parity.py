"""Parity oracles for the parallel parent's two per-block loops.

``FrameBlock.pack_chunks`` and ``partition_https_indices`` run
column-wise under ``src/``; the frame-at-a-time bodies they replaced
live on here as the reference. The arithmetic is unchanged (integer
sums, one greedy rule, one hash), so the requirement is equality:
packed chunks byte for byte, shard lists element for element.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import TCPHeader, make_tcp_packet, make_udp_packet
from repro.net.rawpacket import _PACK_HEADER, FrameBlock, decode_block
from repro.pipeline import sharded
from repro.pipeline.sharded import _shard_of_tuple, partition_https_indices

# -- reference: one frame at a time ---------------------------------------


def _pack_chunks_reference(block, indices=None, max_bytes=None):
    view = memoryview(block.buf)
    if indices is None:
        indices = range(len(block.starts))
    parts, lens, tss, total = [], [], [], 0
    for i in indices:
        start, end = block.starts[i], block.ends[i]
        length = int(end - start)
        if parts and max_bytes is not None and \
                total + length + 12 * (len(parts) + 1) + \
                _PACK_HEADER.size > max_bytes:
            yield _pack_one_reference(parts, lens, tss, total)
            parts, lens, tss, total = [], [], [], 0
        parts.append(view[start:end])
        lens.append(length)
        tss.append(float(block.timestamps[i]))
        total += length
    if parts:
        yield _pack_one_reference(parts, lens, tss, total)


def _pack_one_reference(parts, lens, tss, total):
    ends = np.cumsum(np.asarray(lens, dtype=np.uint32), dtype=np.uint32)
    return b"".join((
        _PACK_HEADER.pack(len(parts), total),
        ends.tobytes(),
        np.asarray(tss, dtype=np.float64).tobytes(),
        *parts,
    ))


def _partition_reference(decoded, num_shards, cache):
    per_shard = [[] for _ in range(num_shards)]
    indices = decoded.https_indices
    if indices.size:
        for i, dirkey in zip(indices.tolist(), decoded.dir_keys(indices)):
            shard = cache.get(dirkey)
            if shard is None:
                if len(cache) >= sharded._SHARD_CACHE_MAX:
                    cache.clear()
                key, _, _ = decoded.make_key(i)
                shard = cache[dirkey] = _shard_of_tuple(key, num_shards)
            per_shard[shard].append(i)
    return per_shard


# -- pack_chunks ----------------------------------------------------------

_frames = st.lists(
    st.tuples(st.binary(max_size=120),
              st.floats(allow_nan=False, allow_infinity=False)),
    max_size=24)


@st.composite
def _pack_cases(draw):
    frames = draw(_frames)
    n = len(frames)
    indices = draw(st.one_of(
        st.none(),
        st.just([]),
        # any order, repeats allowed: the iterable is taken as given
        st.lists(st.integers(0, n - 1), max_size=40) if n
        else st.just([])))
    # 1 is smaller than any chunk: every frame "larger than max_bytes"
    max_bytes = draw(st.one_of(st.none(), st.integers(1, 700)))
    return frames, indices, max_bytes


def _over_a_gapped_buffer(frames):
    """The same frames addressed into one buffer with junk between
    them, the way a pcap chunk holds record headers."""
    pieces, starts, ends, at = [], [], [], 0
    for i, (data, _) in enumerate(frames):
        gap = b"\xee" * (i % 5 + 1)
        pieces += [gap, data]
        starts.append(at + len(gap))
        ends.append(at + len(gap) + len(data))
        at = ends[-1]
    return FrameBlock(bytearray(b"".join(pieces)),
                      np.array(starts, dtype=np.int64),
                      np.array(ends, dtype=np.int64),
                      np.array([ts for _, ts in frames], dtype=np.float64))


class TestPackChunksParity:
    @given(_pack_cases())
    @settings(max_examples=300, deadline=None)
    def test_chunks_identical_and_round_trip(self, case):
        frames, indices, max_bytes = case
        for block in (FrameBlock.from_frames(frames),
                      _over_a_gapped_buffer(frames)):
            chunks = list(block.pack_chunks(indices, max_bytes=max_bytes))
            assert chunks == list(
                _pack_chunks_reference(block, indices, max_bytes))
            assert all(type(chunk) is bytes for chunk in chunks)
            chosen = range(len(frames)) if indices is None else indices
            out = []
            for chunk in chunks:
                sub = FrameBlock.unpack(chunk)
                assert len(sub) >= 1
                if max_bytes is not None and len(sub) > 1:
                    assert len(chunk) <= max_bytes
                out.extend((sub.frame_bytes(i), sub.timestamps[i])
                           for i in range(len(sub)))
            assert out == [frames[i] for i in chosen]

    def test_indices_may_be_any_iterable(self):
        block = FrameBlock.from_frames(
            [(bytes([i]) * (i + 1), i / 7) for i in range(9)])
        for indices in (range(2, 9, 3), iter([8, 0, 3]),
                        np.array([1, 1, 7]), (i for i in (4, 5))):
            indices = list(indices)
            assert list(block.pack_chunks(iter(indices), max_bytes=40)) == \
                list(_pack_chunks_reference(block, indices, 40))


# -- partition_https_indices ----------------------------------------------

_HOSTS = ["10.0.0.%d" % i for i in range(1, 7)] + ["142.250.70.78"]


@st.composite
def _frame_on_a_small_population(draw):
    """One frame between a handful of endpoints, so direction keys
    repeat within a block: HTTPS in either direction, TCP or UDP,
    some off-443 traffic and some garbage."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=60))
    client = draw(st.sampled_from(_HOSTS[:-1]))
    server = draw(st.sampled_from(_HOSTS[-2:]))
    cport = draw(st.sampled_from([50_000, 50_001, 443]))
    sport = 443 if kind < 9 else 8080
    src, dst, sp, dp = (client, server, cport, sport) \
        if draw(st.booleans()) else (server, client, sport, cport)
    if draw(st.booleans()):
        return make_udp_packet(src, dst, sp, dp, payload=b"q" * 20
                               ).to_bytes()
    return make_tcp_packet(src, dst, TCPHeader(src_port=sp, dst_port=dp,
                                               flag_ack=True)).to_bytes()


class _CountingCache(dict):
    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


class TestPartitionParity:
    @given(st.lists(st.lists(_frame_on_a_small_population(), max_size=60),
                    min_size=1, max_size=3),
           st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_shard_lists_identical_with_a_cache_that_clears_mid_block(
            self, blocks, num_shards):
        """One cache across consecutive blocks, capped at 3 entries so
        it clears inside a block; a counting cache shows the grouped
        walk probes once per distinct direction key, not per lane."""
        saved = sharded._SHARD_CACHE_MAX
        sharded._SHARD_CACHE_MAX = 3
        try:
            cache, reference_cache = _CountingCache(), _CountingCache()
            for frames in blocks:
                decoded = decode_block(FrameBlock.from_frames(
                    (data, float(i)) for i, data in enumerate(frames)))
                lanes = decoded.https_indices
                distinct = len(set(decoded.dir_keys(lanes)))
                cache.probes = reference_cache.probes = 0
                got = partition_https_indices(decoded, num_shards, cache)
                assert got == _partition_reference(decoded, num_shards,
                                                   reference_cache)
                assert type(got) is list and len(got) == num_shards
                assert all(type(lane) is list and
                           all(type(i) is int for i in lane)
                           for lane in got)
                assert sorted(i for lane in got for i in lane) == \
                    lanes.tolist()
                assert all(lane == sorted(lane) for lane in got)
                assert cache.probes <= distinct
                assert reference_cache.probes == lanes.size
                assert len(cache) <= 3
        finally:
            sharded._SHARD_CACHE_MAX = saved
