"""Adversarial/fuzz tests: every parser must fail *cleanly* — with
ParseError or CryptoError, never an unhandled exception — on arbitrary
or mutated bytes. A border-tap pipeline sees every kind of garbage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CryptoError, ParseError
from repro.net import Packet, TCPHeader, UDPHeader, IPv4Header
from repro.quic import (
    TransportParameters,
    decode_varint,
    unprotect_client_initial,
)
from repro.tls import extract_handshake_payload
from repro.tls.clienthello import ClientHello

CLEAN_ERRORS = (ParseError, CryptoError)


class TestRandomBytes:
    @given(st.binary(max_size=200))
    def test_packet_parser_never_crashes(self, data):
        try:
            Packet.from_bytes(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=120))
    def test_tcp_parser_never_crashes(self, data):
        try:
            TCPHeader.parse(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=60))
    def test_udp_parser_never_crashes(self, data):
        try:
            UDPHeader.parse(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=60))
    def test_ipv4_parser_never_crashes(self, data):
        try:
            IPv4Header.parse(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=400))
    def test_client_hello_parser_never_crashes(self, data):
        try:
            ClientHello.parse_handshake(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=400))
    def test_record_layer_never_crashes(self, data):
        try:
            extract_handshake_payload(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=300))
    def test_transport_params_never_crash(self, data):
        try:
            TransportParameters.parse(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(min_size=1, max_size=1500))
    @settings(max_examples=40)
    def test_quic_unprotect_never_crashes(self, data):
        try:
            unprotect_client_initial(data)
        except CLEAN_ERRORS:
            pass

    @given(st.binary(max_size=12))
    def test_varint_never_crashes(self, data):
        try:
            value, used = decode_varint(data)
            assert 0 <= value < (1 << 62)
            assert 0 < used <= len(data)
        except CLEAN_ERRORS:
            pass


def _valid_hello_bytes() -> bytes:
    from repro.fingerprints import Provider, UserPlatform, get_profile
    from repro.fingerprints.specs import build_client_hello
    from repro.util import SeededRNG

    profile = get_profile(UserPlatform.from_label("windows_firefox"),
                          Provider.NETFLIX)
    hello = build_client_hello(profile.tls_tcp, "a.nflxvideo.net",
                               SeededRNG(1), resumption=False)
    return hello.to_handshake_bytes()


class TestMutatedValidMessages:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=120)
    def test_single_byte_mutation_parses_or_fails_cleanly(self, pos,
                                                          value):
        data = bytearray(_valid_hello_bytes())
        data[pos % len(data)] = value
        try:
            hello = ClientHello.parse_handshake(bytes(data))
            # If it still parses, the invariants must hold.
            assert len(hello.random) == 32
            assert isinstance(hello.cipher_suites, tuple)
        except CLEAN_ERRORS:
            pass

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_truncation_fails_cleanly(self, cut):
        data = _valid_hello_bytes()
        truncated = data[:cut % len(data)]
        try:
            ClientHello.parse_handshake(truncated)
        except CLEAN_ERRORS:
            pass


# --- QUIC Initial mutation corpus ---------------------------------------------
#
# A border tap sees hostile and half-broken QUIC as surely as hostile
# TLS: every mutant of a *valid, decryptable* client Initial must fail
# cleanly (ParseError/CryptoError, never an unhandled exception), and
# the bulk ingest path must reject exactly the same mutants the eager
# path rejects — the rejection-parity half of the ingest equivalence
# contract, extended to the QUIC surface.

import random

from repro.features.extract import parse_flow_handshake
from repro.fingerprints import Provider, UserPlatform, get_profile
from repro.fingerprints.specs import (
    build_client_hello,
    build_transport_parameters,
)
from repro.net import make_udp_packet
from repro.net.rawpacket import FrameBlock, decode_block
from repro.pipeline.engine import RealtimePipeline
from repro.quic import QuicInitial, protect_client_initial
from repro.quic.initial import build_crypto_frame, extract_crypto_stream
from repro.quic.varint import encode_varint
from repro.util import SeededRNG


def _valid_quic_initial() -> bytes:
    """A protected, decryptable client Initial built exactly the way
    the trace generator builds them."""
    profile = get_profile(UserPlatform.from_label("windows_chrome"),
                          Provider.YOUTUBE)
    rng = SeededRNG(5)
    dcid = rng.token_bytes(profile.quic.dcid_length)
    scid = rng.token_bytes(profile.quic.scid_length)
    params = build_transport_parameters(profile.quic, rng, scid)
    hello = build_client_hello(profile.tls_quic, "www.youtube.com", rng,
                               quic_params=params,
                               alpn_override=("h3",),
                               resumption=False)
    initial = QuicInitial(dcid=dcid, scid=scid,
                          payload=build_crypto_frame(
                              hello.to_handshake_bytes()))
    return protect_client_initial(
        initial, pn_length=profile.quic.packet_number_length,
        min_datagram_size=profile.quic.datagram_size)


def _mutation_corpus() -> list[tuple[str, bytes]]:
    """Deterministic (seeded) mutants of the valid Initial: truncated
    CRYPTO frames, flipped header-protection bytes, oversized/invalid
    varints, short and oversized DCIDs, plus random byte flips and
    truncations across the datagram."""
    valid = _valid_quic_initial()
    rng = random.Random(0xC0FFEE)
    corpus: list[tuple[str, bytes]] = []

    def mutate(tag, data):
        corpus.append((tag, bytes(data)))

    # Flipped header-protection territory: the first byte's protected
    # bits and every byte of the pn/sample region.
    for bit in range(8):
        data = bytearray(valid)
        data[0] ^= 1 << bit
        mutate(f"first-byte-bit{bit}", data)
    for _ in range(24):
        data = bytearray(valid)
        pos = 7 + rng.randrange(len(valid) - 8)
        data[pos] ^= 1 + rng.randrange(255)
        mutate(f"flip@{pos}", data)

    # Truncations: through the header, through the CRYPTO payload.
    for _ in range(16):
        cut = rng.randrange(1, len(valid))
        mutate(f"trunc@{cut}", valid[:cut])

    # DCID length abuse: short (keys derive but AEAD fails), oversized
    # (>20, structurally invalid), and a length that overruns.
    for dcid_len in (0, 1, 4, 7, 21, 255):
        data = bytearray(valid)
        data[5] = dcid_len
        mutate(f"dcid-len{dcid_len}", data)

    # Varint abuse in the token-length field: an 8-byte varint
    # claiming a giant token, and a truncated varint at the very end.
    header = bytearray(valid[:6 + valid[5] + 1 + valid[6 + valid[5]]])
    giant = bytes(header) + encode_varint((1 << 61) - 1)
    mutate("giant-token-varint", giant + valid[len(header):])
    mutate("dangling-varint", bytes(header) + b"\xc0")

    # Oversized length varint: body length far past the datagram.
    mutate("oversized-length",
           bytes(header) + encode_varint(0) + encode_varint(1 << 20)
           + valid[len(header) + 2:])

    # Wrong version / not-initial type bits.
    data = bytearray(valid)
    data[1:5] = (0xBABABABA).to_bytes(4, "big")
    mutate("bad-version", data)
    data = bytearray(valid)
    data[0] |= 0x30  # long header, but type = Retry
    mutate("retry-type", data)
    return corpus


def _crypto_frame_mutants() -> list[tuple[str, bytes]]:
    """Plaintext-payload mutants sealed with *valid* crypto, so the
    frame parser (not the AEAD) is the code under test: truncated
    CRYPTO frames, gaps, unknown frames, length overruns."""
    hello = _valid_hello_bytes()
    cases = [
        ("crypto-truncated-length",
         bytes([0x06]) + encode_varint(0) + encode_varint(len(hello) * 4)
         + hello[:40]),
        ("crypto-gap", build_crypto_frame(hello[:50], offset=64)),
        ("crypto-unknown-frame", b"\x1c" + hello[:30]),
        ("crypto-empty", b"\x00" * 64),
        ("crypto-dangling-varint", bytes([0x06]) + b"\xff"),
    ]
    out = []
    for tag, payload in cases:
        initial = QuicInitial(dcid=b"\x11" * 8, scid=b"\x22" * 8,
                              payload=payload)
        out.append((tag, protect_client_initial(initial)))
    return out


class TestQuicInitialMutations:
    CORPUS = _mutation_corpus() + _crypto_frame_mutants()

    @pytest.mark.parametrize("tag,datagram",
                             CORPUS, ids=[t for t, _ in CORPUS])
    def test_unprotect_fails_cleanly(self, tag, datagram):
        try:
            initial = unprotect_client_initial(datagram)
            # Mutants that survive (a flip in padding, say) must still
            # have produced a coherent CRYPTO stream.
            assert isinstance(initial.crypto_stream, bytes)
        except CLEAN_ERRORS:
            pass

    @pytest.mark.parametrize("tag,datagram",
                             CORPUS, ids=[t for t, _ in CORPUS])
    def test_raw_vs_eager_rejection_parity(self, tag, datagram):
        """Wrapped in a UDP/443 frame, every mutant must drive
        parse_flow_handshake to the same outcome through the eager
        packet and the block decode's promotion of the raw frame."""
        frame = make_udp_packet("10.0.0.1", "93.184.216.34", 50000, 443,
                                payload=datagram).to_bytes()
        decoded = decode_block(FrameBlock.from_frames([(frame, 1.0)]))
        assert decoded.https[0]
        assert _handshake_outcome(Packet.from_bytes(frame, 1.0)) == \
            _handshake_outcome(decoded.promote(0))

    def test_valid_initial_still_parses(self):
        initial = unprotect_client_initial(_valid_quic_initial())
        hello = ClientHello.parse_handshake(initial.crypto_stream)
        assert hello.server_name == "www.youtube.com"

    def test_crypto_stream_reassembly_rejects_gap(self):
        with pytest.raises(ParseError):
            extract_crypto_stream(build_crypto_frame(b"x" * 10,
                                                     offset=5))


def _handshake_outcome(packet):
    try:
        record = parse_flow_handshake([packet])
        return ("ok", record.transport, record.sni)
    except CLEAN_ERRORS as exc:
        return ("rejected", type(exc).__name__)


@pytest.fixture(scope="module")
def quic_fuzz_bank():
    from repro.ml import RandomForestClassifier
    from repro.pipeline import ClassifierBank
    from repro.trafficgen import generate_lab_dataset

    return ClassifierBank.train(
        generate_lab_dataset(seed=3, scale=0.02),
        model_factory=lambda: RandomForestClassifier(
            n_estimators=2, max_depth=6, random_state=0))


# --- Vectorized bulk decode: Packet.from_bytes is the oracle ------------------
#
# decode_block() promises to accept/reject exactly the frames
# Packet.from_bytes accepts/rejects and to extract the eager packet's
# fields for the accepted ones. These property tests drive that
# contract with random bytes, mutated valid frames, truncations,
# zero/max-length frames, packed-wire-format corruption, pcap records
# straddling block boundaries, and the full QUIC mutant corpus through
# bulk ingest.

from dataclasses import replace

from hypothesis import example

from repro.net import EthernetHeader, PcapReader, PcapWriter, TCPHeader
from repro.net import make_tcp_packet, mss_option, window_scale_option


def _base_frames() -> list[bytes]:
    """Valid frames of every interesting shape: TCP/443, UDP/443, a
    VLAN-tagged frame, a non-443 frame, a SYN, and a capture-padded
    frame (total_length shorter than the snap)."""
    tcp = make_tcp_packet(
        "10.0.0.1", "93.184.216.34",
        TCPHeader(src_port=50000, dst_port=443, seq=7, flag_ack=True),
        payload=b"x" * 64, timestamp=1.0)
    syn = make_tcp_packet(
        "10.0.0.3", "93.184.216.34",
        TCPHeader(src_port=50002, dst_port=443, seq=0, flag_syn=True),
        timestamp=1.0)
    vlan = replace(tcp, eth=EthernetHeader(vlan_id=19))
    off443 = make_tcp_packet(
        "10.0.0.4", "93.184.216.34",
        TCPHeader(src_port=50003, dst_port=8080, seq=3, flag_ack=True),
        payload=b"z" * 32, timestamp=1.0)
    udp = make_udp_packet("10.0.0.2", "93.184.216.34", 50001, 443,
                          payload=b"y" * 48)
    return [tcp.to_bytes(), syn.to_bytes(), vlan.to_bytes(),
            off443.to_bytes(), udp.to_bytes(),
            tcp.to_bytes() + b"\x00" * 9]  # capture padding


_BASES = _base_frames()

# TCP/443 with MSS + window-scale options and no payload (62 bytes): a
# frame whose decode walks option bytes.
_OPTIONS_FRAME = make_tcp_packet(
    "10.0.0.5", "93.184.216.34",
    TCPHeader(src_port=50004, dst_port=443, seq=9, flag_syn=True,
              options=(mss_option(1460), window_scale_option(7))),
    timestamp=1.0).to_bytes()

# A frame is random garbage, a mutant of a valid frame, a truncation
# of one, or a valid frame verbatim — the mix that makes both accept
# and reject lanes dense in every drawn block.
_frame_strategy = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda base, pos, val: (
            _BASES[base][:pos % len(_BASES[base])]
            + bytes([val])
            + _BASES[base][pos % len(_BASES[base]) + 1:]),
        st.integers(0, len(_BASES) - 1),
        st.integers(0, 10_000),
        st.integers(0, 255)),
    st.builds(lambda base, cut: _BASES[base][:cut % len(_BASES[base])],
              st.integers(0, len(_BASES) - 1),
              st.integers(0, 10_000)),
    st.sampled_from(_BASES),
)


def _block_of(frames: list[bytes]) -> FrameBlock:
    return FrameBlock.from_frames(
        (data, float(i)) for i, data in enumerate(frames))


class TestDecodeBlockOracleParity:
    @given(st.lists(_frame_strategy, max_size=24))
    @settings(max_examples=150)
    def test_validity_and_fields_match_per_frame_parse(self, frames):
        decoded = decode_block(_block_of(frames))
        assert len(decoded) == len(frames)
        for i, data in enumerate(frames):
            try:
                packet = Packet.from_bytes(data, float(i))
            except CLEAN_ERRORS:
                assert not decoded.valid[i], (i, data.hex())
                continue
            assert decoded.valid[i], (i, data.hex())
            assert int(decoded.protocol[i]) == packet.ip.protocol
            assert int(decoded.src_port[i]) == packet.src_port
            assert int(decoded.dst_port[i]) == packet.dst_port
            assert int(decoded.ttl[i]) == packet.ip.ttl
            assert int(decoded.payload_len[i]) == len(packet.payload)
            vlan = int(decoded.vlan_id[i])
            assert (None if vlan < 0 else vlan) == packet.vlan_id
            key, src, dst = decoded.make_key(i)
            assert key == packet.canonical_key_tuple
            assert (src, dst) == (packet.ip.src, packet.ip.dst)
            assert bool(decoded.https[i]) == (
                packet.src_port == 443 or packet.dst_port == 443)
            assert decoded.promote(i) == packet
            assert bool(decoded.syn_noack[i]) == bool(
                packet.tcp is not None and packet.tcp.flag_syn
                and not packet.tcp.flag_ack)

    def test_zero_and_extreme_length_frames(self):
        frames = [b"", b"\x00", b"\x00" * 13, b"\x00" * 14,
                  b"\xff" * 65535, _BASES[0], _BASES[0] + b"\x00" * 4096]
        decoded = decode_block(_block_of(frames))
        for i, data in enumerate(frames):
            try:
                Packet.from_bytes(data, float(i))
                expect = True
            except CLEAN_ERRORS:
                expect = False
            assert bool(decoded.valid[i]) == expect, i
        assert decoded.invalid_count == 5
        assert decoded.first_invalid() == 0

    def test_empty_block_decodes(self):
        decoded = decode_block(_block_of([]))
        assert len(decoded) == 0
        assert decoded.valid_count == 0
        assert decoded.https_indices.size == 0


class TestPackedWireFormat:
    @given(st.lists(_frame_strategy, max_size=16),
           st.integers(min_value=64, max_value=2048))
    @settings(max_examples=80)
    def test_pack_roundtrip_preserves_frames(self, frames, max_bytes):
        block = _block_of(frames)
        out = []
        for chunk in block.pack_chunks(max_bytes=max_bytes):
            sub = FrameBlock.unpack(chunk)
            out.extend((sub.frame_bytes(i), float(sub.timestamps[i]))
                       for i in range(len(sub)))
        assert out == [(data, float(i))
                       for i, data in enumerate(frames)]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_truncated_packed_block_always_raises(self, cut):
        packed = next(iter(_block_of(_BASES).pack_chunks()))
        with pytest.raises(ParseError):
            FrameBlock.unpack(packed[:cut % len(packed)])

    @given(st.binary(max_size=300))
    @settings(max_examples=150)
    def test_arbitrary_bytes_unpack_cleanly_or_decode(self, data):
        """Garbage either fails with ParseError at unpack or yields a
        block whose decode never crashes (a frame table that is not
        monotone or overruns the payload is rejected at unpack)."""
        try:
            block = FrameBlock.unpack(data)
        except CLEAN_ERRORS:
            return
        decoded = decode_block(block)
        assert len(decoded) == len(block)

    @given(st.lists(_frame_strategy, max_size=16),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    # Packed as [_OPTIONS_FRAME (62 B), _BASES[0] (118 B)] behind a
    # 32-byte header + table. payload_bytes (offset 4) cut to 58: the
    # options frame's table end runs past the buffer. ends[0]'s second
    # byte (offset 9) set to 1: that end overstates by 256 bytes.
    @example(frames=[_OPTIONS_FRAME], pos=4, val=58)
    @example(frames=[_OPTIONS_FRAME], pos=9, val=1)
    def test_mutated_packed_block_cleanly_splits(self, frames, pos, val):
        packed = bytearray(
            next(iter(_block_of(frames + [_BASES[0]]).pack_chunks())))
        packed[pos % len(packed)] = val
        try:
            block = FrameBlock.unpack(bytes(packed))
        except CLEAN_ERRORS:
            return
        # A table unpack accepts stays inside the bytes it was given,
        # so every lane answers to the oracle on its own bytes.
        assert (block.ends <= len(block.buf)).all()
        decoded = decode_block(block)
        for i in range(len(block)):
            try:
                Packet.from_bytes(block.frame_bytes(i))
                accepted = True
            except CLEAN_ERRORS:
                accepted = False
            assert bool(decoded.valid[i]) == accepted, i

    def test_decode_masks_lanes_past_the_buffer(self):
        """A block built by hand (not through unpack) whose table
        overstates a frame's end: the lane is invalid, never decoded
        over bytes that do not exist."""
        data = _OPTIONS_FRAME
        block = FrameBlock(data[:58], np.array([0, 0]),
                           np.array([len(data), len(data) + 200]),
                           np.array([0.0, 1.0]))
        decoded = decode_block(block)
        assert not decoded.valid.any()


class TestBlockReaderBoundaries:
    @pytest.mark.parametrize("chunk_bytes,max_frames",
                             [(64, 4096), (257, 3), (1 << 20, 1),
                              (128, 7)])
    def test_records_straddling_read_chunks(self, tmp_path, chunk_bytes,
                                            max_frames):
        """A pcap record split across reader chunks must come out
        byte-identical, whatever the chunk/flush geometry — and decode
        identically to the one-big-block decode."""
        path = tmp_path / "straddle.pcap"
        frames = [(_BASES[i % len(_BASES)], 1.0 + i * 0.25)
                  for i in range(40)]
        frames.insert(7, (b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28,
                          2.0))
        with PcapWriter(path) as writer:
            for data, timestamp in frames:
                writer.write_bytes(data, timestamp)
        streamed = []
        for block in PcapReader(path).blocks(max_frames=max_frames,
                                             chunk_bytes=chunk_bytes):
            assert len(block) <= max_frames
            decoded = decode_block(block)
            streamed.extend(
                (block.frame_bytes(i), float(block.timestamps[i]),
                 bool(decoded.valid[i]))
                for i in range(len(block)))
        whole = decode_block(_block_of([d for d, _ in frames]))
        assert [(d, t) for d, t, _ in streamed] == frames
        assert [v for _, _, v in streamed] == \
            [bool(whole.valid[i]) for i in range(len(frames))]


class TestQuicMutantsThroughBulkIngest:
    """The QUIC mutant corpus, one more time — through the vectorized
    bulk path. Every mutant datagram rides a well-formed UDP/443 frame,
    so decode_block accepts them all; rejection happens at handshake
    parse inside the engine and must match the eager path exactly."""

    def test_promotion_outcome_parity(self):
        corpus = TestQuicInitialMutations.CORPUS
        frames = []
        for i, (tag, datagram) in enumerate(corpus):
            frame = make_udp_packet(f"10.2.{i % 200}.2",
                                    "93.184.216.34", 41000 + i, 443,
                                    payload=datagram).to_bytes()
            frames.append((frame, float(i)))
        decoded = decode_block(FrameBlock.from_frames(frames))
        assert decoded.valid_count == len(corpus)
        assert decoded.https_indices.size == len(corpus)
        for i, (data, timestamp) in enumerate(frames):
            eager = _handshake_outcome(Packet.from_bytes(data, timestamp))
            bulk = _handshake_outcome(decoded.promote(i))
            assert eager == bulk, corpus[i][0]

    def test_pipeline_counters_parity(self, quic_fuzz_bank):
        eager = RealtimePipeline(quic_fuzz_bank)
        bulk = RealtimePipeline(quic_fuzz_bank)
        frames = []
        for i, (tag, datagram) in enumerate(
                TestQuicInitialMutations.CORPUS):
            frame = make_udp_packet(f"10.3.{i % 200}.2",
                                    "93.184.216.34", 42000 + i, 443,
                                    payload=datagram).to_bytes()
            frames.append((frame, float(i)))
            eager.process_packet(Packet.from_bytes(frame, float(i)))
        bulk.process_block(decode_block(FrameBlock.from_frames(frames)))
        eager.flush()
        bulk.flush()
        assert eager.counters == bulk.counters
