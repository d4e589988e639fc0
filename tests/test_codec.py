"""Wire format and Elias-gamma metadata tests.

The gamma bitstream convention is pinned by hand-computed encodings; the
vectorized decoder is checked against a codeword-at-a-time reference decoder
kept here; everything else is roundtrip and error-contract checks.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwins import codec
from jwins.codec import (
    HEADER,
    HEADER_LEN,
    CodecError,
    UpdateKind,
    compression_ratio,
    decode_indices,
    deserialize,
    elias_gamma_decode,
    elias_gamma_encode,
    encode_index_sets,
    encode_indices,
    gaps_to_indices,
    indices_to_gaps,
    make_full_update,
    make_indexed_update,
    make_indexed_updates,
    make_seed_update,
    read_message_dump,
    resolve_indices,
    serialize,
    write_message_dump,
    _CHAIN_STRIDE,
    _WINDOW_BITS,
    _scan_gamma,
)
from jwins.sparsify import random_indices


def _reference_scan_gamma(data: bytes, start: int, count: int):
    """Codeword-at-a-time gamma decoder: the oracle of ``codec._scan_gamma``.

    Returns the gaps and the byte offset just past the padded stream, or
    raises CodecError("truncated stream") when the data runs out and
    CodecError("corrupt codeword") on a zero run of 64 or more bits or a
    value too wide for int64.
    """
    gaps = np.empty(count, dtype=np.int64)
    acc = 0
    n_acc = 0
    pos = start
    n = len(data)
    bits_used = 0
    for i in range(count):
        zeros = 0
        while True:
            if n_acc == 0:
                if pos >= n:
                    raise CodecError("truncated stream")
                take = min(8, n - pos)
                acc = int.from_bytes(data[pos : pos + take], "big")
                n_acc = 8 * take
                pos += take
            top = acc.bit_length()
            if top == 0:
                zeros += n_acc
                n_acc = 0
                if zeros >= 64:
                    raise CodecError("corrupt codeword")
                continue
            zeros += n_acc - top
            n_acc = top
            break
        if zeros >= 64:
            raise CodecError("corrupt codeword")
        while n_acc < zeros + 1:
            if pos >= n:
                raise CodecError("truncated stream")
            take = min(8, n - pos)
            acc = (acc << (8 * take)) | int.from_bytes(data[pos : pos + take], "big")
            n_acc += 8 * take
            pos += take
        value = acc >> (n_acc - (zeros + 1))
        if value >= 2**63:
            raise CodecError("corrupt codeword")
        gaps[i] = value
        n_acc -= zeros + 1
        acc &= (1 << n_acc) - 1
        bits_used += 2 * zeros + 1
    return gaps, start + (bits_used + 7) // 8


def _gamma_bytes(gaps) -> bytes:
    """Gamma stream from Python ints of any size, packed MSB-first."""
    bits = "".join("0" * (g.bit_length() - 1) + format(g, "b") for g in gaps)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _bit_bytes(bits: str) -> bytes:
    """A string of '0'/'1' characters packed MSB-first, zero-padded."""
    return np.packbits(np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")).tobytes()


def _jwins_message(stream: bytes, k: int, values: bytes | None = None) -> bytes:
    """JWINS_INDICES message with a hand-made index stream."""
    if values is None:
        values = bytes(4 * k)
    return HEADER.pack(0, 0, int(UpdateKind.JWINS_INDICES), k) + stream + values


class TestGaps:
    def test_dense_prefix(self):
        np.testing.assert_array_equal(indices_to_gaps([0, 1, 2]), [1, 1, 1])

    def test_offset_by_one_convention(self):
        np.testing.assert_array_equal(indices_to_gaps([5]), [6])

    def test_roundtrip_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(1, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            np.testing.assert_array_equal(gaps_to_indices(indices_to_gaps(idx)), idx)

    def test_non_monotone_rejected(self):
        with pytest.raises(CodecError):
            indices_to_gaps([3, 3])
        with pytest.raises(CodecError):
            indices_to_gaps([5, 2])
        with pytest.raises(CodecError):
            indices_to_gaps([-1, 2])


class TestGamma:
    def test_single_one_bit(self):
        """gamma(1) is the single bit 1, padded to 0b10000000."""
        assert elias_gamma_encode([1]) == bytes([0b10000000])

    def test_hand_encoded_0_3_7(self):
        """Indices [0,3,7] -> gaps [1,3,4] -> bits 101100100 -> B2 00."""
        assert encode_indices(np.array([0, 3, 7])) == bytes([0b10110010, 0b00000000])

    def test_hand_decoded(self):
        np.testing.assert_array_equal(
            elias_gamma_decode(bytes([0xB2, 0x00]), 3), [1, 3, 4])
        np.testing.assert_array_equal(decode_indices(bytes([0xB2, 0x00]), 3), [0, 3, 7])

    def test_decode_single(self):
        np.testing.assert_array_equal(elias_gamma_decode(bytes([0b10000000]), 1), [1])

    def test_known_codewords(self):
        """First few gamma codewords from the definition."""
        cases = {1: "1", 2: "010", 3: "011", 4: "00100", 5: "00101", 9: "0001001"}
        for g, bits in cases.items():
            padded = bits + "0" * (-len(bits) % 8)
            want = bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))
            assert elias_gamma_encode([g]) == want, g

    def test_roundtrip_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(1, 200))
            gaps = rng.integers(1, 10000, size=k)
            out = elias_gamma_decode(elias_gamma_encode(gaps), k)
            np.testing.assert_array_equal(out, gaps)

    def test_large_gap(self):
        g = [2**31 - 1, 1, 2**20]
        np.testing.assert_array_equal(elias_gamma_decode(elias_gamma_encode(g), 3), g)

    def test_widest_gaps(self):
        """Values of 58 to 63 bits can reach into a ninth byte of the stream."""
        g = [2**63 - 1, 3, 2**62 + 5, 2**57, 7, 2**58 - 1]
        for lead in range(8):
            data = _gamma_bytes([1] * lead + g)
            np.testing.assert_array_equal(elias_gamma_decode(data, lead + len(g)),
                                          [1] * lead + g)

    def test_roundtrip_past_float_precision(self):
        """Bit lengths stay exact where a float64 cast rounds a gap up to the
        next power of two."""
        rng = np.random.default_rng(6)
        seeded = rng.integers(2**53, 2**63, size=200, dtype=np.int64).tolist()
        for g in ([2**53 + 1], [2**62 - 1], [2**63 - 1], seeded):
            np.testing.assert_array_equal(
                elias_gamma_decode(elias_gamma_encode(g), len(g)), g)

    def test_encoder_matches_reference(self):
        """Same bytes as the Python-int encoder at every magnitude, so gaps
        below 2**53 encode as they always did. Behind 0 to 63 one-bit
        codewords, a gap of each bit length starts at every offset of its
        64-bit word, and the long ones cross into the next word."""
        rng = np.random.default_rng(8)
        for bits in range(1, 64):
            lo, hi = 2 ** (bits - 1), 2**bits - 1
            g = [lo, hi] + rng.integers(lo, hi, size=20, endpoint=True,
                                        dtype=np.int64).tolist()
            assert elias_gamma_encode(g) == _gamma_bytes(g), bits
            for lead in range(64):
                gaps = [1] * lead + [lo, hi, 3]
                assert elias_gamma_encode(gaps) == _gamma_bytes(gaps), (bits, lead)

    @settings(max_examples=300, deadline=None)
    @given(lead=st.integers(0, 63),
           widths=st.lists(st.integers(1, 63), min_size=1, max_size=12),
           data=st.data())
    def test_encoder_matches_reference_property(self, lead, widths, data):
        gaps = [1] * lead + [data.draw(st.integers(2 ** (w - 1), 2**w - 1)) for w in widths]
        assert elias_gamma_encode(gaps) == _gamma_bytes(gaps)

    def test_63_zero_codeword_is_corrupt(self):
        """63 zeros then 64 bits hold a value of 2**63 or more: no int64 gap."""
        data = _gamma_bytes([2**64 - 1])
        assert len(data) == 16
        with pytest.raises(CodecError, match="corrupt codeword"):
            elias_gamma_decode(data, 1)
        with pytest.raises(CodecError, match="corrupt codeword"):
            deserialize(_jwins_message(data, 1))

    def test_non_positive_rejected(self):
        with pytest.raises(CodecError, match="non-positive"):
            elias_gamma_encode([0])
        with pytest.raises(CodecError, match="non-positive"):
            elias_gamma_encode([3, -1])

    def test_truncated_stream(self):
        data = elias_gamma_encode([1000, 1000, 1000])
        with pytest.raises(CodecError, match="truncated stream"):
            elias_gamma_decode(data[:-1], 3)
        with pytest.raises(CodecError, match="truncated stream"):
            elias_gamma_decode(b"", 1)

    def test_corrupt_codeword(self):
        """64 zero bits in a row can never start a valid codeword."""
        with pytest.raises(CodecError, match="corrupt codeword"):
            elias_gamma_decode(bytes(9), 1)

    def test_trailing_padding_ignored(self):
        data = elias_gamma_encode([1])  # 1 bit used, 7 pad bits
        np.testing.assert_array_equal(elias_gamma_decode(data, 1), [1])


class TestCompressionRatio:
    def test_dense_best_case(self):
        """All-ones gaps cost one bit each: ratio 32 exactly at byte multiples."""
        assert compression_ratio(np.arange(8000)) == pytest.approx(32.0)

    def test_empty_selection(self):
        assert compression_ratio(np.array([], dtype=np.int64)) == float("inf")

    def test_single_far_index_can_exceed_raw_cost(self):
        """A lone huge gap yields a long codeword; ratio below 1 is possible."""
        ratio = compression_ratio(np.array([10**5 - 1]))
        assert ratio < 1.0

    def test_uniform_density_037(self):
        """The default sampling density compresses well beyond 8x."""
        rng = np.random.default_rng(2)
        idx = np.sort(rng.choice(10**5, size=37000, replace=False))
        assert compression_ratio(idx) >= 8.0


class TestMessages:
    def test_full_update_size(self):
        u = make_full_update(0, 0, np.zeros(100, dtype=np.float32))
        assert u.byte_size == 13 + 400 == 413
        assert u.meta_bytes == 0
        assert len(serialize(u)) == 413

    def test_seed_update_size(self):
        u = make_seed_update(5, 2, 12345, np.zeros(37, dtype=np.float32))
        assert u.byte_size == 13 + 8 + 148 == 169
        assert u.meta_bytes == 8

    def test_indexed_update_size(self):
        u = make_indexed_update(1, 3, [0, 3, 7], np.ones(3, dtype=np.float32))
        assert u.byte_size == 13 + 2 + 12 == 27
        assert u.meta_bytes == 2

    def test_header_layout(self):
        blob = serialize(make_full_update(7, 9, np.zeros(2, dtype=np.float32)))
        rnd, sender, kind, k = struct.unpack("<IIBI", blob[:HEADER_LEN])
        assert (rnd, sender, kind, k) == (7, 9, UpdateKind.FULL, 2)

    def test_roundtrip_all_kinds(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=5).astype(np.float32)
        idx = np.array([2, 3, 10, 50, 51])
        cases = [
            make_full_update(1, 2, vals),
            make_indexed_update(1, 2, idx, vals),
            make_indexed_update(1, 2, idx, vals, compressed=False),
            make_seed_update(1, 2, 2**63 + 11, vals),
        ]
        for u in cases:
            blob = serialize(u)
            # One layout for every kind: header, metadata bytes, values.
            head = HEADER.pack(u.round_no, u.sender, int(u.kind), u.k)
            assert blob == head + u.index_payload + u.values.astype("<f4").tobytes()
            assert len(blob) == u.byte_size
            v = deserialize(blob)
            assert v.index_payload == u.index_payload
            assert v.kind == u.kind
            assert v.round_no == u.round_no and v.sender == u.sender
            assert v.byte_size == u.byte_size and v.meta_bytes == u.meta_bytes
            np.testing.assert_array_equal(v.values, u.values)
            if u.indices is not None:
                np.testing.assert_array_equal(v.indices, u.indices)
            if u.kind == UpdateKind.RANDOM_SEED:
                assert v.seed == u.seed

    def test_serialize_deserialize_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(0, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            vals = rng.normal(size=k).astype(np.float32)
            u = make_indexed_update(int(rng.integers(0, 2**32)),
                                    int(rng.integers(0, 2**32)), idx, vals)
            blob = serialize(u)
            assert len(blob) == u.byte_size
            v = deserialize(blob)
            np.testing.assert_array_equal(v.indices, idx)
            np.testing.assert_array_equal(v.values, vals)

    def test_truncated_message(self):
        blob = serialize(make_full_update(0, 0, np.zeros(10, dtype=np.float32)))
        with pytest.raises(CodecError, match="truncated stream"):
            deserialize(blob[:-3])
        with pytest.raises(CodecError, match="truncated stream"):
            deserialize(blob[:5])

    def test_length_overrun(self):
        blob = serialize(make_full_update(0, 0, np.zeros(10, dtype=np.float32)))
        with pytest.raises(CodecError, match="length overrun"):
            deserialize(blob + b"\x00")

    def test_unknown_kind(self):
        blob = bytearray(serialize(make_full_update(0, 0, np.zeros(1, dtype=np.float32))))
        blob[8] = 200
        with pytest.raises(CodecError, match="unknown update kind"):
            deserialize(bytes(blob))

    def test_raw_indices_must_increase(self):
        u = make_indexed_update(0, 0, [1, 5, 9], np.zeros(3, dtype=np.float32),
                                compressed=False)
        blob = bytearray(serialize(u))
        # Swap the first two u32 indices so the list decreases.
        blob[HEADER_LEN : HEADER_LEN + 4], blob[HEADER_LEN + 4 : HEADER_LEN + 8] = (
            blob[HEADER_LEN + 4 : HEADER_LEN + 8], blob[HEADER_LEN : HEADER_LEN + 4])
        with pytest.raises(CodecError, match="strictly increasing"):
            deserialize(bytes(blob))

    def test_garbage_never_crashes(self):
        """Arbitrary byte strings produce structured errors, not exceptions
        from numpy or struct."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 60))).astype(np.uint8).tobytes()
            try:
                deserialize(blob)
            except CodecError:
                pass

    def test_gap_wraparound_rejected(self):
        """Gaps whose int64 sum wraps would pass a check of the last index."""
        gaps = [1, 2**62, 2**62, 2**62, 2**62 + 5]
        with pytest.raises(CodecError, match="index out of range"):
            deserialize(_jwins_message(_gamma_bytes(gaps), 5))

    def test_largest_gaps_accepted(self):
        """Gaps of 2**32 are the largest that can separate u32 indices."""
        u = deserialize(_jwins_message(_gamma_bytes([2**32]), 1))
        np.testing.assert_array_equal(u.indices, [2**32 - 1])
        with pytest.raises(CodecError, match="index out of range"):
            deserialize(_jwins_message(_gamma_bytes([2**32 + 1]), 1))
        with pytest.raises(CodecError, match="index out of range"):
            deserialize(_jwins_message(_gamma_bytes([1, 2**32]), 2))

    def test_index_stream_must_end_before_values(self):
        """The index stream may not run into the value bytes, whatever they
        hold."""
        for values in (bytes(8), b"\xff" * 8):
            with pytest.raises(CodecError, match="truncated stream"):
                deserialize(_jwins_message(b"\x00", 2, values))

    def test_values_are_read_only_views_of_bytes(self):
        """Decoded values view a ``bytes`` message without a copy; any other
        buffer is copied once, so writing to it later changes nothing."""
        rng = np.random.default_rng(6)
        vals = rng.normal(size=5).astype(np.float32)
        for u in (make_full_update(1, 2, vals),
                  make_indexed_update(1, 2, [2, 3, 10, 50, 51], vals),
                  make_indexed_update(1, 2, [2, 3, 10, 50, 51], vals, compressed=False),
                  make_seed_update(1, 2, 77, vals)):
            blob = serialize(u)
            v = deserialize(blob)
            assert not v.values.flags.writeable
            assert np.shares_memory(v.values, np.frombuffer(blob, dtype=np.uint8))
            buf = bytearray(blob)
            w = deserialize(buf)
            assert not np.shares_memory(w.values, np.frombuffer(buf, dtype=np.uint8))
            buf[-4:] = b"\xff" * 4
            np.testing.assert_array_equal(w.values, vals)

    def test_decode_memory_is_bounded_by_the_window(self):
        """One uniform-random message at density 0.34 over 1,000,000 slots:
        decoding it allocates its gaps, which become its indices in place
        (2.7 MB), plus one scan window's tables: a 3.3 MB peak. Tables sized
        by the message took about 39 MB, when the whole stream was one
        window, and a second array for the indices 5.6 MB."""
        rng = np.random.default_rng(7)
        idx = np.flatnonzero(rng.random(1_000_000) < 0.34)
        blob = serialize(make_indexed_update(0, 0, idx, rng.normal(size=idx.size)))
        tracemalloc.start()
        try:
            u = deserialize(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 10**6
        np.testing.assert_array_equal(u.indices, idx)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.integers(0, 255), k=st.integers(2**20, 2**32 - 1),
           body=st.binary(max_size=4096))
    def test_large_declared_count_fails_before_allocating(self, kind, k, body):
        """A header declaring far more entries than the bytes can hold is a
        CodecError, raised before anything the size of the count is
        allocated."""
        data = HEADER.pack(0, 0, kind, k) + body
        tracemalloc.start()
        try:
            with pytest.raises(CodecError):
                deserialize(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(data) + 16384

    def test_uncompressed_variant_is_4_bytes_per_index(self):
        idx = np.arange(0, 1000, 2)
        comp = make_indexed_update(0, 0, idx, np.zeros(500, dtype=np.float32))
        raw = make_indexed_update(0, 0, idx, np.zeros(500, dtype=np.float32),
                                  compressed=False)
        assert raw.meta_bytes == 2000
        assert comp.meta_bytes < raw.meta_bytes
        assert raw.kind == UpdateKind.RAW_INDICES


class TestResolveSeeded:
    def _wire(self, k=30, seed=2**64 - 5):
        u = make_seed_update(3, 1, seed, np.arange(k, dtype=np.float32))
        return deserialize(serialize(u))

    def test_regenerated_once_and_shared(self):
        """The first receiver builds the set from the seed and keeps it on
        the update; later receivers of that length take the same array."""
        u = self._wire()
        assert u.indices is None and u.index_slots is None
        got = resolve_indices(u, 100)
        np.testing.assert_array_equal(got, random_indices(100, 30, u.seed))
        assert got is u.indices and u.index_slots == 100
        assert resolve_indices(u, 100) is got

    def test_each_length_gets_its_own_set(self):
        """A receiver of another length never gets the set built for 100."""
        u = self._wire()
        for length in (100, 57, 30, 100):
            got = resolve_indices(u, length)
            want = random_indices(length, 30, u.seed)
            if want.size == length:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
            assert u.index_slots == length

    def test_too_many_entries(self):
        u = self._wire(k=30)
        with pytest.raises(CodecError, match="more entries"):
            resolve_indices(u, 20)
        assert u.indices is None and u.index_slots is None

    def test_other_kinds_untouched(self):
        idx = np.array([1, 4, 9])
        u = deserialize(serialize(make_indexed_update(0, 0, idx, np.ones(3))))
        assert resolve_indices(u, 10) is u.indices
        np.testing.assert_array_equal(u.indices, idx)
        assert u.index_slots is None


class TestMessageDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        updates = [
            make_full_update(0, 0, rng.normal(size=4).astype(np.float32)),
            make_indexed_update(0, 1, [0, 9], rng.normal(size=2).astype(np.float32)),
            make_seed_update(1, 0, 77, rng.normal(size=3).astype(np.float32)),
        ]
        path = tmp_path / "dump.bin"
        with open(path, "wb") as fh:
            write_message_dump(fh, [serialize(u) for u in updates])
        back = read_message_dump(path)
        assert len(back) == 3
        for u, v in zip(updates, back):
            assert (u.round_no, u.sender, u.kind) == (v.round_no, v.sender, v.kind)
            np.testing.assert_array_equal(u.values, v.values)

    def test_truncated_dump(self, tmp_path):
        path = tmp_path / "dump.bin"
        update = make_full_update(0, 0, np.zeros(4, dtype=np.float32))
        with open(path, "wb") as fh:
            write_message_dump(fh, [serialize(update)])
        data = path.read_bytes()
        path.write_bytes(data[:-2])
        with pytest.raises(CodecError, match="truncated stream"):
            read_message_dump(path)


def _outcome(scan, data: bytes, start: int, count: int):
    try:
        gaps, end = scan(data, start, count)
    except CodecError as exc:
        return "error", str(exc)
    return gaps.tolist(), end


class TestScanOracle:
    """The vectorized scan against the reference decoder on seeded inputs:
    equal gaps and end offsets, or the same error reason."""

    def _check(self, data: bytes, start: int, count: int):
        want = _outcome(_reference_scan_gamma, data, start, count)
        assert _outcome(_scan_gamma, data, start, count) == want, (data.hex(), start, count)

    def test_random_bytes(self):
        rng = np.random.default_rng(10)
        for _ in range(1500):
            data = rng.integers(0, 256, int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
            start = int(rng.integers(0, min(3, len(data)) + 1))
            self._check(data, start, int(rng.integers(0, 8 * (len(data) - start) + 2)))

    def test_sparse_ones(self):
        """Long zero runs reach the 63- and 64-zero limits."""
        rng = np.random.default_rng(11)
        for _ in range(1500):
            density = rng.choice([0.002, 0.01, 0.05, 0.2])
            data = np.packbits(rng.random(8 * int(rng.integers(0, 40))) < density).tobytes()
            start = int(rng.integers(0, min(3, len(data)) + 1))
            self._check(data, start, int(rng.integers(0, 8 * (len(data) - start) + 2)))

    def test_valid_streams_whole_and_truncated(self):
        rng = np.random.default_rng(12)
        for _ in range(1500):
            k = int(rng.integers(1, 40))
            width = int(rng.integers(1, 64))
            gaps = [int(g) for g in rng.integers(1, 2**width, k, dtype=np.uint64)]
            stream = _gamma_bytes(gaps)
            prefix = rng.integers(0, 256, int(rng.integers(0, 4)), dtype=np.uint8).tobytes()
            cut = len(stream) if rng.random() < 0.5 else int(rng.integers(0, len(stream) + 1))
            data = prefix + stream[:cut]
            self._check(data, len(prefix), int(rng.integers(0, k + 2)))
            if cut == len(stream):
                np.testing.assert_array_equal(_scan_gamma(data, len(prefix), k)[0], gaps)

    def test_selections_at_scale(self):
        """Sorted selections of 60,426 slots at densities up to 1."""
        rng = np.random.default_rng(13)
        for density in (0.1, 0.4, 1.0):
            idx = np.sort(rng.choice(60426, size=int(density * 60426), replace=False))
            data = encode_indices(idx)
            self._check(data, 0, idx.size)
            self._check(data[:-1], 0, idx.size)

    def test_counts_around_the_walk_stride(self):
        """Counts on both sides of every multiple of the stride the scan walks
        by, for whole, truncated and bit-flipped streams."""
        rng = np.random.default_rng(15)
        stride = _CHAIN_STRIDE
        counts = sorted({c for m in (1, 2, 3, 16) for c in (m * stride - 2, m * stride - 1,
                                                            m * stride, m * stride + 1)})
        for count in counts:
            for _ in range(12):
                width = int(rng.integers(1, 64))
                gaps = [int(g) for g in rng.integers(1, 2**width, count, dtype=np.uint64)]
                stream = bytearray(_gamma_bytes(gaps))
                self._check(bytes(stream), 0, count)
                self._check(bytes(stream), 0, count + 1)
                self._check(bytes(stream[: int(rng.integers(0, len(stream)))]), 0, count)
                for bit in rng.integers(0, 8 * len(stream), int(rng.integers(1, 4))):
                    stream[bit // 8] ^= 0x80 >> (bit % 8)
                self._check(bytes(stream), 0, count)

    # The windowed cases run at a small window, whose edges many cases can
    # reach, and at the module's own.
    WINDOWS = pytest.mark.parametrize("window", [256, _WINDOW_BITS])

    @WINDOWS
    def test_streams_spanning_several_windows(self, monkeypatch, window):
        monkeypatch.setattr(codec, "_WINDOW_BITS", window)
        rng = np.random.default_rng(16)
        for _ in range(6):
            widths = rng.integers(1, 14, 4 * window // 7)
            widths[rng.random(widths.size) < 0.01] = 60
            gaps = [int(g) for g in rng.integers(1 << (widths - 1), 1 << widths, dtype=np.int64)]
            stream = _gamma_bytes(gaps)
            assert 8 * len(stream) > 3 * window
            for prefix in (b"", b"\x5a", b"\x00\xff\x00"):
                data = prefix + stream
                self._check(data, len(prefix), len(gaps))
                self._check(data, len(prefix), len(gaps) + 1)
            np.testing.assert_array_equal(_scan_gamma(stream, 0, len(gaps))[0], gaps)

    @WINDOWS
    def test_codeword_straddling_a_window_edge(self, monkeypatch, window):
        """A 41-bit codeword, a complete 63-zero codeword, a 64-zero run and
        a zero run too long for any window to end its codeword, each
        starting at every bit from 45 before the first window edge to just
        after it."""
        monkeypatch.setattr(codec, "_WINDOW_BITS", window)
        tails = ["0" * 20 + "1" + "01" * 10,
                 "0" * 63 + "1" + "10" * 31 + "1",
                 "0" * 64 + "1" * 8,
                 "0" * (window // 2 + 72) + "1" * window]
        for lead in range(window - 45, window + 3):
            for tail in tails:
                bits = "1" * lead + tail + "1" * 20
                data = _bit_bytes(bits)
                self._check(data, 0, lead + 5)
                self._check(data, 0, lead + 1)

    @WINDOWS
    def test_failure_first_in_a_later_window(self, monkeypatch, window):
        """Truncation, bit flips and a 64-zero run placed past the first
        window of a valid stream."""
        monkeypatch.setattr(codec, "_WINDOW_BITS", window)
        rng = np.random.default_rng(17)
        for _ in range(8):
            widths = rng.integers(1, 10, 3 * window // 5)
            gaps = [int(g) for g in rng.integers(1 << (widths - 1), 1 << widths, dtype=np.int64)]
            stream = bytearray(_gamma_bytes(gaps))
            later = window // 8 + int(rng.integers(0, len(stream) - window // 8))
            self._check(bytes(stream[:later]), 0, len(gaps))
            flipped = bytearray(stream)
            for bit in rng.integers(8 * later, 8 * len(stream), int(rng.integers(1, 4))):
                flipped[bit // 8] ^= 0x80 >> (bit % 8)
            self._check(bytes(flipped), 0, len(gaps))
            zeroed = bytearray(stream)
            zeroed[later : later + 9] = bytes(9)
            self._check(bytes(zeroed), 0, len(gaps))

    @WINDOWS
    def test_counts_at_a_window_edge(self, monkeypatch, window):
        """One-bit codewords: codeword ``window - 1`` ends on the first
        window edge. Counts around it, on streams that end at, before and
        after the edge, from byte offsets 0 and 1."""
        monkeypatch.setattr(codec, "_WINDOW_BITS", window)
        for length in (window - 8, window, window + 8, 2 * window):
            for prefix in (b"", b"\x01"):
                data = prefix + _bit_bytes("1" * length)
                for count in (window - 1, window, window + 1):
                    self._check(data, len(prefix), count)

    def test_mutated_messages_raise_only_codec_error(self):
        """Bit flips, truncation and appended bytes: a message either decodes
        to an update that re-serializes to the same bytes, or raises
        CodecError."""
        rng = np.random.default_rng(14)
        for _ in range(600):
            n = int(rng.integers(1, 200))
            idx = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            blob = bytearray(serialize(make_indexed_update(
                int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32)), idx,
                rng.normal(size=idx.size).astype(np.float32))))
            how = rng.integers(0, 3)
            if how == 0:
                for bit in rng.integers(0, 8 * len(blob), int(rng.integers(1, 4))):
                    blob[bit // 8] ^= 0x80 >> (bit % 8)
            elif how == 1:
                del blob[int(rng.integers(0, len(blob))):]
            else:
                blob += rng.integers(0, 256, int(rng.integers(1, 6)), dtype=np.uint8).tobytes()
            try:
                u = deserialize(bytes(blob))
            except CodecError:
                continue
            assert serialize(u) == bytes(blob)
            if u.indices is not None and u.indices.size:
                assert u.indices[0] >= 0 and u.indices[-1] <= 2**32 - 1
                assert np.all(np.diff(u.indices) > 0)


def _python_gaps(indices) -> list[int]:
    return [b - a for a, b in zip([-1] + list(indices), indices)]


_INDEX_SETS = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda i: [i]),  # k = 1
    st.integers(1, 300).map(lambda c: list(range(c))),  # k = C
    # Gaps near 2**32: small and near-maximal u32 indices together.
    st.sets(st.one_of(st.integers(0, 64), st.integers(2**32 - 64, 2**32 - 1)),
            max_size=12).map(sorted),
    st.tuples(st.integers(1, 3000), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)).map(
        lambda t: np.flatnonzero(np.random.default_rng(t[2]).random(t[0]) < t[1]).tolist()),
)


class TestGroupEncoder:
    """``encode_index_sets`` codes several sets in one pass; each stream is
    byte-aligned on its own, so the bytes are each set's alone."""

    @settings(max_examples=200, deadline=None)
    @given(sets=st.lists(_INDEX_SETS, min_size=1, max_size=8))
    def test_equals_encode_indices_per_set(self, sets):
        got = encode_index_sets([np.array(s, dtype=np.int64) for s in sets])
        assert got == [encode_indices(np.array(s, dtype=np.int64)) for s in sets]
        assert got == [_gamma_bytes(_python_gaps(s)) for s in sets]

    def test_empty_group(self):
        assert encode_index_sets([]) == []

    def test_unsorted_set_rejected(self):
        with pytest.raises(CodecError, match="not strictly increasing"):
            encode_index_sets([[0, 5], [3, 3]])
        with pytest.raises(CodecError, match="not strictly increasing"):
            encode_index_sets([[2], [-1, 4]])

    @pytest.mark.parametrize("compressed", [True, False])
    def test_group_updates_serialize_as_single_ones(self, compressed):
        rng = np.random.default_rng(12)
        sets = [np.flatnonzero(rng.random(500) < p) for p in (0.05, 1.0, 0.3, 0.0)]
        values = [rng.normal(size=s.size) for s in sets]
        group = make_indexed_updates(3, [7, 8, 9, 10], sets, values, compressed)
        single = [make_indexed_update(3, 7 + i, s, v, compressed)
                  for i, (s, v) in enumerate(zip(sets, values))]
        assert [serialize(u) for u in group] == [serialize(u) for u in single]


class TestAllOnesStream:
    """A stream of ceil(K / 8) bytes whose first K bits are ones is the
    gaps of indices 0..K-1, read without the scan; any other stream takes
    the scan."""

    @settings(max_examples=400, deadline=None)
    @given(k=st.integers(0, 200), data=st.data())
    def test_matches_reference(self, k, data):
        nbytes = (k + 7) // 8
        bits = ["1"] * k + [str(b) for b in data.draw(
            st.lists(st.integers(0, 1), min_size=8 * nbytes - k, max_size=8 * nbytes - k))]
        if k and data.draw(st.booleans()):
            bits[data.draw(st.integers(0, k - 1))] = "0"
        stream = _bit_bytes("".join(bits)) if bits else b""
        delta = data.draw(st.sampled_from([-1, 0, 0, 1]))
        if delta > 0:
            stream += bytes([data.draw(st.integers(0, 255))])
        elif delta < 0:
            stream = stream[:-1]
        assert _outcome(_scan_gamma, stream, 0, k) == _outcome(
            _reference_scan_gamma, stream, 0, k)
        want = _outcome(_reference_scan_gamma, stream, 0, k)
        if want[0] != "error":
            want = (np.cumsum(want[0], dtype=np.int64) - 1).tolist() if want[1] == len(
                stream) else ("error", "length overrun")
        try:
            got = deserialize(_jwins_message(stream, k)).indices.tolist()
        except CodecError as exc:
            got = ("error", str(exc))
        assert got == want

    def test_read_without_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(codec, "_scan_window", no_scan)
        for k in (1, 7, 8, 9, 20_000):
            u = deserialize(serialize(make_indexed_update(0, 0, np.arange(k), np.zeros(k))))
            np.testing.assert_array_equal(u.indices, np.arange(k))
