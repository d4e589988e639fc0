"""Wire format for model updates and the compressed index metadata.

Every message has one layout: a fixed 13-byte header (round u32, sender u32,
kind u8, entry count K u32, all little-endian), then the kind's metadata
bytes, then K float32 values. A message is ``HEADER_LEN + len(metadata) +
4K`` bytes long. The kind only decides what the metadata holds:

* FULL            -- nothing; the values cover every slot in order.
* JWINS_INDICES   -- Elias-gamma coded index gaps, byte-aligned.
* RANDOM_SEED     -- one u64 seed. The receiver regenerates the index set
                     from (seed, K).
* RAW_INDICES     -- K u32 indices. Same content as JWINS_INDICES without
                     metadata compression; kept for the compression-off
                     ablation.

Gap coding: for sorted indices i_0 < i_1 < ..., the gaps are i_0 + 1 followed
by the successive differences, so every gap is a positive integer. Elias
gamma writes each gap g as floor(log2 g) zero bits, then g's binary digits
MSB first. The bit stream is packed MSB-first and zero-padded to a whole
byte.

The encoder works a 64-bit word at a time. Codeword i ends at bit ends[i],
the running sum of the codeword lengths 2 * blen - 1, so shifting the gap
left by (-ends[i]) mod 64 puts it in place in the word that holds its last
bit. Codewords never overlap, so OR equals ADD: a word is the OR of the
codewords that end in it, plus the high bits of at most one codeword that
crosses its lower boundary (a gap has at most 63 bits). Several index sets
encode in one such pass (``encode_index_sets``): their streams are laid end
to end, each starting on a byte boundary, and cut apart after packing, so
each set's bytes are those it gets alone. The decoder maps every bit
position to the end of the codeword that would start there and follows
that map by pointer doubling (``_scan_window``). It does so one
window of ``_WINDOW_BITS`` stream bits at a time: a window decodes the
codewords that end inside it, and the next starts at the following
codeword, so decoding a message of any size allocates its gaps, which turn
into its indices in place, plus one window's tables (``_scan_gamma``). An
all-ones stream of K bits, the indices 0 to K - 1 that every cut-off of 1
sends, is read without the scan.

Decoded values are a read-only float32 view into the message bytes, not a
copy: a round holds each message's values once, in its wire bytes.
``deserialize`` keeps a ``bytes`` message as it is and copies any other
buffer once, so a caller that later reuses its buffer cannot change them.

Decoder contract: any byte string either decodes to an update or raises
CodecError, never another exception. A JWINS_INDICES index stream must end
where the 4K value bytes begin; the decoder never reads value bytes as
index bits, so a stream that would run into them is a "truncated stream".
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .sparsify import random_indices


class CodecError(ValueError):
    """Malformed message or metadata stream."""


class UpdateKind(IntEnum):
    FULL = 0
    JWINS_INDICES = 1
    RANDOM_SEED = 2
    RAW_INDICES = 3


HEADER = struct.Struct("<IIBI")
HEADER_LEN = HEADER.size  # 13
_SEED = struct.Struct("<Q")
_U32_MAX = 2**32 - 1
_MAX_GAMMA_ZEROS = 64


@dataclass(eq=False)
class SparseUpdate:
    """One decoded (or to-be-encoded) update message.

    ``index_payload`` is the metadata as it goes on the wire (empty for
    FULL). ``indices`` is None for FULL (implicitly all slots) and for
    RANDOM_SEED before regeneration; ``index_slots`` is the slot count a
    RANDOM_SEED update's ``indices`` were regenerated for.
    """

    round_no: int
    sender: int
    kind: UpdateKind
    values: np.ndarray
    indices: np.ndarray | None = None
    seed: int | None = None
    index_payload: bytes = b""
    index_slots: int | None = None

    @property
    def k(self) -> int:
        return int(self.values.size)

    @property
    def meta_bytes(self) -> int:
        """Wire bytes of the index metadata alone."""
        return len(self.index_payload)

    @property
    def byte_size(self) -> int:
        """Exact wire bytes of the whole message."""
        return HEADER_LEN + len(self.index_payload) + 4 * self.k


def indices_to_gaps(indices: np.ndarray, counts=None) -> np.ndarray:
    """Strictly increasing non-negative indices -> positive gap sequence.

    With ``counts``, ``indices`` holds several such sets back to back, set s
    taking the next ``counts[s]`` entries, and each set's gaps start afresh.
    """
    idx = np.asarray(indices, dtype=np.int64)
    gaps = np.empty(idx.size, dtype=np.int64)
    if idx.size == 0:
        return gaps
    np.subtract(idx[1:], idx[:-1], out=gaps[1:])
    firsts = 0
    if counts is not None and len(counts) > 1:
        firsts = [end - c for end, c in zip(itertools.accumulate(counts), counts) if c]
    gaps[firsts] = idx[firsts] + 1
    # A set's first gap is >= 1 exactly when its first index is >= 0.
    if gaps.min() <= 0:
        raise CodecError("indices not strictly increasing")
    return gaps


def gaps_to_indices(gaps: np.ndarray) -> np.ndarray:
    """Positive int64 gap sequence -> strictly increasing indices, in place:
    the gaps become the indices, so a decode holds one K-entry array, not
    two. Callers pass a fresh array.

    Does not check the gaps: every gap the decoder returns has a leading one
    bit, so it is at least 1.
    """
    indices = np.cumsum(gaps, out=gaps)
    indices -= 1
    return indices


def elias_gamma_encode(gaps) -> bytes:
    """Pack positive integers into a byte-aligned Elias-gamma bit stream."""
    g = np.asarray(gaps, dtype=np.int64)
    if g.size and g.min() <= 0:
        raise CodecError("gamma code is undefined for non-positive integers")
    return _gamma_streams(g, [g.size])[0]


def _gamma_streams(g: np.ndarray, counts) -> list[bytes]:
    """Gamma-code consecutive runs of the positive gaps ``g``, run s taking
    the next ``counts[s]`` gaps, as separate byte-aligned streams, in one
    pass: the streams are laid end to end, each padded to a whole byte, and
    cut apart at the end."""
    if g.size == 0:
        return [b""] * len(counts)
    # Built a 64-bit word at a time; see the module docstring. Bit lengths
    # come from the float64 exponent. Exact below 2**53; above it the cast
    # can round up to the next power of two, one bit too many, which the
    # shift test takes back.
    blen = g.astype(np.float64).view(np.int64) >> 52
    blen -= 1022
    if blen.max() > 53:
        blen -= (g >> (blen - 1)) == 0
    ends = np.cumsum(2 * blen - 1)
    # Each stream's byte offset and size. Every stream is padded to a whole
    # byte, so its codewords move up by the pad bits of the streams before it.
    layout = []
    shifts = []
    coded = unpadded = byte = 0
    for count in counts:
        coded += count
        end = int(ends[coded - 1]) if coded else 0
        shifts.append(8 * byte - unpadded)
        layout.append((byte, (end - unpadded + 7) >> 3))
        byte += layout[-1][1]
        unpadded = end
    if len(counts) > 1:
        ends += np.repeat(shifts, counts)
    nbits = int(ends[-1])
    # first[w]: the first codeword that ends in word w or later. The last
    # word always holds an end, so every first[w] is a valid position.
    bounds = np.arange(0, nbits, 64)
    first = np.searchsorted(ends, bounds, side="right")
    u = g.view(np.uint64)
    words = np.bitwise_or.reduceat(u << (-ends & 63).view(np.uint64), first)
    # reduceat returns the element itself for an empty run: clear the words
    # that no codeword ends in.
    words[:-1][first[1:] == first[:-1]] = 0
    # The first codeword that ends in word w may start in word w - 1; its
    # bits above the lowest ends - 64w go there.
    cross = first[1:]
    out = np.flatnonzero(ends[cross] - blen[cross] < bounds[1:])
    cross = cross[out]
    words[out] |= u[cross] >> (ends[cross] - bounds[out + 1]).view(np.uint64)
    blob = words.astype(">u8").tobytes()
    return [blob[at : at + size] for at, size in layout]


def elias_gamma_decode(data: bytes, count: int) -> np.ndarray:
    """Read ``count`` gamma codewords; trailing pad bits are ignored.

    Raises CodecError("truncated stream") when the data runs out mid-codeword
    and CodecError("corrupt codeword") on a zero run of 64 or more bits or a
    complete codeword of 63 zeros, whose value does not fit an int64. The
    first failing codeword decides which. Never returns a partial result.
    """
    if count < 0:
        raise CodecError("negative codeword count")
    if count > 8 * len(data):
        # Every codeword needs at least one bit; reject before allocating.
        raise CodecError("truncated stream")
    gaps, _ = _scan_gamma(data, 0, count)
    return gaps


def encode_indices(indices: np.ndarray) -> bytes:
    """Sorted indices -> gamma-coded gap bytes."""
    return elias_gamma_encode(indices_to_gaps(indices))


def encode_index_sets(index_sets) -> list[bytes]:
    """Several sorted index sets -> each set's gamma-coded gap bytes, in one
    vectorized pass. Each set's stream is byte-aligned on its own, so every
    result equals ``encode_indices`` of its set."""
    sets = [np.asarray(s, dtype=np.int64) for s in index_sets]
    if not sets:
        return []
    counts = [s.size for s in sets]
    return _gamma_streams(indices_to_gaps(np.concatenate(sets), counts), counts)


def decode_indices(data: bytes, count: int) -> np.ndarray:
    """Gamma-coded gap bytes -> sorted indices."""
    return gaps_to_indices(elias_gamma_decode(data, count))


def compression_ratio(indices: np.ndarray) -> float:
    """Raw u32 index bits over gamma-coded bits for one selection.

    An empty selection costs nothing either way; that ratio is reported as
    +inf.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return float("inf")
    coded = encode_indices(idx)
    return (32.0 * idx.size) / (8.0 * len(coded))


def _as_f32(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 1:
        raise CodecError("values must be a 1-D vector")
    return v


def _check_ids(round_no: int, sender: int) -> None:
    if not 0 <= round_no <= _U32_MAX:
        raise CodecError("round out of range")
    if not 0 <= sender <= _U32_MAX:
        raise CodecError("sender out of range")


def make_full_update(round_no: int, sender: int, values) -> SparseUpdate:
    """Dense update: every slot, values in slot order."""
    _check_ids(round_no, sender)
    return SparseUpdate(round_no, sender, UpdateKind.FULL, _as_f32(values))


def make_indexed_update(
    round_no: int,
    sender: int,
    indices,
    values,
    compressed: bool = True,
) -> SparseUpdate:
    """Sparse update carrying explicit indices, gamma-coded unless disabled."""
    return make_indexed_updates(round_no, [sender], [indices], [values], compressed)[0]


def make_indexed_updates(round_no: int, senders, index_sets, value_sets,
                         compressed: bool = True) -> list[SparseUpdate]:
    """One ``make_indexed_update`` per sender, with every index set
    gamma-coded in one pass (``encode_index_sets``)."""
    for sender in senders:
        _check_ids(round_no, sender)
    sets = []
    values = []
    for indices, vals in zip(index_sets, value_sets, strict=True):
        v = _as_f32(vals)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != v.size:
            raise CodecError("index and value counts differ")
        if idx.size and (idx[0] < 0 or int(idx[-1]) > _U32_MAX):
            raise CodecError("index out of range")
        sets.append(idx)
        values.append(v)
    if compressed:
        payloads = encode_index_sets(sets)
        kind = UpdateKind.JWINS_INDICES
    else:
        for idx in sets:
            if idx.size and (idx[0] < 0 or np.any(np.diff(idx) <= 0)):
                raise CodecError("indices not strictly increasing")
        payloads = [idx.astype("<u4").tobytes() for idx in sets]
        kind = UpdateKind.RAW_INDICES
    return [SparseUpdate(round_no, sender, kind, v, indices=idx, index_payload=payload)
            for sender, idx, v, payload in zip(senders, sets, values, payloads, strict=True)]


def make_seed_update(round_no: int, sender: int, seed: int, values) -> SparseUpdate:
    """Sparse update whose index set is regenerated from a shared seed."""
    _check_ids(round_no, sender)
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise CodecError("seed out of range")
    return SparseUpdate(round_no, sender, UpdateKind.RANDOM_SEED, _as_f32(values),
                        seed=seed, index_payload=_SEED.pack(seed))


def serialize(update: SparseUpdate) -> bytes:
    """Exact wire bytes for an update: header, metadata, values."""
    head = HEADER.pack(update.round_no, update.sender, int(update.kind), update.k)
    return head + update.index_payload + update.values.astype("<f4", copy=False).tobytes()


def deserialize(data) -> SparseUpdate:
    """Parse one message occupying the whole buffer.

    The update's ``values`` are a read-only view into the message bytes: a
    ``bytes`` message is not copied, and any other buffer is copied once, so
    later writes to it do not reach the update.

    Rejects unknown kinds, short buffers ("truncated stream"), trailing bytes
    ("length overrun"), and index metadata that is not strictly increasing.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    if len(data) < HEADER_LEN:
        raise CodecError("truncated stream")
    round_no, sender, kind_raw, k = HEADER.unpack_from(data, 0)
    try:
        kind = UpdateKind(kind_raw)
    except ValueError:
        raise CodecError("unknown update kind %d" % kind_raw) from None
    body_at = HEADER_LEN
    indices = None
    seed = None
    if kind == UpdateKind.JWINS_INDICES:
        # A valid message needs >= 1 metadata bit and 4 value bytes per entry;
        # reject impossible counts before the scanner allocates anything.
        if len(data) < HEADER_LEN + (k + 7) // 8 + 4 * k:
            raise CodecError("truncated stream")
        # The index stream must end where the 4K value bytes begin.
        gaps, body_at = _scan_gamma(memoryview(data)[: len(data) - 4 * k], HEADER_LEN, k)
        if gaps.size and int(gaps.max()) > 2**32:
            # A gap this large cannot occur between u32 indices; rejecting it
            # also keeps the cumulative sum below from wrapping around.
            raise CodecError("index out of range")
        indices = gaps_to_indices(gaps)
        if indices.size and int(indices[-1]) > _U32_MAX:
            raise CodecError("index out of range")
    elif kind == UpdateKind.RAW_INDICES:
        body_at = HEADER_LEN + 4 * k
        if len(data) < body_at:
            raise CodecError("truncated stream")
        indices = np.frombuffer(data, dtype="<u4", count=k, offset=HEADER_LEN).astype(np.int64)
        if indices.size > 1 and np.any(np.diff(indices) <= 0):
            raise CodecError("indices not strictly increasing")
    elif kind == UpdateKind.RANDOM_SEED:
        body_at = HEADER_LEN + _SEED.size
        if len(data) < body_at:
            raise CodecError("truncated stream")
        (seed,) = _SEED.unpack_from(data, HEADER_LEN)
    end = body_at + 4 * k
    if len(data) < end:
        raise CodecError("truncated stream")
    if len(data) > end:
        raise CodecError("length overrun")
    values = np.frombuffer(data, dtype="<f4", count=k, offset=body_at)
    return SparseUpdate(round_no, sender, kind, values, indices=indices, seed=seed,
                        index_payload=data[HEADER_LEN:body_at])


_NO_ONE = 1 << 40
_OFFSETS = np.arange(8, dtype=np.int64)


def _first_one_table() -> np.ndarray:
    """(256, 8) table: MSB-first offset of the first one bit of byte v at or
    after offset o, or _NO_ONE when there is none."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    first = np.full((256, 9), _NO_ONE, dtype=np.int64)
    for o in range(7, -1, -1):
        first[:, o] = np.where(bits[:, o] == 1, o, first[:, o + 1])
    return first[:, :8]


_FIRST_ONE = _first_one_table()
# End, relative to its byte, of a codeword that starts at offset o of byte v
# and has its leading one in that byte: 2q - o + 1 for a leading one at q.
_END_IN_BYTE = 2 * _FIRST_ONE - _OFFSETS + 1
# Stride of the scalar walk over codeword starts; see _scan_window.
_CHAIN_STRIDE = 16
# Stream bits one scan window covers; see _scan_gamma. A window's tables
# take about 30 bytes a bit, so decode's transient stays near 0.5 MB for any
# message. It must exceed 136 bits (see _scan_window). Timed on the 256
# captured messages of a jwins-wide run (streams of up to 8 KB), 2**14 was
# the fastest: 2**13 pays more per-window calls, and from 2**15 on the
# tables of the densest messages outgrow the CPU cache; one window per
# message (2**16 and up) was about 10% slower in total than 2**14.
_WINDOW_BITS = 2**14


def _scan_gamma(data, start: int, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` codewords starting at byte ``start``.

    Returns the gaps and the byte offset just past the (padded) stream. The
    stream is decoded in windows of ``_WINDOW_BITS`` bits: each window
    decodes the codewords that end inside it, and the next window starts at
    the byte that holds the following codeword's first bit. So the scan's
    tables are sized by the window, never by the message. A stream that
    fits one window is that window.

    A stream of exactly ``ceil(count / 8)`` bytes whose first ``count`` bits
    are ones holds ``count`` one-bit codewords, the gaps of indices 0 to
    count - 1, which every cut-off of 1 sends; it is read without the scan.
    """
    stream = np.frombuffer(data, dtype=np.uint8, offset=start)
    full, rest = divmod(count, 8)
    if (stream.size == (count + 7) // 8 and (full == 0 or stream[:full].min() == 255)
            and (rest == 0 or stream[full] >> (8 - rest) == (1 << rest) - 1)):
        return np.ones(count, dtype=np.int64), start + stream.size
    gaps = np.empty(count, dtype=np.uint64)
    done = 0
    at = 0  # stream bit where codeword ``done`` starts
    while done < count:
        byte = at >> 3
        raw = stream[byte : byte + _WINDOW_BITS // 8]
        decoded, end = _scan_window(raw, at & 7, gaps[done:], byte + raw.size == stream.size)
        done += decoded
        at = 8 * byte + end
    return gaps.view(np.int64), start + (at + 7) // 8


def _scan_window(raw: np.ndarray, first: int, out: np.ndarray, final: bool) -> tuple[int, int]:
    """Decode codewords from bit ``first`` of ``raw`` into ``out`` until it is
    full or the next codeword does not end inside ``raw``.

    Returns how many were decoded and the bit of ``raw`` where the next one
    starts. The next codeword fails, and the call raises, when no stream
    bits follow ``raw`` (``final``) or when it is the window's first: a
    codeword that starts within 8 bits of a window's start and does not end
    inside 136 or more bits has a zero run of 64.

    The scan is vectorized over bit positions: a codeword that starts at
    bit p and has its leading one at bit q ends at 2q - p + 1, so one table
    maps every bit position to the end of the codeword that would start
    there, and each codeword's end is the next one's start. Pointer doubling
    squares that table log2(_CHAIN_STRIDE) times, so one scalar step of the
    squared table goes _CHAIN_STRIDE codewords ahead; a walk of those steps
    finds every _CHAIN_STRIDE-th start, and _CHAIN_STRIDE - 1 vectorized
    passes of the plain table fill in the starts between them. Each value
    is then read from a 64-bit window at its leading one.

    Why the stride is 16: a square is one gather over every bit position, a
    walk step costs about one Python-level index, and a fill pass one call.
    Doubling the stride adds a square and halves the walk. Timed on the
    captured messages of the benchmark's two jwins workloads, 16 and 32
    tied on the wide model's long streams (8 and 64 slower, 4 the slowest)
    and 4, 8 and 16 tied on the small model's short ones (32 and 64
    slower), so 16 is the one stride that is fastest on both. Both beat a
    schedule without the walk, which squares until at most 16 or 64 fill
    passes of growing stride are left.
    """
    nbytes = raw.size
    nbits = 8 * nbytes
    byte_at = np.arange(0, nbits + 1, 8, dtype=np.int64)
    # after[b]: the first one bit at or after byte b, nbits when there is none.
    first_one = np.minimum(byte_at[:nbytes] + _FIRST_ONE[raw, 0], nbits)
    after = np.append(np.minimum.accumulate(first_one[::-1])[::-1], nbits)
    # jump[p]: the end of the codeword starting at bit p. Its leading one is
    # in p's byte or at after[b + 1]; 2q - p + 1 grows with q, so the smaller
    # candidate end is the true one. Ends past the window land in the
    # sentinel slots [nbits, nbits + 8], which all hold nbits + 1; so does a
    # start at nbits, where no bit is left. So once one codeword ends past
    # the window, every later bound is past it too.
    jump = np.empty(nbits + 9, dtype=np.int64)
    table = jump[:nbits].reshape(nbytes, 8)
    np.take(_END_IN_BYTE, raw, axis=0, out=table)
    table += byte_at[:nbytes, None]
    far = np.minimum(2 * after[1:] - byte_at[:nbytes] + 1, nbits + 8)
    np.minimum(table, far[:, None] - _OFFSETS, out=table)
    jump[nbits:] = nbits + 1
    step = jump
    for _ in range(_CHAIN_STRIDE.bit_length() - 1):
        step = step[step]
    # How many codewords to walk: no more than can end inside the window,
    # where each takes a bit and has its leading one. The one-bit count is
    # the tighter bound but costs a pass (2 us on a short stream), so it is
    # taken only where more windows follow; a last window usually holds
    # every codeword left, and bounds the walk by its bits.
    if final:
        limit = min(out.size, nbits - first)
    else:
        limit = min(out.size, int(np.bitwise_count(raw).sum()))
    # bound[i] is where codeword i starts and codeword i - 1 ends.
    bound = np.empty(limit + 1, dtype=np.int64)
    hop = step.data
    p = first
    coarse = [first] * (limit // _CHAIN_STRIDE + 1)
    for i in range(1, len(coarse)):
        p = coarse[i] = hop[p]
    bound[::_CHAIN_STRIDE] = coarse
    for j in range(1, _CHAIN_STRIDE):
        dst = bound[j::_CHAIN_STRIDE]
        dst[:] = jump[bound[j - 1 :: _CHAIN_STRIDE][: dst.size]]
    # The codewords that end inside the window are a prefix.
    n = limit if bound[-1] <= nbits else int(np.count_nonzero(bound[1:] <= nbits))
    starts = bound[:n]
    ends = bound[1 : n + 1]
    lead = (starts + ends - 1) >> 1
    length = ends - lead
    longest = int(length.max()) if n else 0
    if longest > 63:
        # The first failing codeword decides. A complete codeword of 63 or
        # more zeros carries a value of 64 or more bits: no int64 gap holds it.
        raise CodecError("corrupt codeword")
    if n < out.size and (final or n == 0):
        p = int(bound[n])
        head = np.unpackbits(raw[p // 8 : p // 8 + 9])[p % 8 : p % 8 + _MAX_GAMMA_ZEROS]
        if head.size == _MAX_GAMMA_ZEROS and not head.any():
            raise CodecError("corrupt codeword")
        raise CodecError("truncated stream")
    padded = np.zeros(nbytes + 8, dtype=np.uint8)
    padded[:nbytes] = raw
    windows = np.ndarray((nbytes,), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
    at = lead >> 3
    shift = (lead & 7).view(np.uint64)
    bits = out[:n]
    np.take(windows, at, out=bits, mode="clip")  # "clip" skips a buffered copy
    bits <<= shift
    if longest > 57:
        # A value of more than 57 bits can reach into a ninth byte.
        spill = np.flatnonzero(shift + length.view(np.uint64) > 64)
        bits[spill] |= padded[at[spill] + 8].astype(np.uint64) >> (8 - shift[spill])
    np.subtract(64, length, out=length)
    bits >>= length.view(np.uint64)
    return n, int(bound[n])


def regenerate_indices(update: SparseUpdate, coeff_len: int) -> None:
    """Rebuild a RANDOM_SEED update's index set for receivers of
    ``coeff_len`` slots, once, so that they share it.

    Other kinds, and an entry count no set of that length can hold, are left
    as they are; ``resolve_indices`` rejects the latter per receiver.
    """
    if update.kind == UpdateKind.RANDOM_SEED and update.k <= coeff_len:
        update.indices = random_indices(coeff_len, update.k, update.seed)
        update.index_slots = coeff_len


def resolve_indices(update: SparseUpdate, coeff_len: int) -> np.ndarray | None:
    """Index set a receiver should scatter the values into.

    FULL (and any update covering every slot) resolves to None, meaning "all
    slots in order". RANDOM_SEED takes the set ``regenerate_indices`` built
    for this slot count, or regenerates it from the carried seed. Raises
    CodecError when indices fall outside [0, coeff_len) or the entry count is
    inconsistent with the slot count.
    """
    if update.k > coeff_len:
        raise CodecError("more entries than coefficient slots")
    if update.kind == UpdateKind.FULL:
        if update.k != coeff_len:
            raise CodecError("dense update with wrong slot count")
        return None
    if update.kind == UpdateKind.RANDOM_SEED:
        if update.index_slots == coeff_len:
            idx = update.indices
        else:
            idx = random_indices(coeff_len, update.k, update.seed)
    else:
        idx = update.indices
        if idx is None:
            raise CodecError("indexed update without indices")
        if idx.size and (int(idx[0]) < 0 or int(idx[-1]) >= coeff_len):
            raise CodecError("index out of range")
    if idx.size == coeff_len:
        return None
    return idx


def write_message_dump(fh, blobs) -> None:
    """Append serialized messages to an open binary file as length-prefixed
    records: u32 LE byte length, then the message."""
    for blob in blobs:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def read_message_dump(path) -> list[SparseUpdate]:
    out = []
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) < 4:
                raise CodecError("truncated stream")
            (length,) = struct.unpack("<I", head)
            blob = fh.read(length)
            if len(blob) < length:
                raise CodecError("truncated stream")
            out.append(deserialize(blob))
    return out
