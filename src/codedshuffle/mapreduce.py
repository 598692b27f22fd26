"""Map-reduce graphs and the coded shuffle simulation.

The simulation executes the full scheme an array encodes: a seeded oracle
supplies every intermediate value (IV), each reducer multicasts one XOR per
symbol present in its column, and every reducer then reconstructs the IVs
of its assigned functions from the messages plus the batches it can read.
Decoding is checked bit-for-bit against the oracle, and the measured load
is the exact ratio of transmitted bits to total IV bits.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .arrays import CodedArray, validate_mra
from .constructors import GcParameters, _subsets, check_nnc_parameters, ct_parameters

__all__ = [
    "MapReduceGraph",
    "JobSpec",
    "Message",
    "ShuffleTranscript",
    "ReducerResult",
    "DecodeReport",
    "JobPreconditionError",
    "mrg_canonical",
    "mrg_ct",
    "mrg_gc",
    "mrg_nnc",
    "access_pattern",
    "computation_load",
    "choose_iv_bits",
    "run_job",
]


class JobPreconditionError(ValueError):
    """Raised when a simulation parameter violates a divisibility rule."""


@dataclass(frozen=True, eq=False)
class MapReduceGraph:
    """Two-layer bipartite structure held as boolean incidence arrays:
    ``storage[f, m]`` is True when mapper m stores batch f, and
    ``links[m, k]`` when reducer k is linked to mapper m.  Both layers are
    kept as read-only bool copies."""

    storage: np.ndarray
    links: np.ndarray

    def __post_init__(self):
        for name in ("storage", "links"):
            layer = np.array(getattr(self, name), dtype=bool)
            layer.setflags(write=False)
            object.__setattr__(self, name, layer)
        if not (
            self.storage.ndim == self.links.ndim == 2
            and self.storage.shape[1] == self.links.shape[0]
        ):
            raise ValueError(
                f"layers must be F x M and M x K, got {self.storage.shape} "
                f"and {self.links.shape}"
            )

    @property
    def batch_count(self) -> int:
        return self.storage.shape[0]

    @property
    def mapper_count(self) -> int:
        return self.links.shape[0]

    @property
    def reducer_count(self) -> int:
        return self.links.shape[1]


def mrg_canonical(arr: CodedArray) -> MapReduceGraph:
    """One mapper per batch; reducer k linked where its column has stars."""
    return MapReduceGraph(np.eye(arr.rows, dtype=bool), arr.star_mask)


def mrg_ct(mappers: int, r: int, alpha: int) -> MapReduceGraph:
    """Combinatorial topology: one reducer per alpha-subset of mappers."""
    return mrg_gc(ct_parameters(mappers, r, alpha))


def mrg_gc(params: GcParameters) -> MapReduceGraph:
    """Batches indexed by r-subsets; K_alpha reducers per alpha-subset.

    Reducers are ordered exactly like the columns of ``algorithm2``:
    ascending alpha, then copy index, then lexicographic subset order.
    """
    lam = params.mappers

    def members(size: int) -> np.ndarray:
        """Row i marks the mappers of the i-th size-subset, lexicographic."""
        return (_subsets(lam, size)[..., None] == np.arange(lam)).any(axis=1)

    links = [
        np.tile(members(a).T, count)
        for a, count in enumerate(params.multiplicities, start=1)
        if count
    ]
    return MapReduceGraph(members(params.computation), np.hstack(links))


def mrg_nnc(mappers: int, r: int, alpha: int) -> MapReduceGraph:
    """Wrap-around topology: mapper m stores batches r*m .. r*m + r - 1 and
    reducer k is linked to mappers k .. k + alpha - 1, all mod mappers."""
    lam = mappers
    check_nnc_parameters(lam, r, alpha)
    i = np.arange(lam)
    return MapReduceGraph((i[:, None] - r * i) % lam < r, (i[:, None] - i) % lam < alpha)


def access_pattern(graph: MapReduceGraph) -> np.ndarray:
    """Boolean F x K grid: True where reducer k can read batch f, the
    boolean product of the two layers."""
    # BLAS is exact on 0/1 terms for sums below 2**53; on a 924-wide
    # product (2-core VM) float64 took 0.05 s, int64 1.0 s and bool 0.2 s
    return graph.storage.astype(np.float64) @ graph.links > 0


def computation_load(graph: MapReduceGraph) -> Fraction:
    """Total batch-degree over the mapper layer divided by the batch count."""
    return Fraction(int(graph.storage.sum()), graph.batch_count)


def choose_iv_bits(
    arr: CodedArray, t_base: int, eta1: int = 1, eta2: int = 1
) -> int:
    """Smallest multiple of t_base making every packet split even.

    Each symbol of multiplicity g splits its carrier into g - 1 packets, so
    eta1 * eta2 * t must be divisible by every g - 1.
    """
    if t_base < 1:
        raise ValueError("t_base must be positive")
    histogram = arr.stats.histogram
    if not histogram:
        raise JobPreconditionError("array has no integer symbols")
    if 1 in histogram:
        raise JobPreconditionError("some symbol occurs only once")
    need = lcm(*(g - 1 for g in histogram))
    factor = need // gcd(need, eta1 * eta2 * t_base)
    return t_base * factor


# Largest files * functions * iv_bits of a job.  The executor hashes at most
# one 512-bit block per 64 bytes of IV bits (8 MiB at the cap), so the cap
# bounds both its memory and its run time.
MAX_JOB_IV_BITS = 1 << 26

# Carrier bits per chunk of the executor's cell order, one byte per bit while
# packets are cut from carriers; one symbol is never split, so a chunk holds
# the symbols that start within its budget.
_CHUNK_BITS = 1 << 18


@dataclass(frozen=True)
class JobSpec:
    """Simulation parameters: file/function counts, IV width, seed."""

    files: int
    functions: int
    iv_bits: int
    seed: int = 0

    def __post_init__(self):
        if self.files < 1 or self.functions < 1 or self.iv_bits < 1:
            raise ValueError("files, functions and iv_bits must be positive")
        size = self.files * self.functions * self.iv_bits
        if size > MAX_JOB_IV_BITS:
            raise ValueError(
                f"files * functions * iv_bits = {size} exceeds the job size "
                f"cap MAX_JOB_IV_BITS = 2**26 = {MAX_JOB_IV_BITS}"
            )


class IvOracle:
    """Seeded pseudo-random IV source: value(q, n) is a t-bit integer.

    Values depend only on (seed, q, n, t): function q owns an unbounded
    keyed-hash bit stream and IV n occupies bits [n*t, (n+1)*t) of it.
    """

    _BLOCK_BITS = 512
    _KEY = struct.Struct("<QQQ")  # (seed, q, block)

    def __init__(self, seed: int, iv_bits: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.t = iv_bits
        self._blocks: dict[tuple[int, int], int] = {}

    def _digest(self, q: int, b: int) -> bytes:
        """Block b of stream q: 512 bits, most significant first."""
        return hashlib.blake2b(self._KEY.pack(self.seed, q, b)).digest()

    def _block(self, q: int, b: int) -> int:
        key = (q, b)
        got = self._blocks.get(key)
        if got is None:
            got = int.from_bytes(self._digest(q, b), "big")
            self._blocks[key] = got
        return got

    def value(self, q: int, n: int) -> int:
        start = n * self.t
        end = start + self.t
        first, last = start // self._BLOCK_BITS, (end - 1) // self._BLOCK_BITS
        acc = 0
        for b in range(first, last + 1):
            acc = (acc << self._BLOCK_BITS) | self._block(q, b)
        span = (last + 1) * self._BLOCK_BITS
        acc >>= span - end
        return acc & ((1 << self.t) - 1)

    def blocks(self, functions: np.ndarray, blocks: np.ndarray) -> bytes:
        """Blocks ``(functions[i], blocks[i])`` of the streams, back to back:
        64 bytes each, in the order given, most significant bit first."""
        seed, key, blake2b = self.seed, self._KEY.pack, hashlib.blake2b
        # _digest(q, b), inlined: this loop is most of a small job's time
        return b"".join(
            [blake2b(key(seed, q, b)).digest()
             for q, b in zip(functions.tolist(), blocks.tolist())]
        )


@dataclass(frozen=True)
class Message:
    sender: int
    symbol: int
    bits: int
    payload: int


class _Columns(Sequence):
    """Read-only records stored as numpy columns, one per slot, the first
    holding one entry per record.  A record, by default ``_type`` of the
    slots' entries, is built only when one is indexed or iterated: built
    eagerly, per-reducer records cost run_job 18% more over perfbench's
    decode_sweep jobs on a 2-core VM.  Slicing gives a tuple; equality and
    hash compare the columns."""

    __slots__ = ()

    def __init__(self, *columns):
        for name, a in zip(self.__slots__, columns):
            a.setflags(write=False)
            setattr(self, name, a)

    def __len__(self) -> int:
        return getattr(self, self.__slots__[0]).shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return self._record(range(len(self))[i])

    def _record(self, i: int):
        return self._type(*(getattr(self, name)[i].item() for name in self.__slots__))

    def _key(self) -> tuple[bytes, ...]:
        return tuple(getattr(self, name).tobytes() for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class _MessageColumns(_Columns):
    """Messages in send order.  ``payload`` holds each message's payload
    big-endian, left-padded to whole bytes, at ``offsets[i]:offsets[i + 1]``;
    senders, symbols and bits are non-negative."""

    __slots__ = ("sender", "symbol", "bits", "offsets", "payload")

    @classmethod
    def of(cls, messages) -> "_MessageColumns":
        messages = tuple(messages)
        payloads = [m.payload.to_bytes((m.bits + 7) // 8, "big") for m in messages]
        offsets = np.zeros(len(messages) + 1, np.int64)
        np.cumsum([len(p) for p in payloads], out=offsets[1:])
        numbers = np.array(
            [(m.sender, m.symbol, m.bits) for m in messages], np.int64
        ).reshape(-1, 3).T.copy()
        if (numbers < 0).any():
            raise ValueError("message senders, symbols and bits must be non-negative")
        return cls(*numbers, offsets, np.frombuffer(b"".join(payloads), np.uint8))

    def _record(self, i: int) -> Message:
        lo, hi = self.offsets[i : i + 2].tolist()
        return Message(
            *(c[i].item() for c in (self.sender, self.symbol, self.bits)),
            int.from_bytes(self.payload[lo:hi].tobytes(), "big"),
        )


@dataclass(frozen=True)
class ShuffleTranscript:
    """Multicast messages in send order: senders ascending, then symbols.

    The messages are stored as columns: sender, symbol, bits and payload
    bytes.  ``messages`` accepts any sequence of :class:`Message`, which is
    turned into columns here, and reads back as a read-only sequence with
    an O(1) ``len()`` that builds a ``Message`` only when one is indexed or
    iterated.  Everything else, the total bits sent included, is read off
    the columns.
    """

    messages: Sequence[Message]

    def __post_init__(self):
        if not isinstance(self.messages, _MessageColumns):
            object.__setattr__(self, "messages", _MessageColumns.of(self.messages))

    @property
    def total_bits(self) -> int:
        return int(self.messages.bits.sum())

    def dump(self) -> str:
        """One line per message: ``k s len_bits hex_payload``."""
        m = self.messages
        hexed = m.payload.tobytes().hex()
        cuts = (2 * m.offsets).tolist()
        lines = [
            f"{k} {s} {b} {hexed[lo:hi]}"
            for k, s, b, lo, hi in zip(
                m.sender.tolist(), m.symbol.tolist(), m.bits.tolist(), cuts, cuts[1:]
            )
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReducerResult:
    reducer: int
    ok: bool
    recovered_ivs: int


class _ReducerColumns(_Columns):
    """Per-reducer results, one row per reducer."""

    __slots__ = ("reducer", "ok", "recovered_ivs")
    _type = ReducerResult

    @classmethod
    def of(cls, results) -> "_ReducerColumns":
        results = tuple(results)
        return cls(
            np.array([r.reducer for r in results], np.int64),
            np.array([r.ok for r in results], bool),
            np.array([r.recovered_ivs for r in results], np.int64),
        )


@dataclass(frozen=True)
class DecodeReport:
    """Decode verdicts of one job.

    ``per_reducer`` accepts any sequence of :class:`ReducerResult`, which
    is turned into columns here, and reads back as a read-only sequence
    that builds a ``ReducerResult`` only when one is indexed or iterated.
    """

    per_reducer: Sequence[ReducerResult]
    total_bits: int
    denominator: int

    def __post_init__(self):
        if not isinstance(self.per_reducer, _ReducerColumns):
            object.__setattr__(self, "per_reducer", _ReducerColumns.of(self.per_reducer))

    @property
    def all_ok(self) -> bool:
        return bool(self.per_reducer.ok.all())

    @property
    def measured_load(self) -> Fraction:
        return Fraction(self.total_bits, self.denominator)

    def to_json_dict(self) -> dict:
        c = self.per_reducer
        return {
            "measured_load": f"{self.total_bits}/{self.denominator}",
            "measured_load_reduced": (
                f"{self.measured_load.numerator}/{self.measured_load.denominator}"
            ),
            "total_bits": self.total_bits,
            "all_decoded": self.all_ok,
            "per_reducer": [
                {"reducer": k, "ok": ok, "recovered_ivs": n}
                for k, ok, n in zip(
                    c.reducer.tolist(), c.ok.tolist(), c.recovered_ivs.tolist()
                )
            ],
        }


def _check_job(arr: CodedArray, spec: JobSpec) -> tuple[int, int]:
    """Check the job's preconditions; returns (eta1, eta2)."""
    report = validate_mra(arr)
    if not report.ok:
        raise JobPreconditionError(
            f"array is not a valid map-reduce array: {report.violation.describe()}"
        )
    F, K = arr.rows, arr.cols
    N, Q, t = spec.files, spec.functions, spec.iv_bits
    if N % F:
        raise JobPreconditionError(f"batch count {F} must divide file count {N}")
    if Q % K:
        raise JobPreconditionError(
            f"reducer count {K} must divide function count {Q}"
        )
    eta1, eta2 = N // F, Q // K
    carrier_bits = eta1 * eta2 * t
    if any(carrier_bits % (g - 1) for g in arr.stats.histogram):
        s, g = next(
            (s, g) for s, g in arr.stats.multiplicity.items() if carrier_bits % (g - 1)
        )
        raise JobPreconditionError(
            f"symbol {s}: {g - 1} packets do not evenly divide "
            f"{carrier_bits} carrier bits"
        )
    return eta1, eta2


class _IvTable:
    """The stream blocks that the carriers of some cells read, hashed once.

    ``data`` holds each (function, block) pair that a carrier bit of a cell
    falls in, 64 bytes each in (function, block) order, then one zero byte
    for the last byte window to run into.  The blocks that one carrier
    segment spans are therefore adjacent in ``data``.  Where block b of stream
    q is read, ``slot[q * nb + b]`` is its place in ``data``.
    """

    def __init__(
        self, oracle: IvOracle, eta1: int, eta2: int, files: int,
        functions: int, rows: np.ndarray, cols: np.ndarray,
    ):
        block = IvOracle._BLOCK_BITS
        self.seg, self.eta2 = eta1 * oracle.t, eta2
        self.stream_blocks = nb = -(-files * oracle.t // block)
        # cell (u, v) reads blocks u*seg // block to ((u+1)*seg - 1) // block
        # of the streams of v's functions: mark each column's block ranges
        # with +1/-1 edges and sum them along the blocks
        K, base = functions // eta2, cols * (nb + 1)
        edges = np.bincount(base + rows * self.seg // block, minlength=K * (nb + 1))
        edges -= np.bincount(
            base + ((rows + 1) * self.seg - 1) // block + 1, minlength=K * (nb + 1)
        )
        read = edges.reshape(K, nb + 1)[:, :nb].cumsum(axis=1).repeat(eta2, axis=0) > 0
        self.slot = read.cumsum() - 1  # flat, so at q*nb + block
        q, b = read.nonzero()
        self.data = np.frombuffer(oracle.blocks(q, b) + bytes(1), np.uint8)

    def carriers(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Carrier bits of the cells (rows[i], cols[i]), shape (n, W), one
        byte per bit: the IVs reducer v needs from batch u, functions
        ascending, then files.

        For each function q of reducer v these are bits [u*eta1*t,
        (u+1)*eta1*t) of stream q: one gather of the byte windows holding
        them, a shift of each window to its first bit, and one unpack.
        """
        seg, block = self.seg, IvOracle._BLOCK_BITS
        start = rows[:, None] * seg
        funcs = cols[:, None] * self.eta2 + np.arange(self.eta2)
        slot = self.slot[funcs * self.stream_blocks + start // block]
        at = (slot * block + start % block) // 8
        # a window runs at most one byte past the last block it reads
        window = _windows(self.data, (seg + 7) // 8 + 1)[at]
        shift = (start % 8).astype(np.uint8)[..., None]
        aligned = (window[..., :-1] << shift) | (window[..., 1:] >> (8 - shift))
        return np.unpackbits(aligned, axis=-1, count=seg).reshape(rows.shape[0], -1)


def _execute(
    arr: CodedArray, spec: JobSpec, transcript: ShuffleTranscript | None = None
) -> tuple[ShuffleTranscript, DecodeReport]:
    """Encode the job's transcript, or take ``transcript`` as sent, and
    decode it.  A given transcript must hold one message per cell of the
    job, matched by (sender, symbol) in any order, with the job's packet
    widths; otherwise ValueError."""
    eta1, eta2 = _check_job(arr, spec)
    plan = arr.shuffle_plan
    width = eta1 * eta2 * spec.iv_bits
    n_cells = plan.rows.shape[0]
    counts = plan.offsets[1:] - plan.offsets[:-1]
    g_cell = counts.repeat(counts)  # each cell's multiplicity
    order = plan.cols.argsort(kind="stable")  # send order of the cells
    senders = plan.cols[order]
    symbols = plan.symbols.repeat(counts)[order]
    bits = width // (g_cell[order] - 1)
    if transcript is None:
        offsets = np.zeros(n_cells + 1, np.int64)
        ((bits + 7) // 8).cumsum(out=offsets[1:])
        payload = np.empty(offsets[-1], np.uint8)
        sent = np.arange(n_cells)
    else:
        messages = transcript.messages
        sent = np.lexsort((messages.symbol, messages.sender))
        if not (
            sent.shape == order.shape
            and np.array_equal(messages.sender[sent], senders)
            and np.array_equal(messages.symbol[sent], symbols)
            and np.array_equal(messages.bits[sent], bits)
        ):
            raise ValueError("transcript does not hold one message per cell of the job")
        offsets, payload = messages.offsets, messages.payload
    # the r-th cell in send order is the transcript's r-th message by
    # (sender, symbol); row[c] is the transcript row of plan cell c
    row = np.empty_like(order)
    row[order] = sent

    # class-major order: the plan's cells by their symbol's multiplicity g,
    # stably, so each class, and each chunk of about _CHUNK_BITS carrier
    # bits, is a run of whole symbols
    cells = g_cell.argsort(kind="stable")
    g_at = g_cell[cells]
    rows, cols, first_byte = plan.rows[cells], plan.cols[cells], offsets[row[cells]]
    classes = ((g_at[1:] != g_at[:-1]).nonzero()[0] + 1).tolist()
    chunks = [n_cells]
    if n_cells * width > _CHUNK_BITS:
        # a chunk holds the symbols whose first carrier bit is in its budget
        first = np.zeros(n_cells, bool)
        first[plan.offsets[:-1]] = True
        starts = first[cells].nonzero()[0]
        chunk = starts * width // _CHUNK_BITS
        chunks[:0] = starts[1:][chunk[1:] != chunk[:-1]].tolist()

    ivs = _IvTable(
        IvOracle(spec.seed, spec.iv_bits), eta1, eta2,
        spec.files, spec.functions, rows, cols,
    )
    # the encoder's payloads in the payload column's layout: that column, if encoding
    expected = payload if transcript is None else np.empty_like(payload)
    lo = 0
    for hi in chunks:
        carriers = ivs.carriers(rows[lo:hi], cols[lo:hi])
        cuts = [lo, *(c for c in classes if lo < c < hi), hi]
        for a, b in zip(cuts, cuts[1:]):
            g = int(g_at[a])
            n, plen = (b - a) // g, width // (g - 1)
            # payloads are left-padded to whole bytes; so are the packets, so
            # every XOR, and the compare after the loop, is on bytes
            pb = (plen + 7) // 8
            split = carriers[a - lo : b - lo].reshape(n, g, g - 1, plen)
            if plen % 8:
                padded = np.zeros((n, g, g - 1, 8 * pb), np.uint8)
                padded[..., -plen:] = split
                split = padded
            # whole bytes per packet, so one flat pack splits at packets
            packets = np.packbits(split.reshape(-1)).reshape(n, g - 1, g, pb)
            # table[:, i, j]: the packet of cell i labelled j, 0 where i == j.
            # Row-major, a g x g block's off-diagonal entries are the packets
            # in (cell, label) order: after entry 0, runs of g + 1 entries,
            # g off-diagonal ones and then a diagonal one
            table = np.zeros((n, g, g, pb), np.uint8)
            runs = table.reshape(n, g * g, pb)[:, 1:].reshape(n, g - 1, g + 1, pb)
            runs[:, :, :g] = packets
            totals = np.bitwise_xor.reduce(table, axis=1)
            _windows(expected, pb)[first_byte[a:b]] = totals.reshape(n * g, pb)
        lo = hi

    # side information of cell i for label j: total_j ^ packet(i, j), the XOR
    # of packet j over every cell but i and j; so cell i rebuilds packet(i, j)
    # exactly when payload_j == total_j, pad bits included, and decodes when
    # no other message of its symbol is wrong
    wrong = np.logical_or.reduceat(payload != expected, offsets[:-1])[row]
    ok = np.add.reduceat(wrong, plan.offsets[:-1], dtype=int).repeat(counts) == wrong
    if transcript is None:
        messages = _MessageColumns(senders, symbols, bits, offsets, payload)
        transcript = ShuffleTranscript(messages)
    K = arr.cols
    failed = np.bincount(plan.cols, weights=~ok, minlength=K)
    recovered = np.bincount(plan.cols, minlength=K) * (eta1 * eta2)
    results = _ReducerColumns(np.arange(K), failed == 0, recovered)
    return transcript, DecodeReport(
        results, transcript.total_bits, spec.files * spec.functions * spec.iv_bits
    )


def _windows(a: np.ndarray, size: int) -> np.ndarray:
    """Every run of ``size`` bytes of the uint8 vector ``a``: row i is the
    view ``a[i : i + size]``, so a row gather copies whole windows."""
    return np.ndarray((a.shape[0] - size + 1, size), np.uint8, a, 0, (1, 1))


def _reduce(
    arr: CodedArray, spec: JobSpec, transcript: ShuffleTranscript
) -> DecodeReport:
    """Decode ``transcript``, whose payloads may differ from the job's own."""
    return _execute(arr, spec, transcript)[1]


def run_job(arr: CodedArray, spec: JobSpec) -> tuple[ShuffleTranscript, DecodeReport]:
    """Execute map, coded shuffle, and reduce; verify every recovered IV.

    Reducer k is assigned the function block [k*eta2, (k+1)*eta2) and batch f
    holds files [f*eta1, (f+1)*eta1).  The carrier of a cell (u, v) is the
    concatenation of the IVs reducer v needs from batch u (functions
    ascending, then files).  A symbol of multiplicity g splits each of its
    carriers into g - 1 equal packets labelled by the symbol's other
    columns, and column k multicasts the XOR of the packets labelled k over
    the symbol's other cells.

    The executor walks the cells of the array's cached shuffle plan in
    class-major order (symbols by multiplicity g), so each class is a run of
    it, in chunks of about ``_CHUNK_BITS`` carrier bits that never split a
    symbol.  The IV oracle hashes only the 512-bit stream blocks that some
    cell's carrier reads, each once.  A chunk gathers all its carriers at
    once from those blocks; per class, the packets are packed to bytes,
    left-padded as the payloads are, written through a view into the
    off-diagonal entries of one (n, g, g, bytes) table and XOR-reduced over
    the cells into the payloads.  These fill a buffer laid out as the
    transcript's payload column, which is that column when encoding.
    ``validate_mra`` puts every XOR term on a star of the column using it.

    Cell i rebuilds packet(i, j) as payload_j ^ total_j ^ packet(i, j), with
    total_j the XOR of label j's packets over all cells; so a reader decodes
    when every other message of its symbol equals the XOR the encoder
    computed, pad bits included.  One byte compare of the whole payload
    column marks the wrong messages; ``np.add.reduceat`` over the symbols
    and ``np.bincount`` over the cells' columns give the verdicts.
    """
    return _execute(arr, spec)
