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
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import lshift, or_, xor

import numpy as np

from .arrays import CodedArray, ShufflePlan, validate_mra
from .constructors import GcParameters, check_nnc_parameters, ct_parameters

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


@dataclass(frozen=True)
class MapReduceGraph:
    """Two-layer bipartite structure: batches <- mappers <- reducers."""

    batch_count: int
    mapper_storage: tuple[frozenset[int], ...]
    reducer_links: tuple[frozenset[int], ...]

    def __post_init__(self):
        for st in self.mapper_storage:
            if any(b < 0 or b >= self.batch_count for b in st):
                raise ValueError("batch index out of range")
        n_mappers = len(self.mapper_storage)
        for links in self.reducer_links:
            if any(m < 0 or m >= n_mappers for m in links):
                raise ValueError("mapper index out of range")

    @property
    def mapper_count(self) -> int:
        return len(self.mapper_storage)

    @property
    def reducer_count(self) -> int:
        return len(self.reducer_links)

    def reducer_access(self, k: int) -> frozenset[int]:
        """Batches readable by reducer k (union over its linked mappers)."""
        out: set[int] = set()
        for m in self.reducer_links[k]:
            out |= self.mapper_storage[m]
        return frozenset(out)


def mrg_canonical(arr: CodedArray) -> MapReduceGraph:
    """One mapper per batch; reducer k linked where its column has stars."""
    storage = tuple(frozenset([f]) for f in range(arr.rows))
    links = tuple(
        frozenset(int(f) for f in np.flatnonzero(arr.star_mask[:, k]))
        for k in range(arr.cols)
    )
    return MapReduceGraph(arr.rows, storage, links)


def mrg_ct(mappers: int, r: int, alpha: int) -> MapReduceGraph:
    """Combinatorial topology: one reducer per alpha-subset of mappers."""
    return mrg_gc(ct_parameters(mappers, r, alpha))


def mrg_gc(params: GcParameters) -> MapReduceGraph:
    """Batches indexed by r-subsets; K_alpha reducers per alpha-subset.

    Reducers are ordered exactly like the columns of ``algorithm2``:
    ascending alpha, then copy index, then lexicographic subset order.
    """
    lam, r = params.mappers, params.computation
    batches = list(combinations(range(lam), r))
    storage = tuple(
        frozenset(i for i, t in enumerate(batches) if m in t)
        for m in range(lam)
    )
    links: list[frozenset[int]] = []
    for a, count in enumerate(params.multiplicities, start=1):
        subsets = list(combinations(range(lam), a))
        for _copy in range(count):
            links.extend(frozenset(u) for u in subsets)
    return MapReduceGraph(len(batches), storage, tuple(links))


def mrg_nnc(mappers: int, r: int, alpha: int) -> MapReduceGraph:
    """Wrap-around topology: r consecutive batches per mapper, alpha
    consecutive mappers per reducer."""
    lam = mappers
    check_nnc_parameters(lam, r, alpha)
    storage = tuple(
        frozenset((r * m + j) % lam for j in range(r)) for m in range(lam)
    )
    links = tuple(
        frozenset((k + j) % lam for j in range(alpha)) for k in range(lam)
    )
    return MapReduceGraph(lam, storage, links)


def access_pattern(graph: MapReduceGraph) -> np.ndarray:
    """Boolean F x K grid: True where reducer k can read batch f."""
    out = np.zeros((graph.batch_count, graph.reducer_count), dtype=bool)
    for k in range(graph.reducer_count):
        for f in graph.reducer_access(k):
            out[f, k] = True
    return out


def computation_load(graph: MapReduceGraph) -> Fraction:
    """Total batch-degree over the mapper layer divided by the batch count."""
    return Fraction(
        sum(len(st) for st in graph.mapper_storage), graph.batch_count
    )


def choose_iv_bits(
    arr: CodedArray, t_base: int, eta1: int = 1, eta2: int = 1
) -> int:
    """Smallest multiple of t_base making every packet split even.

    Each symbol of multiplicity g splits its carrier into g - 1 packets, so
    eta1 * eta2 * t must be divisible by every g - 1.
    """
    if t_base < 1:
        raise ValueError("t_base must be positive")
    multiplicity = arr.stats.multiplicity
    if not multiplicity:
        raise JobPreconditionError("array has no integer symbols")
    if min(multiplicity.values()) < 2:
        raise JobPreconditionError("some symbol occurs only once")
    need = lcm(*(g - 1 for g in multiplicity.values()))
    factor = need // gcd(need, eta1 * eta2 * t_base)
    return t_base * factor


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


class IvOracle:
    """Seeded pseudo-random IV source: value(q, n) is a t-bit integer.

    Values depend only on (seed, q, n, t): function q owns an unbounded
    keyed-hash bit stream and IV n occupies bits [n*t, (n+1)*t) of it.
    """

    _BLOCK_BITS = 512

    def __init__(self, seed: int, iv_bits: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.t = iv_bits
        self._blocks: dict[tuple[int, int], int] = {}

    def _digest(self, q: int, b: int) -> bytes:
        """Block b of stream q: 512 bits, most significant first."""
        return hashlib.blake2b(struct.pack("<QQQ", self.seed, q, b)).digest()

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

    def streams(self, functions: int, count: int) -> list[int]:
        """IVs 0..count-1 of each function q < functions as one integer of
        count*t bits, IV 0 in the most significant bits."""
        bits = count * self.t
        blocks = range(-(-bits // self._BLOCK_BITS))
        excess = len(blocks) * self._BLOCK_BITS - bits
        digest = self._digest
        return [
            int.from_bytes(b"".join([digest(q, b) for b in blocks]), "big") >> excess
            for q in range(functions)
        ]


@dataclass(frozen=True)
class Message:
    sender: int
    symbol: int
    bits: int
    payload: int


@dataclass(frozen=True)
class ShuffleTranscript:
    """Ordered multicast messages: senders ascending, symbols ascending."""

    messages: tuple[Message, ...]
    total_bits: int

    def dump(self) -> str:
        """One line per message: ``k s len_bits hex_payload``."""
        lines = []
        for m in self.messages:
            nbytes = (m.bits + 7) // 8
            lines.append(
                f"{m.sender} {m.symbol} {m.bits} "
                f"{m.payload.to_bytes(nbytes, 'big').hex()}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReducerResult:
    reducer: int
    ok: bool
    recovered_ivs: int


@dataclass(frozen=True)
class DecodeReport:
    per_reducer: tuple[ReducerResult, ...]
    total_bits: int
    denominator: int

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.per_reducer)

    @property
    def measured_load(self) -> Fraction:
        return Fraction(self.total_bits, self.denominator)

    def to_json_dict(self) -> dict:
        return {
            "measured_load": f"{self.total_bits}/{self.denominator}",
            "measured_load_reduced": (
                f"{self.measured_load.numerator}/{self.measured_load.denominator}"
            ),
            "total_bits": self.total_bits,
            "all_decoded": self.all_ok,
            "per_reducer": [
                {"reducer": r.reducer, "ok": r.ok, "recovered_ivs": r.recovered_ivs}
                for r in self.per_reducer
            ],
        }


def _carriers(spec: JobSpec, eta1: int, eta2: int, rows, cols) -> list[int]:
    """Carrier of each cell (u, v) = (rows[i], cols[i]): the IVs reducer v
    needs from batch u, functions ascending, then files.

    For each function q of reducer v these are bits [u*eta1*t, (u+1)*eta1*t)
    of stream q, so every stream is generated once and sliced.
    """
    width = eta1 * spec.iv_bits
    mask = (1 << width) - 1
    last = spec.files // eta1 - 1
    streams = IvOracle(spec.seed, spec.iv_bits).streams(spec.functions, spec.files)
    out = []
    for u, v in zip(rows, cols):
        shift = (last - u) * width
        acc = 0
        for stream in streams[v * eta2 : (v + 1) * eta2]:
            acc = (acc << width) | ((stream >> shift) & mask)
        out.append(acc)
    return out


@dataclass(frozen=True)
class _Packets:
    """One job's carriers, each split into its labelled packets.

    Cells follow the array's shuffle plan.  ``tables[s][i][j]`` is the packet
    of symbol s's cell i labelled by the column of its cell j, or 0 where
    j == i; ``totals[s][j]`` is the XOR of label j's packets over all cells,
    the payload that cell j's column sends.
    """

    plan: ShufflePlan
    reducers: int
    ivs_per_cell: int
    iv_bits_total: int
    carriers: list[int]
    packet_bits: list[int]
    tables: list[list[list[int]]]
    totals: list[list[int]]


def _split(arr: CodedArray, spec: JobSpec) -> _Packets:
    """Check the job's preconditions and split every carrier into packets."""
    report = validate_mra(arr)
    if not report.ok:
        detail = report.violation.describe() if report.violation else "invalid"
        raise JobPreconditionError(f"array is not a valid map-reduce array: {detail}")
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
    for s, g in arr.stats.multiplicity.items():
        if carrier_bits % (g - 1):
            raise JobPreconditionError(
                f"symbol {s}: {g - 1} packets do not evenly divide "
                f"{carrier_bits} carrier bits"
            )

    plan = arr.shuffle_plan
    carriers = _carriers(spec, eta1, eta2, plan.rows.tolist(), plan.cols.tolist())
    offsets = plan.offsets.tolist()
    packet_bits, tables, totals = [], [], []
    for lo, hi in zip(offsets, offsets[1:]):
        # packets are labelled by the symbol's other columns in cell order
        plen = carrier_bits // (hi - lo - 1)
        mask = (1 << plen) - 1
        shifts = range(carrier_bits - plen, -1, -plen)
        table = []
        for i, carrier in enumerate(carriers[lo:hi]):
            row = [(carrier >> shift) & mask for shift in shifts]
            row.insert(i, 0)
            table.append(row)
        packet_bits.append(plen)
        tables.append(table)
        totals.append([reduce(xor, column) for column in zip(*table)])
    return _Packets(
        plan, K, eta1 * eta2, Q * N * t, carriers, packet_bits, tables, totals
    )


def _multicast(p: _Packets) -> ShuffleTranscript:
    """Each column sends, per symbol it holds, the XOR of the packets
    labelled by it; senders ascending, then symbols ascending."""
    sent = []
    for s, plen, payloads in zip(p.plan.symbols.tolist(), p.packet_bits, p.totals):
        sent.extend((s, plen, payload) for payload in payloads)
    cols = p.plan.cols.tolist()
    messages = tuple(
        Message(cols[i], *sent[i])
        for i in np.argsort(p.plan.cols, kind="stable").tolist()
    )
    return ShuffleTranscript(messages, sum(m.bits for m in messages))


def _decode(p: _Packets, transcript: ShuffleTranscript) -> DecodeReport:
    """Every reducer rebuilds each carrier of its column from the payloads
    in ``transcript`` and checks it against the oracle's carrier."""
    payload = {(m.sender, m.symbol): m.payload for m in transcript.messages}
    cols = p.plan.cols.tolist()
    offsets = p.plan.offsets.tolist()
    ok = [True] * p.reducers
    recovered = [0] * p.reducers
    for s, lo, hi, plen, table, totals in zip(
        p.plan.symbols.tolist(), offsets, offsets[1:], p.packet_bits, p.tables,
        p.totals,
    ):
        labels = cols[lo:hi]
        # side information of cell i for label j: total_j ^ packet(i, j),
        # the XOR of packet j over every cell but i and j; so
        # x = payload_j ^ total_j ^ packet(i, j)
        keys = [payload[(k, s)] ^ total for k, total in zip(labels, totals)]
        shifts = range((hi - lo - 2) * plen, -1, -plen)
        for i, (k, row) in enumerate(zip(labels, table)):
            xs = list(map(xor, keys, row))
            del xs[i]
            acc = reduce(or_, map(lshift, xs, shifts))
            recovered[k] += p.ivs_per_cell
            if acc != p.carriers[lo + i]:
                ok[k] = False
    results = tuple(
        ReducerResult(k, ok[k], recovered[k]) for k in range(p.reducers)
    )
    return DecodeReport(results, transcript.total_bits, p.iv_bits_total)


def _reduce(
    arr: CodedArray, spec: JobSpec, transcript: ShuffleTranscript
) -> DecodeReport:
    """Decode ``transcript``, whose payloads may differ from the job's own."""
    return _decode(_split(arr, spec), transcript)


def run_job(arr: CodedArray, spec: JobSpec) -> tuple[ShuffleTranscript, DecodeReport]:
    """Execute map, coded shuffle, and reduce; verify every recovered IV.

    Reducer k is assigned the function block [k*eta2, (k+1)*eta2) and batch f
    holds files [f*eta1, (f+1)*eta1).  The carrier of a cell (u, v) is the
    concatenation of the IVs reducer v needs from batch u (functions
    ascending, then files): per function q, one contiguous slice of q's IV
    stream, which is generated once per job.  A symbol of multiplicity g
    splits each of its carriers into g - 1 equal packets labelled by the
    symbol's other columns, and column k multicasts the XOR of the packets
    labelled k over the symbol's other cells.

    The array's cached shuffle plan lists each symbol's cells, and
    ``validate_mra`` puts every XOR term on a star of the column using it.
    Decoding reads the payloads from the transcript only.  With total_j the
    XOR of label j's packets over all cells, the reducer of cell i cancels
    label j's other terms with total_j ^ packet(i, j), so each symbol costs
    O(g^2) XORs.  Each rebuilt carrier is compared with the oracle's.
    """
    p = _split(arr, spec)
    transcript = _multicast(p)
    return transcript, _decode(p, transcript)
