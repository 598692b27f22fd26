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
from itertools import combinations
from math import gcd, lcm

import numpy as np

from .arrays import STAR, CodedArray, validate_mra
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

    def _block(self, q: int, b: int) -> int:
        key = (q, b)
        got = self._blocks.get(key)
        if got is None:
            data = struct.pack("<QQQ", self.seed, q, b)
            got = int.from_bytes(hashlib.blake2b(data).digest(), "big")
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


def _concat_ivs(oracle: IvOracle, qs: range, ns: range, t: int) -> int:
    acc = 0
    for q in qs:
        for n in ns:
            acc = (acc << t) | oracle.value(q, n)
    return acc


def run_job(arr: CodedArray, spec: JobSpec) -> tuple[ShuffleTranscript, DecodeReport]:
    """Execute map, coded shuffle, and reduce; verify every recovered IV.

    Reducer k is assigned the function block [k*eta2, (k+1)*eta2) and batch f
    holds files [f*eta1, (f+1)*eta1).  For each symbol s in column k the
    carrier of a cell (u, v) is the concatenation of the IVs reducer v needs
    from batch u (functions ascending, then files); it splits into g_s - 1
    equal packets labeled by the other columns holding s, and reducer k
    multicasts the XOR of the packets labeled k over all other cells of s.
    """
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

    stats = arr.stats
    for s, g in stats.multiplicity.items():
        if carrier_bits % (g - 1):
            raise JobPreconditionError(
                f"symbol {s}: {g - 1} packets do not evenly divide "
                f"{carrier_bits} carrier bits"
            )

    cells: dict[int, list[tuple[int, int]]] = {}
    for f, k in np.argwhere(arr.grid != STAR):
        cells.setdefault(int(arr.grid[f, k]), []).append((int(f), int(k)))
    col_of: dict[int, list[int]] = {s: [k for _, k in cc] for s, cc in cells.items()}
    col_syms: dict[int, list[int]] = {}
    for s, cc in cells.items():
        for _, k in cc:
            col_syms.setdefault(k, []).append(s)

    oracle = IvOracle(spec.seed, t)
    # Split every carrier into its labeled packets up front: the carrier of
    # cell (u, v) holds the IVs reducer v needs from batch u, and packet
    # labels are the other columns carrying the same symbol, ascending.
    packets: dict[tuple[int, int], dict[int, int]] = {}
    for s, cc in cells.items():
        g = stats.multiplicity[s]
        plen = carrier_bits // (g - 1)
        mask = (1 << plen) - 1
        for u, v in cc:
            carrier = _concat_ivs(
                oracle,
                range(v * eta2, (v + 1) * eta2),
                range(u * eta1, (u + 1) * eta1),
                t,
            )
            labels = [c for c in col_of[s] if c != v]
            packets[(u, v)] = {
                label: (carrier >> ((g - 2 - j) * plen)) & mask
                for j, label in enumerate(labels)
            }

    messages: list[Message] = []
    index: dict[tuple[int, int], int] = {}
    for k in range(K):
        for s in sorted(set(col_syms.get(k, []))):
            g = stats.multiplicity[s]
            plen = carrier_bits // (g - 1)
            x = 0
            for u, v in cells[s]:
                if v == k:
                    continue
                # every XORed term must be derivable from the sender's own
                # batches; the crossing condition guarantees the star
                if arr.grid[u, k] != STAR:
                    raise AssertionError(
                        f"sender {k} cannot compute carrier ({u}, {v})"
                    )
                x ^= packets[(u, v)][k]
            index[(k, s)] = len(messages)
            messages.append(Message(k, s, plen, x))
    total_bits = sum(m.bits for m in messages)
    transcript = ShuffleTranscript(tuple(messages), total_bits)

    iv_mask = (1 << t) - 1
    results: list[ReducerResult] = []
    for k in range(K):
        ok = True
        recovered = 0
        for f in np.flatnonzero(arr.grid[:, k] != STAR):
            f = int(f)
            s = int(arr.grid[f, k])
            labels = [c for c in col_of[s] if c != k]
            plen = carrier_bits // len(labels)
            acc = 0
            for ki in labels:
                x = messages[index[(ki, s)]].payload
                for u, v in cells[s]:
                    if v == ki or (u, v) == (f, k):
                        continue
                    if arr.grid[u, k] != STAR:
                        raise AssertionError(
                            f"reducer {k} cannot cancel carrier ({u}, {v})"
                        )
                    x ^= packets[(u, v)][ki]
                acc = (acc << plen) | x
            for j, q in enumerate(range(k * eta2, (k + 1) * eta2)):
                for jj, n in enumerate(range(f * eta1, (f + 1) * eta1)):
                    pos = j * eta1 + jj
                    shift = (eta1 * eta2 - 1 - pos) * t
                    got = (acc >> shift) & iv_mask
                    recovered += 1
                    if got != oracle.value(q, n):
                        ok = False
        results.append(ReducerResult(k, ok, recovered))

    report = DecodeReport(tuple(results), total_bits, Q * N * t)
    return transcript, report
