from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedshuffle import (
    STAR,
    CodedArray,
    GcParameters,
    JobSpec,
    MapReduceGraph,
    access_pattern,
    algorithm1,
    algorithm2,
    choose_iv_bits,
    computation_load,
    fixture_names,
    load_fixture,
    load_from_array,
    mrg_canonical,
    mrg_ct,
    mrg_gc,
    mrg_nnc,
    nnc_pda,
    run_job,
    validate_mra,
)
from codedshuffle.mapreduce import (
    MAX_JOB_IV_BITS,
    DecodeReport,
    IvOracle,
    JobPreconditionError,
    Message,
    ShuffleTranscript,
    _IvTable,
    _reduce,
)

from codedshuffle.cli import FAMILIES

from oracles import bf_carrier, bf_dump, bf_run_job


# --- graphs -----------------------------------------------------------------


def _marked(column) -> list[int]:
    return np.flatnonzero(column).tolist()


def test_mrg_ct_example():
    g = mrg_ct(5, 2, 2)
    assert (g.batch_count, g.mapper_count, g.reducer_count) == (10, 5, 10)
    g = mrg_ct(4, 2, 2)
    assert g.batch_count == 6
    # mapper 0 stores the batches whose index set contains 0
    assert _marked(g.storage[:, 0]) == [0, 1, 2]
    # reducer {0,1} reads the union of mappers 0 and 1
    assert _marked(g.links[:, 0]) == [0, 1]
    reads = access_pattern(g)[:, 0]
    assert np.array_equal(reads, g.storage[:, 0] | g.storage[:, 1])
    assert reads.sum() == 5


def test_mrg_nnc_example():
    g = mrg_nnc(12, 2, 4)
    assert (g.batch_count, g.mapper_count, g.reducer_count) == (12, 12, 12)
    assert _marked(access_pattern(g)[:, 0]) == list(range(8))
    assert _marked(g.storage[:, 5]) == [10, 11]
    assert _marked(g.links[:, 11]) == [0, 1, 2, 11]


def test_mrg_canonical_all_star_column():
    arr = CodedArray(np.full((3, 1), STAR, dtype=np.int64))
    g = mrg_canonical(arr)
    assert _marked(g.links[:, 0]) == [0, 1, 2]


@pytest.mark.parametrize(
    "storage, links",
    [
        (np.ones(3), np.ones((1, 2))),
        (np.ones((3, 2)), np.ones((2, 2, 1))),
        (np.ones((3, 2)), np.ones((3, 2))),
    ],
    ids=["storage-1d", "links-3d", "mapper-counts-differ"],
)
def test_graph_rejects_bad_layers(storage, links):
    with pytest.raises(ValueError, match="layers must be"):
        MapReduceGraph(storage, links)


def test_graph_layers_are_read_only_bool_copies(golden):
    storage = np.eye(2, dtype=np.int64)
    own = MapReduceGraph(storage, [[1], [0]])
    storage[0, 1] = 1  # later writes to the caller's array do not reach it
    assert _marked(own.storage[0]) == [0]
    built = (
        own,
        mrg_canonical(golden["mra_irregular"]),
        mrg_ct(4, 2, 2),
        mrg_gc(GcParameters(4, 2, (2, 3))),
        mrg_nnc(12, 2, 4),
    )
    for g in built:
        for layer in (g.storage, g.links):
            assert layer.dtype == bool and not layer.flags.writeable
            with pytest.raises(ValueError):
                layer[0, 0] = True


def test_access_pattern_matches_arrays(golden, constructor_sweep):
    assert np.array_equal(
        access_pattern(mrg_ct(4, 2, 2)), golden["ct_4_2_2"].star_mask
    )
    assert np.array_equal(
        access_pattern(mrg_nnc(12, 2, 4)), golden["cyclic_pda_12"].star_mask
    )
    assert np.array_equal(
        access_pattern(mrg_gc(GcParameters(4, 2, (2, 3)))),
        golden["gc_4_2_k23"].star_mask,
    )
    arr = golden["mra_irregular"]
    assert np.array_equal(access_pattern(mrg_canonical(arr)), arr.star_mask)
    # the map-reduce graph of every sweep point reads exactly the stars of
    # its array, and its mappers store r batches' worth
    for family, point, arr in constructor_sweep:
        graph = FAMILIES[family].graph(point)
        _, r, _ = point
        assert np.array_equal(access_pattern(graph), arr.star_mask), point
        assert computation_load(graph) == r, point


def test_computation_load():
    # reducer k linked to mappers k and k + 1 (mod 3)
    one_each = MapReduceGraph(np.eye(3), [[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert computation_load(one_each) == 1
    # six mappers holding one batch each over three batches
    m = np.arange(6)
    doubled = MapReduceGraph(np.arange(3)[:, None] == m % 3, m[:, None] % 3 == np.arange(3))
    assert computation_load(doubled) == 2
    assert computation_load(mrg_ct(4, 2, 2)) == 2
    assert computation_load(mrg_nnc(12, 2, 4)) == 2
    assert computation_load(mrg_canonical(algorithm1(4, 2, 2))) == 1


# --- IV width selection -------------------------------------------------------


def test_choose_iv_bits(golden):
    assert choose_iv_bits(golden["mra_irregular"], 1) == 2
    assert choose_iv_bits(golden["ct_4_2_2"], 1) == 5
    assert choose_iv_bits(golden["cyclic_pda_4"], 7) == 7
    # extra files per batch can absorb the packet split
    assert choose_iv_bits(golden["mra_irregular"], 1, eta1=2) == 1
    with pytest.raises(ValueError, match="t_base must be positive"):
        choose_iv_bits(golden["mra_irregular"], 0)


def test_choose_iv_bits_rejects_orphans(golden):
    with pytest.raises(JobPreconditionError, match="only once"):
        choose_iv_bits(golden["basic_pda"], 1)
    with pytest.raises(JobPreconditionError, match="no integer symbols"):
        choose_iv_bits(CodedArray(np.full((2, 3), STAR)), 1)


# --- the oracle ----------------------------------------------------------------


def test_oracle_is_deterministic_and_seed_sensitive():
    a = IvOracle(7, 13)
    b = IvOracle(7, 13)
    c = IvOracle(8, 13)
    vals_a = [a.value(q, n) for q in range(3) for n in range(5)]
    vals_b = [b.value(q, n) for q in range(3) for n in range(5)]
    vals_c = [c.value(q, n) for q in range(3) for n in range(5)]
    assert vals_a == vals_b
    assert vals_a != vals_c
    assert all(0 <= v < 2**13 for v in vals_a)


def test_oracle_spans_hash_blocks():
    # t chosen so IVs straddle the 512-bit stream blocks
    o = IvOracle(1, 100)
    assert o.value(0, 5) == IvOracle(1, 100).value(0, 5)
    assert o.value(0, 5) != o.value(0, 6)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 700),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_carriers_match_oracle(seed, t, eta1, eta2, rows, cols, data):
    # t up to 700 makes IVs straddle the oracle's 512-bit blocks, and most
    # widths leave carriers and packets off byte boundaries.  The table
    # holds only the blocks under the non-star cells of a random star mask
    spec = JobSpec(rows * eta1, cols * eta2, t, seed)
    cells = rows * cols
    read = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    read[data.draw(st.integers(0, cells - 1))] = True
    us, vs = np.nonzero(np.reshape(read, (rows, cols)))
    ivs = _IvTable(IvOracle(seed, t), eta1, eta2, spec.files, spec.functions, us, vs)
    got = ivs.carriers(us, vs)
    assert got.shape == (us.size, eta1 * eta2 * t)
    oracle = IvOracle(seed, t)
    for bits, u, v in zip(got, us.tolist(), vs.tolist()):
        assert int("".join(map(str, bits.tolist())), 2) == bf_carrier(oracle, u, v, eta1, eta2)


_VALID_FIXTURES = [n for n in fixture_names() if validate_mra(load_fixture(n)).ok]
_ETAS = ((1, 1), (2, 1), (1, 2), (2, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_VALID_FIXTURES),
    st.sampled_from(_ETAS),
    st.sampled_from([1, 97, 300]),
    st.integers(0, 2**64 - 1),
)
def test_job_hashes_exactly_the_blocks_it_reads(name, eta, t_base, seed):
    # every (function, block) pair that a carrier bit of a non-star cell
    # falls in is hashed, once, and no other
    arr = load_fixture(name)
    eta1, eta2 = eta
    t = choose_iv_bits(arr, t_base, eta1, eta2)
    hashed = []
    blocks = IvOracle.blocks

    def record(oracle, functions, block_ids):
        hashed.extend(zip(functions.tolist(), block_ids.tolist()))
        return blocks(oracle, functions, block_ids)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IvOracle, "blocks", record)
        _, rep = run_job(arr, JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed))
    assert rep.all_ok
    read = {
        (q, bit // 512)
        for u, v in np.argwhere(arr.grid != STAR).tolist()
        for q in range(v * eta2, (v + 1) * eta2)
        for bit in range(u * eta1 * t, (u + 1) * eta1 * t)
    }
    assert len(hashed) == len(set(hashed))
    assert set(hashed) == read


# --- the shuffle ----------------------------------------------------------------


def test_run_job_examples(golden):
    tr, rep = run_job(golden["mra_irregular"], JobSpec(4, 5, 2, 0))
    assert rep.all_ok
    assert rep.measured_load == Fraction(15, 40)
    assert (rep.total_bits, rep.denominator) == (15, 40)
    assert len(tr.messages) == 9
    lens = sorted(m.bits for m in tr.messages)
    assert lens == [1, 1, 1, 2, 2, 2, 2, 2, 2]

    tr, rep = run_job(golden["ct_4_2_2"], JobSpec(6, 6, 5, 0))
    assert rep.all_ok and rep.measured_load == Fraction(1, 30)
    assert len(tr.messages) == 6 and {m.bits for m in tr.messages} == {1}

    tr, rep = run_job(golden["cyclic_pda_12"], JobSpec(12, 12, 3, 0))
    assert rep.all_ok and rep.measured_load == Fraction(1, 9)
    assert len(tr.messages) == 48 and {m.bits for m in tr.messages} == {1}


def test_run_job_message_structure(golden):
    arr = golden["mra_2regular"]
    t = choose_iv_bits(arr, 1)
    tr, rep = run_job(arr, JobSpec(arr.rows * 2, arr.cols * 3, t, 5))
    # one message per (column, symbol-in-column) pair
    per_col = {}
    for f in range(arr.rows):
        for k in range(arr.cols):
            v = arr.entry(f, k)
            if v != STAR:
                per_col.setdefault(k, set()).add(v)
    assert len(tr.messages) == sum(len(s) for s in per_col.values())
    senders = [(m.sender, m.symbol) for m in tr.messages]
    assert senders == sorted(senders)
    assert rep.all_ok


def test_run_job_recovered_counts(golden):
    _, rep = run_job(golden["mra_irregular"], JobSpec(4, 5, 2, 0))
    by_reducer = {r.reducer: r.recovered_ivs for r in rep.per_reducer}
    # one IV per missing batch at eta1 = eta2 = 1
    assert by_reducer == {0: 2, 1: 2, 2: 2, 3: 2, 4: 1}


def test_run_job_load_identity(golden):
    for name in ("mra_irregular", "mra_2regular", "gc_4_2_k23", "cyclic_pda_4"):
        arr = golden[name]
        for eta1, eta2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
            t = choose_iv_bits(arr, 1, eta1, eta2)
            _, rep = run_job(
                arr, JobSpec(arr.rows * eta1, arr.cols * eta2, t, 3)
            )
            assert rep.all_ok
            assert rep.measured_load == load_from_array(arr), name


def test_transcript_determinism_and_dump(golden):
    arr = golden["mra_irregular"]
    tr1, _ = run_job(arr, JobSpec(4, 5, 2, 42))
    tr2, _ = run_job(arr, JobSpec(4, 5, 2, 42))
    tr3, _ = run_job(arr, JobSpec(4, 5, 2, 43))
    assert tr1.dump() == tr2.dump()
    assert tr1.dump() != tr3.dump()
    line = tr1.dump().splitlines()[0].split()
    assert len(line) == 4 and line[0] == "0"
    assert int(line[2]) in (1, 2)


# numbers at each digit-count boundary of int64, and any others
_DECIMAL = st.sampled_from(
    [0, 2**63 - 1] + [10**d + e for d in range(1, 19) for e in (-1, 0)]
) | st.integers(0, 2**63 - 1)


@st.composite
def _any_message(draw):
    bits = draw(st.integers(0, 130))
    # a right shift leaves leading zero bytes in the payload
    payload = draw(st.integers(0, 2**bits - 1)) >> draw(st.integers(0, bits))
    return Message(draw(_DECIMAL), draw(_DECIMAL), bits, payload)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_message(), max_size=8))
@example([])
def test_dump_matches_reference(messages):
    # bits run through every residue mod 8 and across the 1-, 2- and
    # 3-digit widths; no messages dump as one empty line
    assert ShuffleTranscript(messages).dump() == bf_dump(messages)


def test_transcript_fields_are_non_negative():
    for bad in (Message(-1, 0, 1, 0), Message(0, -2, 1, 0), Message(0, 0, -1, 0)):
        with pytest.raises(ValueError, match="non-negative"):
            ShuffleTranscript((Message(0, 0, 1, 1), bad))


def test_run_job_preconditions(golden):
    arr = golden["mra_irregular"]
    with pytest.raises(JobPreconditionError, match="divide"):
        run_job(arr, JobSpec(3, 5, 2, 0))
    with pytest.raises(JobPreconditionError, match="divide"):
        run_job(arr, JobSpec(4, 7, 2, 0))
    with pytest.raises(JobPreconditionError, match="packets"):
        run_job(arr, JobSpec(4, 5, 1, 0))  # symbol 0 needs 2 | t
    with pytest.raises(JobPreconditionError, match="map-reduce"):
        run_job(golden["basic_pda"], JobSpec(4, 4, 2, 0))
    # symbol 0 at (0,0) and (1,1) lacks the crossing star at (0,1): column 1
    # could not compute its carrier, and validate_mra is the only check
    with pytest.raises(JobPreconditionError, match="C2-2"):
        run_job(CodedArray(np.array([[0, 1], [1, 0]])), JobSpec(2, 2, 2, 0))


def test_run_job_on_constructed():
    arr = algorithm2(GcParameters(5, 2, (1, 0, 1)))
    t = choose_iv_bits(arr, 1)
    _, rep = run_job(arr, JobSpec(arr.rows, arr.cols, t, 9))
    assert rep.all_ok
    assert rep.measured_load == load_from_array(arr)

    arr = nnc_pda(10, 2, 4)
    t = choose_iv_bits(arr, 1)
    _, rep = run_job(arr, JobSpec(10, 10, t, 9))
    assert rep.all_ok
    assert rep.measured_load == load_from_array(arr)


def test_job_size_is_capped():
    JobSpec(1, 1, MAX_JOB_IV_BITS)
    with pytest.raises(ValueError, match="MAX_JOB_IV_BITS"):
        JobSpec(2, 1, MAX_JOB_IV_BITS // 2 + 1)
    with pytest.raises(ValueError, match="MAX_JOB_IV_BITS"):
        JobSpec(4_000_000, 5_000_000, 1)


@pytest.mark.parametrize(
    "kvec,eta,iv_bits",
    [
        # the costliest decode_sweep job and the sweep's most IV bits
        ((2, 3, 3, 3), 1, 1_530_900),
        ((3, 3, 3, 3), 2, 3_175_200),
    ],
)
def test_run_job_memory_is_bounded(kvec, eta, iv_bits):
    arr = algorithm2(GcParameters(6, 2, kvec))
    t = choose_iv_bits(arr, 1, eta, eta)
    spec = JobSpec(arr.rows * eta, arr.cols * eta, t, 17)
    assert spec.files * spec.functions * spec.iv_bits == iv_bits
    # the crossing scan and the shuffle plan are cached per array, not per job
    assert validate_mra(arr).ok and arr.shuffle_plan
    tracemalloc.start()
    try:
        _, rep = run_job(arr, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok
    assert peak < 4 * 2**20


def test_hand_built_transcript_dumps_and_decodes_the_same(golden):
    for name in ("mra_irregular", "gc_4_2_k23", "cyclic_pda_12"):
        arr = golden[name]
        # t_base 97 gives packets off byte boundaries
        spec = JobSpec(arr.rows, arr.cols * 2, choose_iv_bits(arr, 97, 1, 2), 4)
        tr, rep = run_job(arr, spec)
        built = ShuffleTranscript(tuple(tr.messages))
        assert built.dump() == tr.dump()
        assert built == tr
        assert _reduce(arr, spec, built) == _reduce(arr, spec, tr) == rep
        # the decoder looks messages up by (sender, symbol), not by position
        shuffled = tuple(tr.messages)[::-1]
        assert _reduce(arr, spec, ShuffleTranscript(shuffled)) == rep
        with pytest.raises(ValueError, match="one message per cell"):
            _reduce(arr, spec, ShuffleTranscript(tuple(tr.messages)[1:]))
        # a payload wider than its packet fails exactly its readers
        m = tr.messages[1]
        assert m.bits % 8
        wide = Message(m.sender, m.symbol, m.bits, m.payload | 1 << m.bits)
        got = _reduce(
            arr, spec, ShuffleTranscript((tr.messages[0], wide) + tr.messages[2:])
        )
        readers = set(np.flatnonzero((arr.grid == m.symbol).any(axis=0)).tolist())
        readers -= {m.sender}
        assert readers
        assert [r.ok for r in got.per_reducer] == [
            k not in readers for k in range(arr.cols)
        ]


def test_rebuilt_transcript_reports_the_bits_it_carries(golden, constructor_sweep):
    # a transcript's total is read off its messages, so one rebuilt from a
    # job's messages decodes to the job's own report, measured load included
    rng = random.Random(21)
    jobs = [(golden["mra_irregular"], JobSpec(4, 5, 2, 42))]
    for *_, arr in rng.sample(constructor_sweep, 40):  # criterion-9 jobs
        eta1, eta2 = rng.choice(_ETAS)
        t = choose_iv_bits(arr, 1, eta1, eta2)
        spec = JobSpec(arr.rows * eta1, arr.cols * eta2, t, rng.randrange(99))
        jobs.append((arr, spec))
    for arr, spec in jobs:
        tr, rep = run_job(arr, spec)
        built = ShuffleTranscript(tuple(tr.messages))
        assert built.total_bits == tr.total_bits == sum(m.bits for m in tr.messages)
        got = _reduce(arr, spec, built)
        assert got == rep
        assert got.measured_load == rep.measured_load == load_from_array(arr)


def test_messages_are_built_on_demand(golden):
    arr = golden["gc_4_2_k23"]
    tr, _ = run_job(arr, JobSpec(arr.rows, arr.cols, choose_iv_bits(arr, 7), 2))
    # messages 0, 1 and -1 of this job as the integer executor sent them
    first = [Message(0, 0, 35, 0x77B4732C4), Message(0, 1, 35, 0x778FA5A9)]
    last = Message(25, 10, 14, 0x25AB)
    ms = tr.messages
    assert len(ms) == 42
    assert [ms[0], ms[1]] == first and ms[-1] == ms[41] == last
    assert ms[:2] == tuple(first) and ms[-1:] == (last,)
    assert ms[::-1][0] == last and ms[5:2] == ()
    listed = list(ms)
    assert listed[:2] == first and listed[-1] == last
    assert listed == [ms[i] for i in range(len(ms))]
    assert {m.bits for m in ms} == {14, 35}
    with pytest.raises(IndexError):
        ms[42]
    with pytest.raises(TypeError):
        ms[0] = last


def test_reducer_results_are_built_on_demand(golden):
    arr = golden["gc_4_2_k23"]
    spec = JobSpec(arr.rows, arr.cols, choose_iv_bits(arr, 7), 2)
    tr, rep = run_job(arr, spec)
    m = tr.messages[0]
    flipped = Message(m.sender, m.symbol, m.bits, m.payload ^ 1)
    bad = _reduce(arr, spec, ShuffleTranscript((flipped,) + tr.messages[1:]))
    assert rep.all_ok and not bad.all_ok
    for report in (rep, bad):
        rs = report.per_reducer
        assert len(rs) == arr.cols == 26
        listed = list(rs)
        assert [r.reducer for r in listed] == list(range(26))
        assert all(type(r.ok) is bool and type(r.recovered_ivs) is int for r in listed)
        assert rs[0] == listed[0] and rs[-1] == rs[25] == listed[-1]
        assert rs[1:3] == tuple(listed[1:3]) and rs[5:2] == ()
        with pytest.raises(IndexError):
            rs[26]
        with pytest.raises(TypeError):
            rs[0] = listed[1]
        # a report built from ReducerResult values equals the executor's
        built = DecodeReport(tuple(listed), report.total_bits, report.denominator)
        assert built == report and hash(built) == hash(report)
        assert built.all_ok == report.all_ok
        assert built.to_json_dict() == report.to_json_dict()
    assert rep != bad
    failed = [r.reducer for r in bad.per_reducer if not r.ok]
    assert failed and m.sender not in failed


# sha256 over every (eta1, eta2, seed, t_base) point below of the transcript
# dump followed by the sorted-key report JSON; any change to the IV streams,
# packet split, message payloads or decode verdicts moves these.
_PINNED_DIGESTS = {
    "ct_4_2_1": "ef2e8bf8b2692e2d87be1f53a311bf543e3b0cb22138244218f990d4622a746f",
    "ct_4_2_2": "7dc0ea70554cebc051a081dd9740a63b84369466b706807c0cc3aac12603df20",
    "cyclic_pda_12": "d718ae60d00e957cf6fcefdbc827de5f8652af60e744385864e4e8db3156e5ed",
    "cyclic_pda_4": "f50b699b78557f0be3cb942ec011f752332d5baf863d50ac56ca06254b2f7ca4",
    "gc_4_2_k03": "f35c273f63bcbc78625653fc5a305a05e983ed4d4c6c8ef6461bad8b16ac4cde",
    "gc_4_2_k20": "20446e6d8b973f601324a407b4a3bfe38d6750b8fe98de0d66ca0268d0c90b1e",
    "gc_4_2_k23": "3fdec3509eb72091a457e5975493e0985a39b62a4a93f34a890a49aab31d504c",
    "mra_2regular": "ec1200fc046b7a1e41c4f62f0683505ecd621fc4083ea88f1ad709ecfcfec19e",
    "mra_3col": "c921c76f17f5a6882e794b2483ab9f7697353e18e61ba2811e46167272dd48a1",
    "mra_irregular": "bfb51751b5efd73d9ea484e2a0d1146420b432db5b6501af25e4a9f7cf065a6e",
    "regular_pda_3": "eb87dc6da0fddda6bd94a11834c1c9a6e8f3e057ea11f6fbd414f9a97dd3cda6",
}


def test_transcript_digests_pinned():
    got = {}
    for name in fixture_names():
        arr = load_fixture(name)
        if not validate_mra(arr).ok:
            continue
        h = hashlib.sha256()
        for eta1, eta2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for seed in (0, 17):
                # t_base 97 makes IVs straddle the oracle's 512-bit blocks
                for t_base in (1, 97):
                    t = choose_iv_bits(arr, t_base, eta1, eta2)
                    spec = JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed)
                    tr, rep = run_job(arr, spec)
                    h.update(tr.dump().encode())
                    h.update(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
        got[name] = h.hexdigest()
    assert got == _PINNED_DIGESTS


@pytest.mark.parametrize(
    "name", ["mra_irregular", "ct_4_2_2", "gc_4_2_k23", "cyclic_pda_12"]
)
def test_corrupted_payload_fails_exactly_its_readers(golden, name):
    arr = golden[name]
    t = choose_iv_bits(arr, 3, 2, 1)
    spec = JobSpec(arr.rows * 2, arr.cols, t, 11)
    tr, rep = run_job(arr, spec)
    assert _reduce(arr, spec, tr) == rep
    cols_of = {}
    for f, k in np.argwhere(arr.grid != STAR).tolist():
        cols_of.setdefault(arr.entry(f, k), set()).add(k)
    n = len(tr.messages)
    # the first, middle and last messages and the first of every class
    first_of_class = {}
    for i, m in enumerate(tr.messages):
        first_of_class.setdefault(len(cols_of[m.symbol]), i)
    assert len(first_of_class) == len(arr.stats.histogram)
    pad_flips = 0
    for pick in sorted({0, n // 2, n - 1, *first_of_class.values()}):
        m = tr.messages[pick]
        # the payload's lowest and highest bits, and its lowest pad bit
        flips = {0, m.bits - 1} | ({m.bits} if m.bits % 8 else set())
        pad_flips += m.bits in flips
        for bit in sorted(flips):
            bad = Message(m.sender, m.symbol, m.bits, m.payload ^ (1 << bit))
            messages = tr.messages[:pick] + (bad,) + tr.messages[pick + 1 :]
            got = _reduce(arr, spec, ShuffleTranscript(messages))
            readers = cols_of[m.symbol] - {m.sender}
            assert readers
            assert [r.ok for r in got.per_reducer] == [
                k not in readers for k in range(arr.cols)
            ], (name, pick, bit)
    assert pad_flips


_MULTI_CLASS = {
    "mra_irregular": lambda: load_fixture("mra_irregular"),
    "gc_4_2_k23": lambda: load_fixture("gc_4_2_k23"),
    "gc_4_1_111": lambda: algorithm2(GcParameters(4, 1, (1, 1, 1))),
}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(_MULTI_CLASS)),
    st.sampled_from(_ETAS),
    st.sampled_from([1, 3, 97]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_corrupted_messages_fail_as_the_reference_decodes(name, eta, t_base, seed, data):
    # several messages corrupted at once, in every class, payload and pad bits
    # alike, and handed over in a shuffled order: each reducer's verdict is
    # the reference decoder's on the same messages
    arr = _MULTI_CLASS[name]()
    eta1, eta2 = eta
    t = choose_iv_bits(arr, t_base, eta1, eta2)
    spec = JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed)
    messages = list(run_job(arr, spec)[0].messages)
    by_bits = {}
    for i, m in enumerate(messages):
        by_bits.setdefault(m.bits, []).append(i)  # one width per class
    assert len(by_bits) > 1
    picks = set()
    for rows in by_bits.values():
        picks |= set(data.draw(st.lists(st.sampled_from(rows), max_size=3)))
    for i in sorted(picks):
        m = messages[i]
        # payload bits, then the pad bits above them in its first byte
        flip = data.draw(st.integers(0, (1 << m.bits) - 1))
        flip |= data.draw(st.integers(0, (1 << -m.bits % 8) - 1)) << m.bits
        messages[i] = Message(m.sender, m.symbol, m.bits, m.payload ^ flip)
    shuffled = data.draw(st.permutations(messages))
    got = _reduce(arr, spec, ShuffleTranscript(shuffled))
    _, want = bf_run_job(
        arr.grid.tolist(), IvOracle(seed, t), eta1, eta2,
        messages=[(m.sender, m.symbol, m.bits, m.payload) for m in shuffled],
    )
    assert [(r.ok, r.recovered_ivs) for r in got.per_reducer] == want


# --- the reference decoder ----------------------------------------------------------


def assert_matches_reference(arr, eta1, eta2, t, seed):
    spec = JobSpec(arr.rows * eta1, arr.cols * eta2, t, seed)
    tr, rep = run_job(arr, spec)
    grid = arr.grid.tolist()
    want, per_reducer = bf_run_job(grid, IvOracle(seed, t), eta1, eta2)
    got = [(m.sender, m.symbol, m.bits, m.payload) for m in tr.messages]
    assert got == want
    assert tr.total_bits == rep.total_bits == sum(m[2] for m in want)
    assert [(r.ok, r.recovered_ivs) for r in rep.per_reducer] == per_reducer
    assert all(ok for ok, _ in per_reducer)
    # the reducers of the reference read run_job's payloads just as well
    assert bf_run_job(grid, IvOracle(seed, t), eta1, eta2, got)[1] == per_reducer


@pytest.mark.parametrize("name", _VALID_FIXTURES)
def test_run_job_matches_reference_on_fixtures(name):
    arr = load_fixture(name)
    for eta1, eta2 in _ETAS:
        # t_base 97 makes IVs straddle the oracle's 512-bit blocks
        for t_base in (1, 97):
            assert_matches_reference(
                arr, eta1, eta2, choose_iv_bits(arr, t_base, eta1, eta2), 5
            )


@pytest.mark.parametrize(
    "name", [n for n in _VALID_FIXTURES if len(load_fixture(n).stats.histogram) > 1]
)
def test_run_job_matches_reference_one_symbol_per_chunk(monkeypatch, name):
    # a budget of one carrier bit closes a chunk after every symbol, so each
    # chunk gathers its own carriers and a class spans many chunks
    monkeypatch.setattr("codedshuffle.mapreduce._CHUNK_BITS", 1)
    gathers = []
    carriers = _IvTable.carriers

    def count(ivs, rows, cols):
        gathers.append(rows.shape[0])
        return carriers(ivs, rows, cols)

    monkeypatch.setattr(_IvTable, "carriers", count)
    arr = load_fixture(name)
    for eta1, eta2 in _ETAS:
        for t_base in (1, 97):
            gathers.clear()
            assert_matches_reference(
                arr, eta1, eta2, choose_iv_bits(arr, t_base, eta1, eta2), 5
            )
            assert sorted(gathers) == sorted(arr.stats.multiplicity.values())


def test_run_job_matches_reference_on_sweep_sample(constructor_sweep):
    arrays = [arr for *_, arr in constructor_sweep]
    rng = random.Random(2026)
    for eta1, eta2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for arr in rng.sample(arrays, 10):
            t = choose_iv_bits(arr, 1, eta1, eta2)
            assert_matches_reference(arr, eta1, eta2, t, 17)


@pytest.mark.parametrize(
    "grid",
    [
        # C2-2: symbol 0 at (0,0) and (1,1) lacks the crossing star at (0,1)
        [[0, 1], [1, 0]],
        # C2-1: symbol 0 twice in row 0
        [[0, 0, STAR], [STAR, STAR, 0]],
    ],
)
def test_reference_fails_without_crossing_stars(monkeypatch, grid):
    arr = CodedArray(np.array(grid))
    assert not validate_mra(arr).ok
    ok = validate_mra(load_fixture("mra_irregular"))
    monkeypatch.setattr("codedshuffle.mapreduce.validate_mra", lambda a: ok)
    t = choose_iv_bits(arr, 4)
    tr, _ = run_job(arr, JobSpec(arr.rows, arr.cols, t, 1))
    got = [(m.sender, m.symbol, m.bits, m.payload) for m in tr.messages]
    want, per_reducer = bf_run_job(grid, IvOracle(1, t), 1, 1)
    assert got == want
    assert not all(ok for ok, _ in per_reducer)
