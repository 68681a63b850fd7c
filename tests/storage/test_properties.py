"""Property-based tests (hypothesis) on storage invariants."""

from hypothesis import given, settings, strategies as st

from repro.storage.compaction import compact
from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN, SEQ_BITS
from repro.storage.memtable import Memtable
from repro.storage.records import (CommitMarker, WriteRecord, decode_record,
                                   encode_record)
from repro.storage.sstable import SSTable
from repro.storage.wal import SharedLog

# -- strategies -------------------------------------------------------------

lsns = st.builds(LSN,
                 epoch=st.integers(min_value=0, max_value=100),
                 seq=st.integers(min_value=0, max_value=(1 << 32)))

small_bytes = st.binary(min_size=0, max_size=32)
nonempty_bytes = st.binary(min_size=1, max_size=16)

write_records = st.builds(
    WriteRecord,
    lsn=lsns,
    cohort_id=st.integers(min_value=0, max_value=20),
    key=nonempty_bytes,
    colname=nonempty_bytes,
    value=st.one_of(st.none(), small_bytes),
    version=st.integers(min_value=0, max_value=1 << 30),
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    tombstone=st.booleans(),
)


# -- LSN --------------------------------------------------------------------

@given(lsns, lsns)
def test_lsn_int_packing_is_order_isomorphic(a, b):
    assert (a < b) == (a.to_int() < b.to_int())
    assert (a == b) == (a.to_int() == b.to_int())


@given(lsns)
def test_lsn_round_trip(lsn):
    assert LSN.from_int(lsn.to_int()) == lsn


@given(lsns)
def test_lsn_next_is_strictly_greater(lsn):
    assert lsn.next() > lsn
    assert lsn.next_epoch() > lsn or lsn.next_epoch().epoch > lsn.epoch


# -- record serialization ---------------------------------------------------

@given(write_records)
def test_write_record_serialization_round_trips(record):
    encoded = encode_record(record)
    assert decode_record(encoded) == record
    assert len(encoded) == record.encoded_size()


# -- memtable / engine -----------------------------------------------------

@given(st.lists(write_records.map(
    lambda r: WriteRecord(lsn=r.lsn, cohort_id=0, key=r.key,
                          colname=r.colname, value=r.value,
                          version=r.version, timestamp=r.timestamp,
                          tombstone=r.tombstone)),
    min_size=0, max_size=40))
def test_memtable_keeps_max_lsn_cell_per_column(records):
    mt = Memtable()
    for record in records:
        mt.apply(record)
    expected = {}
    for record in records:
        cur = expected.get((record.key, record.colname))
        if cur is None or (record.lsn, record.timestamp,
                           record.version) > (cur.lsn, cur.timestamp,
                                              cur.version):
            expected[(record.key, record.colname)] = record
    for (key, col), record in expected.items():
        cell = mt.get(key, col)
        assert cell is not None
        assert cell.lsn == record.lsn


@given(st.lists(write_records, min_size=0, max_size=40, unique_by=lambda
                r: r.lsn),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=40)
def test_engine_reads_unaffected_by_flush_boundaries(records, flush_every):
    """Reads must be identical no matter where flushes happened.

    LSNs are unique (as the cohort protocol guarantees) and records are
    rebased to one cohort.
    """
    records = [WriteRecord(lsn=r.lsn, cohort_id=0, key=r.key,
                           colname=r.colname, value=r.value,
                           version=r.version, timestamp=r.timestamp,
                           tombstone=r.tombstone) for r in records]
    plain = StorageEngine(0)
    flushy = StorageEngine(0)
    for i, record in enumerate(records):
        plain.apply(record)
        flushy.apply(record)
        if i % flush_every == flush_every - 1:
            flushy.flush()
    for record in records:
        a = plain.get(record.key, record.colname)
        b = flushy.get(record.key, record.colname)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.lsn == b.lsn
            assert a.value == b.value
            assert a.tombstone == b.tombstone


@given(st.lists(st.tuples(nonempty_bytes, small_bytes),
                min_size=1, max_size=30))
def test_compaction_preserves_latest_values(items):
    """Split writes across several tables; the merge keeps the newest."""
    mt_all = Memtable()
    tables = []
    mt = Memtable()
    for seq, (key, value) in enumerate(items, start=1):
        record = WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=key,
                             colname=b"c", value=value, version=seq)
        mt_all.apply(record)
        mt.apply(record)
        if seq % 7 == 0:
            tables.append(SSTable.from_memtable(mt))
            mt = Memtable()
    if len(mt._rows):
        tables.append(SSTable.from_memtable(mt))
    merged = compact(tables)
    reference = SSTable.from_memtable(mt_all)
    for key, _value in items:
        a = merged.get(key, b"c")
        b = reference.get(key, b"c")
        assert a is not None and b is not None
        assert a.lsn == b.lsn and a.value == b.value


# -- WAL -----------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                max_size=30, unique=True),
       st.sets(st.integers(min_value=1, max_value=60), max_size=10))
def test_wal_skipped_lsns_never_returned(seqs, skipped):
    log = SharedLog()
    for seq in sorted(seqs):
        log.append(WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=b"k",
                               colname=b"c", value=b"v", version=seq))
    log.add_skipped(0, [LSN(1, s) for s in skipped])
    visible = {r.lsn.seq for r in log.write_records(0)}
    assert visible == set(seqs) - skipped
    last = log.last_lsn(0)
    assert last.seq in (set(seqs) - skipped) or last == LSN.zero()


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=100),
                          st.booleans()),
                min_size=1, max_size=40))
def test_wal_range_queries_are_consistent(entries):
    """write_records(after, upto) == filter of write_records()."""
    log = SharedLog()
    seen = set()
    appended = []
    for seq, _flag in entries:
        if seq in seen:
            continue
        seen.add(seq)
        appended.append(seq)
    for seq in sorted(appended):
        log.append(WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=b"k",
                               colname=b"c", value=b"v", version=seq))
    everything = log.write_records(0)
    lo, hi = LSN(1, 20), LSN(1, 80)
    ranged = log.write_records(0, after=lo, upto=hi)
    assert ranged == [r for r in everything if lo < r.lsn <= hi]
