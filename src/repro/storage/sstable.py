"""Immutable sorted string tables.

An SSTable is a flushed memtable: (key, column) → cell entries in sorted
order with an exact (key, column) index.  Each table is tagged with
the **min and max LSN** of the writes it contains (§6.1): when a
follower's catch-up request can no longer be served from the leader's log
(rolled over), the leader locates SSTables by these tags and ships them
instead.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .lsn import LSN
from .memtable import Cell, Memtable

__all__ = ["SSTable"]

_table_ids = itertools.count(1)


class SSTable:
    """An immutable, sorted, indexed run of cells."""

    def __init__(self, entries: Iterable[Tuple[bytes, bytes, Cell]],
                 min_lsn: Optional[LSN] = None,
                 max_lsn: Optional[LSN] = None):
        self.table_id = next(_table_ids)
        self._entries: List[Tuple[bytes, bytes, Cell]] = list(entries)
        index: Dict[Tuple[bytes, bytes], Cell] = {}
        keys: List[bytes] = []
        size = 0
        last_key = None
        for key, col, cell in self._entries:
            index[(key, col)] = cell
            if key != last_key:
                keys.append(key)
                last_key = key
            size += len(key) + len(col) + 32 + (
                len(cell.value) if cell.value else 0)
        self._index = index
        self._keys = keys
        self.bytes_size = size
        if min_lsn is None or max_lsn is None:
            lsns = [cell.lsn for _, _, cell in self._entries] or [LSN.zero()]
            min_lsn = min(lsns) if min_lsn is None else min_lsn
            max_lsn = max(lsns) if max_lsn is None else max_lsn
        self.min_lsn = min_lsn
        self.max_lsn = max_lsn

    # -- construction ------------------------------------------------------
    @classmethod
    def from_memtable(cls, memtable: Memtable) -> "SSTable":
        return cls(memtable.sorted_items(),
                   min_lsn=memtable.min_lsn, max_lsn=memtable.max_lsn)

    # -- reads ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes, colname: bytes) -> Optional[Cell]:
        return self._index.get((key, colname))

    def row(self, key: bytes) -> Dict[bytes, Cell]:
        return {col: cell for (k, col), cell in self._index.items()
                if k == key}

    def entries(self) -> Iterator[Tuple[bytes, bytes, Cell]]:
        return iter(self._entries)

    def keys(self) -> List[bytes]:
        return list(self._keys)

    def overlaps_lsn_range(self, after: LSN) -> bool:
        """True if the table may contain writes with LSN > ``after``."""
        return self.max_lsn > after

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SSTable(id={self.table_id}, n={len(self._entries)}, "
                f"lsn=[{self.min_lsn}..{self.max_lsn}])")
