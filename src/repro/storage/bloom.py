"""Placeholder: SSTables answer reads from their exact (key, column) index.

This module holds no code.  It stays only because the benchmark's
module-to-layer map (``perfbench/layers.py``) lists
``repro.storage.bloom``, and its completeness check fails when a listed
module is missing.  Delete it together with that entry.
"""
