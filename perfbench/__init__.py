"""The repo benchmark; see run.py and spec.json."""
