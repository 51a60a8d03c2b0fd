"""Persistent, content-addressed design cache.

Every evaluated sweep point is stored as one JSON file under the cache
directory, keyed by a SHA-256 over the network fingerprint
(:meth:`~repro.frontend.graph.NetworkGraph.fingerprint`), the layers'
declaration order, the point parameters and the evaluation mode.
Repeated sweeps — and overlapping points across different sweeps of
the same network — skip the whole generate→compile→simulate pipeline.
Corrupt or stale-schema entries are treated as misses, never as
errors.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass

from repro.dse.result import RESULT_SCHEMA, PointResult
from repro.dse.spec import SweepPoint

#: Default cache location; override with $REPRO_CACHE_DIR or --cache-dir.
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro", "dse")


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") \
        or os.path.expanduser(DEFAULT_CACHE_DIR)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses


class DesignCache:
    """One directory of cached point evaluations."""

    def __init__(self, root: str) -> None:
        self.root = os.path.expanduser(root)
        self.stats = CacheStats()

    # --- keys ----------------------------------------------------------

    @staticmethod
    def key(fingerprint: str, point: SweepPoint,
            functional: bool = False, seed: int = 0,
            static_filter: bool = False, estimator: str = "exact",
            order: Sequence[str] = ()) -> str:
        """Content address of one evaluation.

        ``order`` is the layers' declaration order: the fingerprint
        ignores it, but the fold schedule (and so the row) follows it.
        ``functional``/``seed`` are part of the key because a functional
        run carries a fidelity figure a timing-only run lacks.
        ``static_filter`` and a non-exact ``estimator`` join the record
        only when set, so caches written before those modes existed
        stay valid for plain exact sweeps.
        """
        record = {
            "schema": RESULT_SCHEMA,
            "fingerprint": fingerprint,
            "point": point.params(),
            "functional": functional,
            "seed": seed if functional else 0,
            "order": list(order),
        }
        if static_filter:
            record["static_filter"] = True
        if estimator != "exact":
            record["estimator"] = estimator
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # --- operations ----------------------------------------------------

    def load(self, key: str) -> PointResult | None:
        """Return the cached result, counting a hit or a miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("schema") != RESULT_SCHEMA:
                raise ValueError("stale schema")
            result = PointResult.from_json(data, cached=True)
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, key: str, result: PointResult) -> str:
        """Atomically write one result; concurrent writers are safe."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(key)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(result.to_json(), handle, indent=1)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.root)
                       if name.endswith(".json"))
        except OSError:
            return 0
