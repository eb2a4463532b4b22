"""Content-addressed on-disk store of fault-class results.

A class's detection record is a pure function of (fault-class model,
engine spec, simulation code).  The store keys each record by a SHA-256
digest over a canonical JSON encoding of exactly those three things —
the representative fault, the :class:`~repro.campaign.tasks.EngineSpec`
and :data:`STORE_VERSION` — so re-running an identical campaign is all
cache hits, while changing the engine configuration, the fault model
*or* the simulation code (bump the version tag) misses cleanly.

The class magnitude (``count``) is deliberately *not* part of the key:
a magnitude recount re-weights classes without changing their physics,
and the stored signature is re-hydrated with the caller's count on
load.  Writes are atomic (temp file + ``os.replace``), so a campaign
killed mid-write never leaves a torn object behind.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from ..core.serialize import (SerializeError, record_from_dict,
                              record_to_dict)
from ..defects.collapse import FaultClass
from ..macrotest.coverage import DetectionRecord
from .tasks import EngineSpec

#: bump when a change to the simulation code invalidates old results
#: ("2": batched transient kernel + EngineSpec dt/probe/corner knobs;
#: "3": incremental engine — baselines, detected_by on records;
#: "4": solver-backend knob on EngineSpec)
STORE_VERSION = "4"


def canonical(obj) -> object:
    """JSON-able canonical form with deterministic ordering.

    ``repr`` of a frozenset depends on hash order (randomised per
    process for strings), so anything set-like is sorted by its own
    canonical JSON encoding; dataclasses become ``(type, fields)``
    pairs, floats go through ``repr`` to survive JSON round-trips
    bit-exactly.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__type__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if isinstance(obj, (frozenset, set)):
        items = [canonical(x) for x in obj]
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def _normalized_spec(spec: EngineSpec) -> EngineSpec:
    """Spec with the result-invariant performance knobs stripped.

    ``warm_start`` and ``drop`` change how fast a record is computed,
    never what it says, so campaigns run with different settings share
    cache entries (and an incremental run can adopt an exhaustive
    run's results verbatim).  ``auto`` and ``dense`` name the same
    dense kernel and collapse to one key; ``sparse`` factorises
    through different arithmetic (agreeing only within Newton
    tolerance), so it keys separately.
    """
    solver = spec.solver if spec.solver == "sparse" else "dense"
    return dataclasses.replace(spec, warm_start=True, drop=True,
                               solver=solver)


def content_key(fault_class: FaultClass, spec: EngineSpec,
                version: str = STORE_VERSION) -> str:
    """SHA-256 digest identifying one class simulation's inputs."""
    payload = {
        "store_version": version,
        "spec": canonical(_normalized_spec(spec)),
        "fault": canonical(fault_class.representative),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def baseline_key(spec: EngineSpec, version: str = STORE_VERSION) -> str:
    """SHA-256 digest identifying a macro's good-circuit baseline.

    Keyed by the normalised spec alone — every fault class of a macro
    shares one fault-free circuit — so ``--resume`` and repeat runs
    reuse the baseline exactly when they would reuse records.
    """
    payload = {
        "store_version": version,
        "kind": "baseline",
        "spec": canonical(_normalized_spec(spec)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def dictionary_key(fingerprint: str, dictionary_version: int,
                   version: str = STORE_VERSION) -> str:
    """SHA-256 digest identifying a compiled fault dictionary.

    Keyed by the campaign fingerprint — the digest over every task's
    content key — so a dictionary is reused exactly when every record
    it was compiled from would be reused, and any spec / fault-model /
    code-version change misses cleanly.  The dictionary format version
    is part of the key so a format bump recompiles without clobbering
    old blobs.
    """
    payload = {
        "store_version": version,
        "kind": "dictionary",
        "dictionary_version": int(dictionary_version),
        "campaign": fingerprint,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class StoredRecord:
    """One object streamed out of the store by :meth:`iter_records`.

    Attributes:
        key: the object's content key.
        record: the detection record.
        meta: the free-form metadata stored with it (the campaign
            runner records ``task_id`` and ``macro`` here).
    """

    key: str
    record: DetectionRecord
    meta: Dict


def _atomic_write_text(path: Path, text: str) -> None:
    """Atomically publish ``text`` at ``path``, multi-writer safe.

    Each writer stages into its own ``mkstemp`` file (unique per
    writer, so simultaneous writers never collide on the staging
    name) and publishes with ``os.replace`` — last writer wins whole,
    readers never observe a torn object.  The temp file is removed on
    any failure, including the replace itself; only a writer killed
    between ``mkstemp`` and cleanup can leave one behind, which
    :func:`sweep_stale_tmp` reaps by age.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: a staging file older than this is presumed orphaned by a killed
#: writer (no write legitimately stays in flight for ten minutes)
STALE_TMP_AGE = 600.0

#: an mtime further in the future than this is clock skew (an NFS
#: server's clock, a stepped local clock), not a writer from the
#: future; such files are never reaped
FUTURE_MTIME_TOLERANCE = 30.0


def sweep_stale_tmp(root: Union[str, Path],
                    max_age: float = STALE_TMP_AGE) -> int:
    """Reap ``*.tmp`` staging files orphaned by killed writers.

    Only files older than ``max_age`` seconds are removed, so a sweep
    can never race an in-flight writer (whose staging file is seconds
    old at most).  Age is computed defensively against clock trouble:
    a backwards wall-clock step (or NFS mtime skew across hosts
    sharing the store) must never make a seconds-old staging file
    look ancient, so negative ages clamp to zero and a file whose
    mtime sits beyond :data:`FUTURE_MTIME_TOLERANCE` in the future is
    skipped outright — it survives until the clocks agree it is
    genuinely old.  Returns the number of files removed.  Safe to
    call concurrently — a file already reaped by another sweeper is
    simply skipped.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    now = time.time()
    removed = 0
    for tmp in root.rglob("*.tmp"):
        try:
            mtime = tmp.stat().st_mtime
            if mtime > now + FUTURE_MTIME_TOLERANCE:
                continue
            age = max(0.0, now - mtime)
            if age < max_age:
                continue
            tmp.unlink()
            removed += 1
        except OSError:
            continue
    return removed


class ResultsStore:
    """Content-addressed store of detection records under one root.

    Layout: ``<root>/objects/<k[:2]>/<k>.json`` — two-level fan-out so
    paper-scale campaigns (thousands of classes x configs) don't pile
    every object into one directory.
    """

    def __init__(self, root: Union[str, Path],
                 version: str = STORE_VERSION) -> None:
        self.root = Path(root)
        self.version = version
        self.hits = 0
        self.misses = 0
        self.baseline_hits = 0
        self.baseline_misses = 0
        self.dictionary_hits = 0
        self.dictionary_misses = 0

    def key(self, fault_class: FaultClass, spec: EngineSpec) -> str:
        return content_key(fault_class, spec, version=self.version)

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str, count: Optional[int] = None
            ) -> Optional[DetectionRecord]:
        """Load a record; ``count`` re-hydrates the class magnitude.

        Returns None (a miss) for absent, torn or incompatible
        objects — a corrupt cache entry costs a re-simulation, never
        a crash.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            record = record_from_dict(payload["record"])
        except (OSError, json.JSONDecodeError, KeyError,
                SerializeError):
            self.misses += 1
            return None
        self.hits += 1
        if count is not None and count != record.count:
            record = dataclasses.replace(record, count=count)
        return record

    def put(self, key: str, record: DetectionRecord,
            meta: Optional[Dict] = None) -> None:
        payload = {
            "store_version": self.version,
            "key": key,
            "record": record_to_dict(record),
            "meta": meta or {},
        }
        _atomic_write_text(self._path(key),
                           json.dumps(payload, sort_keys=True))

    def iter_records(self) -> Iterator[StoredRecord]:
        """Stream every stored record without re-keying or re-parsing
        per class.

        The dictionary build's bulk-read path: one filesystem walk in
        key order (deterministic across runs), one JSON parse per
        object.  Torn, corrupt or version-mismatched objects are
        skipped with a warning — a damaged cache entry costs dictionary
        coverage, never a crash — and do not touch the hit/miss
        counters (this is a scan, not a lookup).
        """
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            try:
                payload = json.loads(path.read_text())
                if payload.get("store_version") != self.version:
                    warnings.warn(
                        f"skipping {path.name}: store version "
                        f"{payload.get('store_version')!r} != "
                        f"{self.version!r}", stacklevel=2)
                    continue
                record = record_from_dict(payload["record"])
                key = payload.get("key") or path.stem
                meta = payload.get("meta") or {}
                if not isinstance(meta, dict):
                    raise SerializeError("meta is not a mapping")
            except (OSError, json.JSONDecodeError, KeyError,
                    AttributeError, SerializeError) as exc:
                warnings.warn(f"skipping corrupt store object "
                              f"{path.name}: {exc}", stacklevel=2)
                continue
            yield StoredRecord(key=key, record=record, meta=meta)

    # -- baseline blobs -----------------------------------------------------

    def _blob_path(self, key: str) -> Path:
        return self.root / "baselines" / f"{key}.json"

    def get_blob(self, key: str) -> Optional[Dict]:
        """Load an opaque JSON blob (a macro baseline) by key.

        Returns None (a miss) for absent, torn or non-dict objects —
        a corrupt baseline costs a recompute, never a crash.
        """
        try:
            payload = json.loads(self._blob_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            self.baseline_misses += 1
            return None
        if not isinstance(payload, dict):
            self.baseline_misses += 1
            return None
        self.baseline_hits += 1
        return payload

    def put_blob(self, key: str, payload: Dict) -> None:
        """Atomically persist an opaque JSON blob under a key."""
        _atomic_write_text(self._blob_path(key),
                           json.dumps(payload, sort_keys=True))

    # -- dictionary blobs ---------------------------------------------------

    def _dictionary_path(self, key: str) -> Path:
        return self.root / "dictionaries" / f"{key}.json"

    def get_dictionary(self, key: str) -> Optional[Dict]:
        """Load a compiled fault-dictionary payload by key.

        Same contract as baselines: absent, torn or non-dict objects
        are a miss (cost: a rebuild), never a crash.
        """
        try:
            payload = json.loads(self._dictionary_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            self.dictionary_misses += 1
            return None
        if not isinstance(payload, dict):
            self.dictionary_misses += 1
            return None
        self.dictionary_hits += 1
        return payload

    def put_dictionary(self, key: str, payload: Dict) -> None:
        """Atomically persist a fault-dictionary payload under
        ``dictionaries/<key>.json``."""
        _atomic_write_text(self._dictionary_path(key),
                           json.dumps(payload, sort_keys=True))

    def iter_dictionaries(self) -> Iterator[Tuple[str, Dict]]:
        """Stream ``(key, payload)`` for every compiled dictionary
        blob, newest first (by mtime; name-ordered within a tie).

        The serving-side read path: a diagnosis registry pointed at a
        store root picks the dictionary the campaign compiled most
        recently.  Torn or non-dict blobs are skipped with a warning —
        a damaged blob costs serving freshness, never a crash.
        """
        root = self.root / "dictionaries"
        if not root.is_dir():
            return
        paths = []
        for path in root.glob("*.json"):
            try:
                paths.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue
        for _, _, path in sorted(paths, reverse=True):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                warnings.warn(f"skipping corrupt dictionary blob "
                              f"{path.name}: {exc}", stacklevel=2)
                continue
            if not isinstance(payload, dict):
                warnings.warn(f"skipping non-dict dictionary blob "
                              f"{path.name}", stacklevel=2)
                continue
            yield path.stem, payload

    def latest_dictionary(self) -> Optional[Dict]:
        """The newest readable compiled-dictionary payload, or None
        when the store has none."""
        for _, payload in self.iter_dictionaries():
            return payload
        return None

    # -- generic JSON blobs (journals, optimizer state, ...) ---------------

    def _json_path(self, key: str) -> Path:
        parts = Path(key).parts
        if not parts or Path(key).is_absolute() or ".." in parts:
            raise ValueError(f"invalid store key {key!r}: must be a "
                             f"relative path without '..'")
        return self.root.joinpath(*parts[:-1], parts[-1] + ".json")

    def get_json(self, key: str) -> Optional[Dict]:
        """Load a free-form JSON blob by relative key.

        Keys are relative paths (``optimize/<run>/gen-00001``); the
        blob lives at ``<root>/<key>.json``.  Absent, torn or non-dict
        blobs are a miss (None), never a crash — the contract shared
        with baselines and dictionaries.
        """
        try:
            payload = json.loads(self._json_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def put_json(self, key: str, payload: Dict) -> None:
        """Atomically persist a free-form JSON blob under
        ``<root>/<key>.json``."""
        _atomic_write_text(self._json_path(key),
                           json.dumps(payload, sort_keys=True))

    def iter_keys(self, prefix: str = "") -> Iterator[str]:
        """Enumerate stored object keys without loading payloads.

        Yields every ``*.json`` object under the root as a
        ``/``-separated relative key (suffix stripped), sorted, so
        callers — the optimizer's generation journal enumerating its
        cached candidate evaluations — see a deterministic order.
        ``prefix`` restricts the walk: ``iter_keys("optimize/abc/")``
        lists one run's blobs, ``iter_keys("objects/")`` the detection
        records.  Nothing is parsed, so a torn blob still lists (it
        reads as a miss on ``get_json``).
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*.json")):
            key = path.relative_to(self.root).with_suffix("").as_posix()
            if key.startswith(prefix):
                yield key

    def sweep_tmp(self, max_age: float = STALE_TMP_AGE) -> int:
        """Reap staging files orphaned under this store's root.

        Long-lived multi-writer deployments (several campaign workers
        sharing one store) call this at startup; see
        :func:`sweep_stale_tmp`.
        """
        return sweep_stale_tmp(self.root, max_age=max_age)

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))
