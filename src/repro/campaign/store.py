"""Content-addressed, crash-safe result store (the campaign database).

Each completed experiment persists as one JSON file —
``records/<hh>/<spec_hash>.json``, sharded by the first two hash characters
— wrapping a versioned :class:`~repro.experiment.session.RunRecord`:

.. code-block:: json

    {
      "store_version": 1,
      "cache_version": 6,
      "spec_hash": "3f2a...",
      "checksum": "sha256 of the canonical record JSON",
      "record": { "spec": {...}, "result": {...}, "provenance": {...} }
    }

Guarantees:

* **Atomic writes** — every file is published with write-to-temp +
  ``os.replace`` (:mod:`repro.core.fsutil`), so readers never see a torn
  record no matter when a writer is killed.
* **Integrity on read** — the payload checksum and the spec hash are
  verified against the record content; unparseable or tampered files are
  moved to ``quarantine/`` (never raised through to the caller) and the
  cell simply re-simulates.  :meth:`ResultStore.get_record` is the only
  verifier, and a store instance runs it once per distinct content of a
  file: it remembers the verdict under a 128-bit ``blake2b`` digest of the
  raw bytes it verified, so a grid query or a status count re-reads and
  re-digests each file but decodes only bytes it has not seen.
* **Incremental invalidation** — records carry the
  :data:`~repro.experiment.session.CACHE_VERSION` they were computed under; a
  version bump turns older records into misses *in place* (no flag day:
  re-running a campaign recomputes only missing/stale cells and overwrites
  as it goes).
* **Determinism** — record bytes are a pure function of the spec and the
  code version (sorted keys, no timestamps, no worker identity), so stores
  produced by 1 worker and 64 workers are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.fsutil import atomic_write_text
from repro.experiment.session import CACHE_VERSION, RunRecord
from repro.experiment.spec import ExperimentSpec
from repro.sim.system import SimulationResult

#: Bump when the store file layout changes incompatibly.
STORE_VERSION = 1

_STORE_DIR_ENV = "REPRO_CAMPAIGN_STORE"


def default_store_dir() -> Path:
    env = os.environ.get(_STORE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "campaigns"


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _checksum(record_dict: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(record_dict).encode("utf-8")).hexdigest()


def _digest(data: bytes) -> bytes:
    """The key of a verdict: 128 bits of ``blake2b`` over a file's bytes."""
    return hashlib.blake2b(data, digest_size=16).digest()


class ResultStore:
    """Versioned :class:`RunRecord` JSONs indexed by canonical spec hash.

    Each instance keeps an in-memory index from spec hash to the digest of
    the file bytes it last verified and the verdict those bytes earned: the
    record's :meth:`summarize` row when fresh, ``None`` when stale.
    :meth:`query` and :meth:`contains` read and digest a file and call
    :meth:`get_record` only when the bytes differ from the verified ones, so
    any change to a file (a rewrite of the same size and timestamps
    included) is verified before its verdict is used.  The index is not
    locked: ``repro serve`` answers on one thread, and a store shared
    between threads can at worst verify the same bytes twice.
    """

    def __init__(
        self,
        root: Union[str, Path],
        cache_version: int = CACHE_VERSION,
    ) -> None:
        self.root = Path(root)
        self.records_dir = self.root / "records"
        self.quarantine_dir = self.root / "quarantine"
        self.campaigns_dir = self.root / "campaigns"
        self.cache_version = cache_version
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        #: spec hash -> (digest of the verified bytes, row or ``None``).
        self._verdicts: Dict[str, Tuple[bytes, Optional[Dict[str, Any]]]] = {}

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def record_path(self, spec_hash: str) -> Path:
        return self.records_dir / spec_hash[:2] / f"{spec_hash}.json"

    @staticmethod
    def _hash_of(spec_or_hash: Union[str, ExperimentSpec]) -> str:
        if isinstance(spec_or_hash, ExperimentSpec):
            return spec_or_hash.content_hash()
        return spec_or_hash

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put_record(self, record: RunRecord) -> Path:
        """Persist one record under its spec's content hash (atomic)."""
        spec_hash = record.spec.content_hash()
        record_dict = record.to_dict()
        payload = {
            "store_version": STORE_VERSION,
            "cache_version": self.cache_version,
            "spec_hash": spec_hash,
            "checksum": _checksum(record_dict),
            "record": record_dict,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        path = atomic_write_text(self.record_path(spec_hash), text)
        self._verdicts[spec_hash] = (
            _digest(text.encode("utf-8")),
            self.summarize(record),
        )
        return path

    def put_result(
        self,
        spec: ExperimentSpec,
        result: SimulationResult,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Wrap a bare result into a :class:`RunRecord` and persist it.

        The default provenance is deterministic (version numbers and the
        spec hash only — no timestamps, hostnames or worker ids), which is
        what makes stores bit-identical across worker counts.
        """
        from repro import __version__

        base = {
            "repro_version": __version__,
            "cache_version": self.cache_version,
            "spec_hash": spec.content_hash(),
        }
        if provenance:
            base.update(provenance)
        return self.put_record(RunRecord(spec=spec, result=result, provenance=base))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get_record(
        self, spec_or_hash: Union[str, ExperimentSpec]
    ) -> Optional[RunRecord]:
        """The stored record for a spec (or hash), or ``None``.

        Misses: no file, or a stale ``cache_version`` (left in place — the
        recompute overwrites it).  Corrupt files (truncated JSON, checksum
        or spec-hash mismatch, undecodable record) are quarantined and
        reported as misses.  This is the store's only verifier; it records
        the verdict of the bytes it read in the instance's index.
        """
        spec_hash = self._hash_of(spec_or_hash)
        path = self.record_path(spec_hash)
        # Every exit below leaves either no verdict or the verdict that the
        # bytes read here earned.
        verdicts = self._verdicts
        verdicts.pop(spec_hash, None)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("record payload is not an object")
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        if payload.get("cache_version") != self.cache_version:
            # Stale, not corrupt: superseded by a CACHE_VERSION bump
            # (or written by a newer build).  Recomputing overwrites it.
            verdicts[spec_hash] = (_digest(data), None)
            self.misses += 1
            return None
        record_dict = payload.get("record")
        if (
            not isinstance(record_dict, dict)
            or payload.get("spec_hash") != spec_hash
            or payload.get("checksum") != _checksum(record_dict)
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            record = RunRecord.from_dict(record_dict)
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        if record.spec.content_hash() != spec_hash:
            self._quarantine(path)
            self.misses += 1
            return None
        verdicts[spec_hash] = (_digest(data), self.summarize(record))
        self.hits += 1
        return record

    def get_result(self, spec: ExperimentSpec) -> Optional[SimulationResult]:
        """Result-only accessor (what :meth:`Session.run_many` caches through)."""
        record = self.get_record(spec)
        return record.result if record is not None else None

    def contains(self, spec_or_hash: Union[str, ExperimentSpec]) -> bool:
        """Whether a *fresh, intact* record exists (without hit/miss stats)."""
        hits, misses = self.hits, self.misses
        found = self._row(self._hash_of(spec_or_hash)) is not None
        self.hits, self.misses = hits, misses
        return found

    def _row(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The summary row of a fresh record, ``None`` for a miss.

        Counts a hit or a miss as :meth:`get_record` does.  The file is read
        and digested every time; only bytes that differ from the ones this
        instance verified last go through :meth:`get_record`.
        """
        # record_path's file, without building a Path (a third of a warm
        # lookup).
        path = os.path.join(self.records_dir, spec_hash[:2], f"{spec_hash}.json")
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._verdicts.pop(spec_hash, None)
            self.misses += 1
            return None
        verdict = self._verdicts.get(spec_hash)
        if verdict is None or verdict[0] != _digest(data):
            record = self.get_record(spec_hash)
            return None if record is None else self.summarize(record)
        row = verdict[1]
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable record aside (never raise on a bad file)."""
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing quarantiner/unlinker
            pass
        self.quarantined += 1

    # ------------------------------------------------------------------ #
    # Queries (the read-only serve/CLI layer)
    # ------------------------------------------------------------------ #
    def iter_spec_hashes(self) -> Iterator[str]:
        """The stem of every ``*.json`` entry of every shard directory, in
        sorted shard order and then sorted name order."""
        if not self.records_dir.is_dir():
            return
        with os.scandir(self.records_dir) as entries:
            shards = sorted(
                (entry.name, entry.path) for entry in entries if entry.is_dir()
            )
        for _, shard in shards:
            with os.scandir(shard) as entries:
                names = sorted(
                    entry.name for entry in entries if entry.name.endswith(".json")
                )
            for name in names:
                # ``Path.stem`` keeps a bare ``.json`` whole.
                yield name[:-5] if name != ".json" else name

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_spec_hashes())

    @staticmethod
    def summarize(record: RunRecord) -> Dict[str, Any]:
        """The flat row the query API answers grid queries with."""
        spec, result, provenance = record.spec, record.result, record.provenance
        return {
            "spec_hash": (
                provenance["spec_hash"]
                if "spec_hash" in provenance
                else spec.content_hash()
            ),
            "workload": spec.workload.name,
            "mitigation": spec.mitigation.name,
            "nrh": spec.mitigation.nrh,
            "channels": spec.platform.channel_count,
            "num_requests": spec.workload.num_requests,
            "fidelity": spec.fidelity,
            "ipc": result.ipc,
            "preventive_refreshes": result.preventive_refreshes,
            "secure": result.security_ok,
            "campaign": provenance.get("campaign"),
        }

    def query(
        self,
        workload: Optional[str] = None,
        mitigation: Optional[str] = None,
        nrh: Optional[int] = None,
        secure: Optional[bool] = None,
        campaign: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Grid query over record summaries, no simulation involved.

        Counts one hit per fresh record and one miss per stale or corrupt
        one it looks at, and returns copies of the rows it keeps.
        """
        rows = []
        for spec_hash in self.iter_spec_hashes():
            row = self._row(spec_hash)
            if row is None:
                continue
            if limit is not None and len(rows) >= limit:
                break
            if workload is not None and row["workload"] != workload:
                continue
            if mitigation is not None and row["mitigation"] != mitigation:
                continue
            if nrh is not None and row["nrh"] != nrh:
                continue
            if secure is not None and row["secure"] != secure:
                continue
            if campaign is not None and row["campaign"] != campaign:
                continue
            rows.append(dict(row))
        return rows

    # ------------------------------------------------------------------ #
    # Campaign checkpoints
    # ------------------------------------------------------------------ #
    def save_campaign(self, campaign_id: str, state: Dict[str, Any]) -> Path:
        """Checkpoint a campaign's declarative state (atomic, overwrites).

        A checkpoint that already holds the same bytes is left as it is, so
        a resume pass pays one read instead of a write, fsync and replace.
        """
        path = self.campaigns_dir / f"{campaign_id}.json"
        text = json.dumps(state, sort_keys=True, indent=2) + "\n"
        try:
            if path.read_text(encoding="utf-8") == text:
                return path
        except (OSError, ValueError):
            pass
        return atomic_write_text(path, text)

    def load_campaign(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        try:
            text = (self.campaigns_dir / f"{campaign_id}.json").read_text(
                encoding="utf-8"
            )
            state = json.loads(text)
        except (OSError, ValueError):
            return None
        return state if isinstance(state, dict) else None

    def list_campaigns(self) -> List[str]:
        if not self.campaigns_dir.is_dir():
            return []
        return sorted(path.stem for path in self.campaigns_dir.glob("*.json"))


__all__ = ["STORE_VERSION", "ResultStore", "default_store_dir"]
