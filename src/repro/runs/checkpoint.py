"""Block-aligned checkpoint store: atomic, content-hashed, self-healing.

One checkpoint is two files in the store directory:

``ckpt-<round>.pkl``
    The pickled payload -- the complete resume state of a simulation at
    a 256-round block boundary (the whole engine object plus the round
    kernel's exported state, pickled *together* so every internal alias,
    most importantly the policy's RNG stream, survives the round trip).
``ckpt-<round>.json``
    The manifest: round index, payload filename, its SHA-256 and size,
    plus run metadata.  The manifest is written *after* the payload and
    is the commit point -- a payload without a manifest is an aborted
    write and is ignored.

Both files are written via write-to-temp + ``fsync`` + atomic rename,
so a crash (or SIGKILL) at any instant leaves either the previous
checkpoint set or a complete new one, never a torn file under a final
name.  :meth:`CheckpointStore.load_latest` walks manifests newest
first, verifies the content hash, and falls back to the previous
snapshot on any corruption (with a warning); only when *every*
checkpoint is damaged does it raise :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "payload_rejection",
    "retained_rounds",
]

#: Version of the pickled payload layout.  Bumped whenever the classes a
#: payload pickles change shape, so older snapshots are refused by
#: :meth:`CheckpointStore.load_latest` (and never unpickled) instead of
#: restoring into code that no longer matches them.  Version 2: unit and
#: sized jobs share one engine, one kernel state layout and four RNG
#: streams.  Version 3: unit and sized jobs share one batch store of
#: ``(round, size, count)`` runs.  Version 4: bursty arrivals are a
#: ``regime`` rate curve; the two-state modulated arrival class and the
#: workload-factory classes are gone.  Version 5: JSQ and SED keep their
#: rank rates and a round snapshot instead of the raw queue view.
#: Version 6: the SCD-family policies and the scenario classes moved to
#: ``repro.policies`` and ``repro.sim.scenarios``.
_FORMAT_VERSION = 6


def retained_rounds(
    rounds, keep_last: int, stride: int | None = None
) -> list[int]:
    """Which checkpoint rounds a retention policy preserves, ascending.

    The policy keeps the newest ``keep_last`` checkpoints plus every
    power-of-two checkpoint ordinal (rounds ``stride``, ``2*stride``,
    ``4*stride``, ...), so a long run retains a dense recent window for
    cheap resume and exponentially thinning anchors back to the start
    for deep-history adoption, at O(keep_last + log(run length)) stored
    snapshots.  ``stride`` is the round distance between consecutive
    checkpoints; when omitted it is inferred from the smallest round
    present (the ordinal-1 checkpoint is itself always retained, so the
    inference is stable across repeated prunes).  Rounds that are not a
    multiple of the stride are defensively kept.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    rounds = sorted(int(r) for r in rounds)
    if not rounds:
        return []
    if stride is None:
        stride = rounds[0]
    stride = int(stride)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    keep = set(rounds[-keep_last:])
    for r in rounds:
        if r % stride:
            keep.add(r)  # off-grid snapshot: not ours to judge, keep it
            continue
        ordinal = r // stride
        if ordinal > 0 and ordinal & (ordinal - 1) == 0:
            keep.add(r)  # power-of-two anchor
    return sorted(keep)


class CheckpointError(RuntimeError):
    """No usable checkpoint: every manifest present failed validation."""


def payload_rejection(manifest: dict, blob: bytes) -> str | None:
    """Why ``blob`` must not be unpickled under ``manifest``, or ``None``.

    The trust check every checkpoint passes before it is unpickled,
    whether it was read from a store or received over the wire: the
    manifest must carry this code's payload format version and the
    SHA-256 of exactly these bytes.
    """
    if manifest.get("format_version") != _FORMAT_VERSION:
        return f"unsupported format version {manifest.get('format_version')!r}"
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        return "payload hash mismatch (truncated or corrupted)"
    return None


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + rename."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class CheckpointStore:
    """The checkpoints of one run, newest-first addressable."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _payload_name(self, round_index: int) -> str:
        return f"ckpt-{round_index:010d}.pkl"

    def _manifest_name(self, round_index: int) -> str:
        return f"ckpt-{round_index:010d}.json"

    def write(self, round_index: int, blob: bytes, meta: dict | None = None) -> dict:
        """Commit one checkpoint; returns its manifest.

        ``blob`` is the already-pickled payload.  The payload lands
        first, the manifest second (the commit point), both atomically.
        """
        round_index = int(round_index)
        payload_name = self._payload_name(round_index)
        _atomic_write_bytes(self.directory / payload_name, blob)
        manifest = {
            "format_version": _FORMAT_VERSION,
            "round": round_index,
            "payload": payload_name,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
            **(meta or {}),
        }
        _atomic_write_bytes(
            self.directory / self._manifest_name(round_index),
            json.dumps(manifest).encode("utf-8"),
        )
        return manifest

    def manifest_paths(self) -> list[Path]:
        """Manifest files, newest (highest round) first.

        Zero-padded round numbers in the filenames make the name sort
        the round sort.
        """
        return sorted(self.directory.glob("ckpt-*.json"), reverse=True)

    def rounds(self) -> list[int]:
        """Rounds with a committed (manifested) checkpoint, ascending."""
        rounds = []
        for path in self.manifest_paths():
            try:
                rounds.append(int(json.loads(path.read_text())["round"]))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return sorted(rounds)

    def _newest_valid(
        self, failures: list[str], skip: frozenset[str] = frozenset()
    ) -> tuple[dict, bytes] | None:
        """``(manifest, raw_blob)`` of the newest hash-valid checkpoint.

        Walks manifests newest first, ignoring names in ``skip``; every
        rejected snapshot appends to ``failures`` and warns.  Returns
        ``None`` when no manifest survives (callers decide whether that
        is a fresh store or an error, via ``failures``).
        """

        def reject(path: Path, reason: str) -> None:
            failures.append(f"{path.name}: {reason}")
            warnings.warn(
                f"checkpoint {path.name} rejected ({reason}); "
                f"falling back to the previous snapshot",
                RuntimeWarning,
                stacklevel=4,
            )

        for path in self.manifest_paths():
            if path.name in skip:
                continue
            try:
                manifest = json.loads(path.read_text())
            except (OSError, ValueError) as error:
                reject(path, f"unreadable manifest: {error}")
                continue
            if not isinstance(manifest, dict) or "payload" not in manifest:
                reject(path, "malformed manifest")
                continue
            payload_path = self.directory / str(manifest["payload"])
            try:
                blob = payload_path.read_bytes()
            except OSError as error:
                reject(path, f"missing payload: {error}")
                continue
            reason = payload_rejection(manifest, blob)
            if reason is not None:
                reject(path, reason)
                continue
            return manifest, blob
        return None

    def latest_blob(self) -> tuple[dict, bytes] | None:
        """``(manifest, raw_payload_bytes)`` of the newest valid checkpoint.

        The transport-facing twin of :meth:`load_latest`: the blob is
        hash-verified but **not** unpickled, so a coordinator can adopt
        and re-ship a snapshot without trusting or paying for its
        contents.  Returns ``None`` when nothing valid is stored (a
        fresh directory, or every snapshot damaged -- shipping callers
        treat both as "start from round 0").
        """
        failures: list[str] = []
        return self._newest_valid(failures)

    def load_latest(self) -> tuple[dict, object] | None:
        """``(manifest, payload_object)`` of the newest valid checkpoint.

        Returns ``None`` when the store holds no committed checkpoint
        (fresh run).  Corrupted or truncated checkpoints -- unreadable
        manifest, missing payload, hash mismatch, unpicklable blob --
        are rejected with a warning and the walk falls back to the
        previous snapshot; if manifests exist but none validates,
        raises :class:`CheckpointError` naming every failure.
        """
        if not self.manifest_paths():
            return None
        failures: list[str] = []
        skip: set[str] = set()
        while True:
            found = self._newest_valid(failures, skip=frozenset(skip))
            if found is None:
                raise CheckpointError(
                    "no usable checkpoint: every snapshot failed validation -- "
                    + "; ".join(failures)
                )
            manifest, blob = found
            try:
                return manifest, pickle.loads(blob)
            except Exception as error:  # torn pickle despite matching hash
                name = self._manifest_name(int(manifest["round"]))
                failures.append(f"{name}: unpicklable payload: {error}")
                warnings.warn(
                    f"checkpoint {name} rejected (unpicklable payload: "
                    f"{error}); falling back to the previous snapshot",
                    RuntimeWarning,
                    stacklevel=2,
                )
                skip.add(name)

    def _discard(self, round_index: int) -> None:
        """Remove one checkpoint, manifest (the commit point) first."""
        for path in (
            self.directory / self._manifest_name(round_index),
            self.directory / self._payload_name(round_index),
        ):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def prune(self, keep_last: int, stride: int | None = None) -> list[int]:
        """Apply the retention policy; returns the rounds removed.

        Keeps the newest ``keep_last`` checkpoints plus the power-of-two
        ordinal anchors (see :func:`retained_rounds`).  Each removal
        deletes the manifest before the payload, so a crash mid-prune
        leaves at worst an orphaned payload that loaders already ignore.
        """
        rounds = self.rounds()
        keep = set(retained_rounds(rounds, keep_last, stride))
        removed = [r for r in rounds if r not in keep]
        for round_index in removed:
            self._discard(round_index)
        return removed
