"""Content-addressed on-disk store for experiment results.

Layout (under the store root, ``.repro-store/`` by default)::

    index.log                   -- append-only manifest: one line per put/delete
    index.lock                  -- inter-process mutation lock (``flock``)
    tmp/                        -- staging area of writes in progress
    objects/<2-char shard>/<digest>/
        entry.json              -- spec key, result/value, integrity digest
                                   (one line of canonical JSON)
        trace.json.gz           -- optional gzipped full trace

Every entry is keyed by the SHA-256 digest of the canonical form of
the configuration that produced it (:mod:`repro.store.keys`), so a
re-run of the same :class:`~repro.harness.parallel.RunSpec` or sweep
cell resolves to the same object without executing anything.

Integrity
---------
``entry.json`` is the entry's canonical JSON and carries an
``integrity`` field: the SHA-256 of the canonical JSON of the parsed
entry *without* that field, so an entry an older build wrote indented
verifies the same.  Every read recomputes it -- plus, for runs, the
result digest (the PR 3
:func:`~repro.analysis.sanitizer.run_digest` over the parsed result)
and, for traces, the SHA-256 of the decompressed bytes -- and raises
:class:`StoreIntegrityError` on any mismatch.  A flipped bit on disk
is therefore *detected*, never silently served; callers that
recompute a miss (:class:`repro.service.JobService`, the serve workers,
``sweep(store=...)``) read through :meth:`ResultStore.lookup`, which
deletes the corrupt entry and reports a miss.

Index log
---------
``index.log`` lists the entries without opening them.  Its first line
is a header, ``{"schema": STORE_SCHEMA, "next_seq": N}``; every later
line is a JSON array, either a put ``[seq, digest, kind, has_trace,
balancer, seed, app]`` or a delete's tombstone ``[seq, digest]``,
whose ``seq`` is the newest one assigned when it was written.  The
next ``seq`` is one past the last line's (at least the header's
``next_seq``), so a put reads the header and the last line and appends
one line: its cost does not grow with the store.  Only ``gc`` rewrites
a log that replays, compacted to one line per live entry.

Concurrency
-----------
Every mutation holds ``index.lock`` through a blocking ``fcntl.flock``,
which the kernel releases when the holder dies, so a writer killed
mid-put never leaves the store locked.  Under the lock an entry is
staged under ``tmp/`` and renamed into place whole, then its line is
appended.  Readers replay the log without the lock.  They ignore a
torn last line (a write in progress, or a writer killed mid-line),
and the next writer cuts it off before it appends.  Any other damage,
or a missing log (as in a store an older build indexed in
``index.json``), reads as the objects tree rebuilt: the log is only an
accelerator.  The next writer rewrites a missing log, or one whose
header or last line is damaged, from that rebuild.  A writer reads no
further back, so damage deeper in the log stays, and every listing pays
the rebuild, until ``gc`` rewrites the log; ``verify`` reports that
case.

All directory walks are sorted -- the determinism linter's SIM006 rule
covers this package.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from repro.harness.parallel import RunSpec
from repro.metrics.export import (
    result_from_dict,
    result_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.metrics.results import AppRunResult, RepeatedResult
from repro.metrics.trace import TraceRecorder
from repro.store.keys import canonical_json, canonical_value, digest_of, spec_key

__all__ = [
    "STORE_SCHEMA",
    "DEFAULT_ROOT",
    "GcReport",
    "ResultStore",
    "StoreEntry",
    "StoreError",
    "StoreIntegrityError",
    "StoreStats",
]

STORE_SCHEMA = 1
DEFAULT_ROOT = ".repro-store"

#: the fields of a put line of ``index.log``, in order; a tombstone
#: has the first two
_ROW_FIELDS = ("seq", "digest", "kind", "has_trace", "balancer", "seed", "app")
#: first read size when looking for the log's header or last line
_BLOCK = 4096
#: gzip level of ``trace.json.gz``: on the figure-audit grid's traces
#: level 9 took about four times as long for no smaller archive
_TRACE_GZIP_LEVEL = 6

#: (next seq, log row by digest), rows in seq order
_Index = tuple[int, dict[str, list]]


class StoreError(Exception):
    """Base class for store failures."""


class StoreIntegrityError(StoreError):
    """A stored entry failed an integrity check; its bytes are not the
    bytes that were written.  Callers must treat the entry as absent
    (and may delete it), never use its contents."""


class _LogDamage(Exception):
    """``index.log`` is unreadable beyond a torn last line."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line(obj: Any) -> bytes:
    """One compact line of ``index.log``."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def _result_digest(result: Union[AppRunResult, RepeatedResult]) -> str:
    """Digest of a result, PR 3 dialect.

    Single runs use :func:`repro.analysis.sanitizer.run_digest` (the
    digest the differential determinism checker compares); repeat
    aggregates hash their runs' digests in order.
    """
    from repro.analysis.sanitizer import run_digest

    if isinstance(result, RepeatedResult):
        h = hashlib.sha256()
        for r in result.runs:
            h.update(run_digest(result=r).encode())
            h.update(b"\n")
        return "repeat:" + h.hexdigest()
    return run_digest(result=result)


@dataclass(frozen=True)
class StoreEntry:
    """One integrity-verified entry read back from the store."""

    digest: str
    kind: str  #: "run" | "value"
    spec: dict  #: the canonical key object that produced the entry
    seq: int
    result: Optional[Union[AppRunResult, RepeatedResult]] = None
    value: Any = None
    result_digest: Optional[str] = None
    has_trace: bool = False

    @property
    def payload(self) -> Any:
        """The stored outcome, whichever kind it is."""
        return self.result if self.kind == "run" else self.value


@dataclass(frozen=True)
class StoreStats:
    """Aggregate numbers behind ``repro store stats``."""

    root: str
    entries: int
    traced: int
    total_bytes: int
    next_seq: int


@dataclass
class GcReport:
    """What one ``gc`` pass did."""

    kept: int = 0
    removed_corrupt: int = 0
    removed_evicted: int = 0
    bytes_freed: int = 0
    adopted: int = 0  #: valid objects the index did not know about
    findings: list[str] = field(default_factory=list)


def _remove_dir(path: Path) -> None:
    """Remove a directory of plain files (an object or a staging copy)."""
    for p in sorted(path.iterdir()):
        p.unlink()
    path.rmdir()


class ResultStore:
    """Content-addressed store of experiment results (see module docs)."""

    def __init__(self, root: Union[str, Path] = DEFAULT_ROOT):
        self.root = Path(root)

    # -- paths ----------------------------------------------------------
    @property
    def _log_path(self) -> Path:
        return self.root / "index.log"

    @property
    def _lock_path(self) -> Path:
        return self.root / "index.lock"

    def _object_dir(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    # -- locking --------------------------------------------------------
    def _with_lock(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` holding the inter-process mutation lock.

        A blocking ``flock`` on ``index.lock``: a waiter proceeds as
        soon as the holder releases it or dies.  The unlock is explicit
        because a process forked meanwhile shares the descriptor.
        """
        import fcntl

        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                return fn()
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- index log: readers ---------------------------------------------
    def _read_index(self) -> _Index:
        """Replay ``index.log`` (no lock needed); a missing or damaged
        log reads as the objects tree rebuilt."""
        try:
            return self._replay(self._log_path.read_bytes())
        except (FileNotFoundError, _LogDamage):
            return self._rebuild_index_unlocked()

    def _replay(self, data: bytes) -> _Index:
        head_end = data.find(b"\n")
        if head_end < 0:
            raise _LogDamage
        next_seq = self._parse_header(data[:head_end])
        rows: dict[str, list] = {}
        end = data.rfind(b"\n")  # anything after it is a torn last line
        if end == head_end:
            return next_seq, rows
        try:
            lines = json.loads(
                b"[" + data[head_end + 1:end].replace(b"\n", b",") + b"]"
            )
            for line in lines:
                if (type(line) is not list or type(line[0]) is not int
                        or type(line[1]) is not str):
                    raise _LogDamage
                if len(line) == len(_ROW_FIELDS):
                    rows[line[1]] = line
                elif len(line) == 2:
                    rows.pop(line[1], None)
                else:
                    raise _LogDamage
            return max(next_seq, lines[-1][0] + 1), rows
        except (ValueError, TypeError, IndexError):
            raise _LogDamage from None

    def _parse_header(self, line: bytes) -> int:
        """``next_seq`` from the log's header line; a schema this build
        does not read is refused, not rebuilt over."""
        try:
            head = json.loads(line)
        except ValueError:
            raise _LogDamage from None
        if not isinstance(head, dict):
            raise _LogDamage
        if head.get("schema") != STORE_SCHEMA:
            raise StoreError(
                f"{self._log_path}: unsupported store schema "
                f"{head.get('schema')!r} (this build reads {STORE_SCHEMA})"
            )
        next_seq = head.get("next_seq")
        if type(next_seq) is not int:
            raise _LogDamage
        return next_seq

    def _walk_object_digests(self) -> Iterator[str]:
        """Every object digest on disk, in sorted (deterministic) order."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.is_dir():
                    yield entry.name

    def _rebuild_index_unlocked(self) -> _Index:
        """Reconstruct the manifest from the objects tree (skip corrupt)."""
        found = []
        for digest in self._walk_object_digests():
            try:
                found.append(self._index_row(digest, self._load_entry_doc(digest)))
            except StoreError:
                continue
        found.sort()
        return (found[-1][0] + 1 if found else 0), {r[1]: r for r in found}

    @staticmethod
    def _index_row(digest: str, doc: dict) -> list:
        """An entry's put line: :data:`_ROW_FIELDS`, positionally."""
        spec = doc["spec"]
        app = spec.get("app")
        return [
            doc["seq"],
            digest,
            doc["kind"],
            doc.get("trace_sha256") is not None,
            spec.get("balancer"),
            spec.get("seed"),
            app.get("fields", {}).get("bench") if isinstance(app, dict) else None,
        ]

    # -- index log: writers (under the lock) ----------------------------
    def _write_log(self, next_seq: int, rows: Iterable[list]) -> None:
        """Replace ``index.log`` whole: a header, then ``rows`` in seq
        order.  Only ``gc`` and a writer that finds the log missing, or
        its header or last line damaged, rewrite it."""
        tmp = self.root / "tmp" / f"index.log.{os.getpid()}"
        tmp.parent.mkdir(parents=True, exist_ok=True)
        header = {"schema": STORE_SCHEMA, "next_seq": next_seq}
        tmp.write_bytes(b"".join(map(_line, [header, *rows])))
        os.replace(tmp, self._log_path)
        # an older build's whole-file index is superseded by the log
        (self.root / "index.json").unlink(missing_ok=True)

    def _open_log(self) -> tuple[int, int]:
        """A descriptor appending to ``index.log``, and the next seq.

        A missing log, or one whose header or last line is damaged, is
        first rewritten from the objects tree.
        """
        try:
            fd = os.open(self._log_path, os.O_RDWR | os.O_APPEND)
        except FileNotFoundError:
            pass
        else:
            try:
                return fd, self._next_seq(fd)
            except _LogDamage:
                os.close(fd)
            except BaseException:
                os.close(fd)
                raise
        next_seq, rows = self._rebuild_index_unlocked()
        self._write_log(next_seq, rows.values())
        return os.open(self._log_path, os.O_RDWR | os.O_APPEND), next_seq

    def _next_seq(self, fd: int) -> int:
        """The next seq, as :meth:`_tail` reads it.  A torn last line is
        cut off so the coming append starts a line of its own."""
        next_seq, keep = self._tail(fd)
        if keep < os.fstat(fd).st_size:
            os.ftruncate(fd, keep)
        return next_seq

    def _tail(self, fd: int) -> tuple[int, int]:
        """The next seq from the header and the last complete line, read
        in bounded blocks from either end, and the offset where that
        line ends."""
        size = os.fstat(fd).st_size
        head = os.pread(fd, _BLOCK, 0)
        head_end = head.find(b"\n")
        if head_end < 0:
            raise _LogDamage
        next_seq = self._parse_header(head[:head_end])
        n = _BLOCK
        while True:
            start = max(0, size - n)
            block = os.pread(fd, size - start, start)
            end = block.rfind(b"\n")
            begin = block.rfind(b"\n", 0, max(end, 0)) + 1
            if end >= 0 and (begin > 0 or start == 0):
                break
            if start == 0:
                raise _LogDamage
            n *= 2
        keep = start + end + 1
        if start + begin == 0:  # the header is the last line
            return next_seq, keep
        try:
            seq = json.loads(block[begin:end])[0]
        except (ValueError, TypeError, IndexError, KeyError):
            raise _LogDamage from None
        if type(seq) is not int:
            raise _LogDamage
        return max(next_seq, seq + 1), keep

    # -- entry serialization -------------------------------------------
    @staticmethod
    def _integrity_of(doc: dict) -> str:
        body = {k: v for k, v in doc.items() if k != "integrity"}
        return _sha256(canonical_json(body).encode())

    def _load_entry_doc(self, digest: str) -> dict:
        """Read and integrity-check ``entry.json``; raise on any damage."""
        path = self._object_dir(digest) / "entry.json"
        try:
            raw = path.read_text()
        except FileNotFoundError:
            raise StoreError(f"no store entry {digest}") from None
        except UnicodeDecodeError as exc:
            raise StoreIntegrityError(
                f"{path}: entry is not valid UTF-8 ({exc}); the entry is "
                "corrupt and must be recomputed"
            ) from None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(
                f"{path}: entry is not parseable JSON ({exc}); the entry "
                "is corrupt and must be recomputed"
            ) from None
        if not isinstance(doc, dict) or "integrity" not in doc:
            raise StoreIntegrityError(f"{path}: entry has no integrity digest")
        want = doc["integrity"]
        got = self._integrity_of(doc)
        if got != want:
            raise StoreIntegrityError(
                f"{path}: integrity digest mismatch (stored {want[:12]}..., "
                f"recomputed {got[:12]}...); the entry bytes changed after "
                "they were written"
            )
        if doc.get("spec_digest") != digest:
            raise StoreIntegrityError(
                f"{path}: entry claims spec digest "
                f"{str(doc.get('spec_digest'))[:12]}... but is filed under "
                f"{digest[:12]}..."
            )
        return doc

    # -- write ----------------------------------------------------------
    def put(
        self,
        spec: Union[RunSpec, dict],
        outcome: Any,
        trace: Optional[TraceRecorder] = None,
    ) -> str:
        """File ``outcome`` (and optionally its trace) under the spec's
        content digest; returns the digest.

        ``spec`` is a :class:`RunSpec` or an already-canonical key
        object (e.g. :func:`~repro.store.keys.sweep_cell_key`).
        ``outcome`` is an :class:`AppRunResult` / :class:`RepeatedResult`
        (stored with its PR 3 result digest) or any canonicalizable
        plain value.  Writing the same digest twice is a no-op (the
        bytes are equivalent by construction).
        """
        key = spec_key(spec) if isinstance(spec, RunSpec) else canonical_value(spec)
        digest = digest_of(key)

        doc: dict[str, Any] = {
            "schema": STORE_SCHEMA,
            "spec": key,
            "spec_digest": digest,
        }
        if isinstance(outcome, (AppRunResult, RepeatedResult)):
            doc["kind"] = "run"
            doc["result"] = result_to_dict(outcome)
            doc["result_digest"] = _result_digest(outcome)
            doc["value"] = None
        else:
            doc["kind"] = "value"
            doc["result"] = None
            doc["result_digest"] = None
            doc["value"] = canonical_value(outcome)

        trace_blob: Optional[bytes] = None
        if trace is not None:
            raw = canonical_json(trace_to_dict(trace)).encode()
            doc["trace_sha256"] = _sha256(raw)
            trace_blob = gzip.compress(raw, compresslevel=_TRACE_GZIP_LEVEL, mtime=0)
        else:
            doc["trace_sha256"] = None

        def commit() -> str:
            final = self._object_dir(digest)
            if final.exists():
                return digest
            fd, seq = self._open_log()
            try:
                doc["seq"] = seq
                doc["integrity"] = self._integrity_of(doc)

                stage = self.root / "tmp" / f"{digest}.{os.getpid()}"
                stage.mkdir(parents=True, exist_ok=True)
                (stage / "entry.json").write_text(canonical_json(doc))
                if trace_blob is not None:
                    (stage / "trace.json.gz").write_bytes(trace_blob)

                final.parent.mkdir(parents=True, exist_ok=True)
                try:
                    os.rename(stage, final)
                except OSError:
                    # lost a race with a writer outside the lock; its
                    # bytes are equivalent (same digest, same canonical
                    # serialization)
                    _remove_dir(stage)
                    return digest
                os.write(fd, _line(self._index_row(digest, doc)))
            finally:
                os.close(fd)
            return digest

        return self._with_lock(commit)

    # -- read -----------------------------------------------------------
    def contains(self, digest_or_spec: Union[str, RunSpec]) -> bool:
        digest = self._resolve(digest_or_spec)
        return (self._object_dir(digest) / "entry.json").is_file()

    def _resolve(self, digest_or_spec: Union[str, RunSpec]) -> str:
        if isinstance(digest_or_spec, RunSpec):
            return digest_of(spec_key(digest_or_spec))
        return digest_or_spec

    def get(self, digest_or_spec: Union[str, RunSpec]) -> Optional[StoreEntry]:
        """Load and verify one entry; ``None`` when absent.

        Raises :class:`StoreIntegrityError` when the entry exists but
        its bytes fail verification -- corrupt data is never returned.
        """
        digest = self._resolve(digest_or_spec)
        if not (self._object_dir(digest) / "entry.json").is_file():
            return None
        return self._entry_of(digest, self._load_entry_doc(digest))

    def get_with_trace(
        self, digest_or_spec: Union[str, RunSpec]
    ) -> Optional[tuple[StoreEntry, Optional[TraceRecorder]]]:
        """:meth:`get` and :meth:`load_trace` from one read of the entry.

        ``None`` when the entry is absent; otherwise the entry and its
        trace (``None`` when it was stored without one).  Every check
        of the two calls applies: the entry's integrity digest and
        filing, the result-digest recompute and the trace digest.
        """
        digest = self._resolve(digest_or_spec)
        if not (self._object_dir(digest) / "entry.json").is_file():
            return None
        doc = self._load_entry_doc(digest)
        return self._entry_of(digest, doc), self._trace_of(digest, doc)

    @staticmethod
    def _entry_of(digest: str, doc: dict) -> StoreEntry:
        """The verified entry behind an integrity-checked ``doc``."""
        result: Optional[Union[AppRunResult, RepeatedResult]] = None
        if doc["kind"] == "run":
            result = result_from_dict(doc["result"])
            recomputed = _result_digest(result)
            if recomputed != doc["result_digest"]:
                raise StoreIntegrityError(
                    f"{digest[:12]}...: stored result digest "
                    f"{str(doc['result_digest'])[:12]}... does not match the "
                    f"parsed result ({recomputed[:12]}...)"
                )
        return StoreEntry(
            digest=digest,
            kind=doc["kind"],
            spec=doc["spec"],
            seq=doc["seq"],
            result=result,
            value=doc.get("value"),
            result_digest=doc.get("result_digest"),
            has_trace=doc.get("trace_sha256") is not None,
        )

    def lookup(self, digest_or_spec: Union[str, RunSpec]) -> Optional[StoreEntry]:
        """:meth:`get` for callers that recompute a miss: a corrupt entry
        reads as absent and is deleted, so the recompute files a clean
        one.  Any other read error propagates -- a valid entry is never
        deleted because it could not be read.
        """
        try:
            return self.get(digest_or_spec)
        except StoreIntegrityError:
            self.delete(digest_or_spec)
            return None

    def load_trace(
        self, digest_or_spec: Union[str, RunSpec]
    ) -> Optional[TraceRecorder]:
        """Load an entry's stored trace; ``None`` when it has none."""
        digest = self._resolve(digest_or_spec)
        return self._trace_of(digest, self._load_entry_doc(digest))

    def _trace_of(self, digest: str, doc: dict) -> Optional[TraceRecorder]:
        """The verified trace an integrity-checked ``doc`` records."""
        want = doc.get("trace_sha256")
        if want is None:
            return None
        path = self._object_dir(digest) / "trace.json.gz"
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise StoreIntegrityError(
                f"{digest[:12]}...: entry records a trace but "
                f"{path.name} is missing"
            ) from None
        try:
            raw = gzip.decompress(blob)
        except (OSError, EOFError) as exc:
            raise StoreIntegrityError(
                f"{digest[:12]}...: stored trace is not valid gzip ({exc})"
            ) from None
        if _sha256(raw) != want:
            raise StoreIntegrityError(
                f"{digest[:12]}...: stored trace bytes do not match the "
                "digest recorded at write time"
            )
        return trace_from_dict(json.loads(raw))

    def delete(self, digest_or_spec: Union[str, RunSpec]) -> bool:
        """Remove one entry (object + index row); True if it existed."""
        digest = self._resolve(digest_or_spec)

        def commit() -> bool:
            existed = self._remove_object(digest)
            if digest in self._read_index()[1]:
                fd, next_seq = self._open_log()
                try:
                    os.write(fd, _line([next_seq - 1, digest]))
                finally:
                    os.close(fd)
                existed = True
            return existed

        return self._with_lock(commit)

    def _remove_object(self, digest: str) -> bool:
        obj = self._object_dir(digest)
        if not obj.exists():
            return False
        _remove_dir(obj)
        try:
            obj.parent.rmdir()  # drop the shard dir when it empties
        except OSError:
            pass
        return True

    # -- listing --------------------------------------------------------
    def digests(self) -> list[str]:
        """All entry digests, oldest first (replayed from the index log)."""
        return [row[1] for row in sorted(self._read_index()[1].values())]

    def entries(self) -> list[dict]:
        """Index rows (digest + summary), oldest first."""
        return [
            dict(zip(_ROW_FIELDS, row))
            for row in sorted(self._read_index()[1].values())
        ]

    # -- maintenance ----------------------------------------------------
    def stats(self) -> StoreStats:
        next_seq, rows = self._read_index()
        total = 0
        objects = self.root / "objects"
        if objects.is_dir():
            for shard in sorted(objects.iterdir()):
                for obj in sorted(shard.iterdir()) if shard.is_dir() else []:
                    for f in sorted(obj.iterdir()) if obj.is_dir() else []:
                        total += f.stat().st_size
        return StoreStats(
            root=str(self.root),
            entries=len(rows),
            traced=sum(1 for row in rows.values() if row[3]),
            total_bytes=total,
            next_seq=next_seq,
        )

    def verify(self) -> list[str]:
        """Full integrity pass; returns human-readable findings.

        Checks every object's entry digest, result digest and trace
        bytes, the index log for damage no writer repairs, and index
        <-> objects consistency, without modifying anything.  An empty
        list means the store is clean.
        """
        findings: list[str] = []
        try:
            self._replay(self._log_path.read_bytes())
        except FileNotFoundError:
            pass
        except _LogDamage:
            # the next writer rewrites a log whose header or last line
            # is damaged; damage further back stays until gc
            fd = os.open(self._log_path, os.O_RDONLY)
            try:
                self._tail(fd)
                findings.append(
                    "index.log is damaged before its last line: every listing "
                    "rebuilds from the objects tree until `repro store gc` "
                    "rewrites it"
                )
            except _LogDamage:
                pass
            finally:
                os.close(fd)
        on_disk: set[str] = set()
        for digest in self._walk_object_digests():
            on_disk.add(digest)
            try:
                entry = self.get(digest)
                if entry is not None and entry.has_trace:
                    self.load_trace(digest)
            except StoreError as exc:
                findings.append(f"corrupt {digest[:12]}...: {exc}")
        indexed = set(self._read_index()[1])
        for digest in sorted(indexed - on_disk):
            findings.append(f"indexed but missing on disk: {digest[:12]}...")
        for digest in sorted(on_disk - indexed):
            findings.append(f"on disk but not indexed: {digest[:12]}...")
        return findings

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> GcReport:
        """Collect garbage: drop corrupt objects and staging leftovers,
        evict oldest-first down to the caps, then compact the index log
        to one line per live entry.

        Eviction order is insertion order (``seq``), which is
        deterministic and wall-clock free; see docs/store.md for the
        policy rationale.  Returns a :class:`GcReport`.
        """

        def commit() -> GcReport:
            report = GcReport()
            next_seq, known = self._read_index()
            rows: list[tuple[list, int]] = []  # (log row, bytes)
            for digest in list(self._walk_object_digests()):
                obj = self._object_dir(digest)
                size = sum(
                    f.stat().st_size for f in sorted(obj.iterdir())
                )
                try:
                    doc = self._load_entry_doc(digest)
                    if doc.get("trace_sha256") is not None:
                        # surfaces missing/corrupt trace files too
                        self.load_trace(digest)
                except StoreError as exc:
                    self._remove_object(digest)
                    report.removed_corrupt += 1
                    report.bytes_freed += size
                    report.findings.append(f"removed corrupt {digest[:12]}...: {exc}")
                    continue
                if digest not in known:
                    report.adopted += 1
                    report.findings.append(f"adopted unindexed {digest[:12]}...")
                rows.append((self._index_row(digest, doc), size))
            rows.sort()

            total = sum(size for _, size in rows)
            evict = 0
            if max_entries is not None:
                evict = max(evict, len(rows) - max_entries)
            if max_bytes is not None:
                over = total - max_bytes
                acc = 0
                n = 0
                for _, size in rows:
                    if acc >= over:
                        break
                    acc += size
                    n += 1
                evict = max(evict, n if over > 0 else 0)
            for row, size in rows[:evict]:
                self._remove_object(row[1])
                report.removed_evicted += 1
                report.bytes_freed += size
                report.findings.append(f"evicted seq={row[0]} {row[1][:12]}...")
            rows = rows[evict:]

            # staging happens under the lock: whatever is left in tmp/
            # belongs to a writer that died mid-put
            staging = self.root / "tmp"
            for leftover in sorted(staging.iterdir()) if staging.is_dir() else []:
                if leftover.is_dir():
                    _remove_dir(leftover)
                else:
                    leftover.unlink()
                report.findings.append(f"removed staging leftover {leftover.name}")

            live = [row for row, _ in rows]
            self._write_log(max([next_seq] + [row[0] + 1 for row in live]), live)
            report.kept = len(live)
            return report

        return self._with_lock(commit)
