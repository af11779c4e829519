"""On-disk result caches for decomposition and synthesis runs.

Decomposition entries are keyed by ``sha256(spec digest + pipeline config)``
— the spec digest is the canonical, context-independent hash of the output
functions (:func:`repro.anf.canonical_spec_digest`) and the config key is the
pipeline's exact pass configuration.  The stored value is a full JSON
serialisation of the :class:`~repro.core.decompose.Decomposition`, including
the per-iteration trace, so a warm cache reproduces the cold result exactly
(modulo the identity of the ``Context`` object, which is rebuilt with the
same variable ordering so all monomial bitmasks survive round-tripping).

Records are written by :func:`encode_record`: ``orjson`` renders a packed
expression's ``uint64`` rows straight from the array, with no per-term
Python objects; a record holding a mask of 64 bits or more (which orjson
cannot encode) falls back to the stdlib ``json`` writer.  Both give the same
bytes as ``json.dumps(record, separators=(",", ":"))`` for ASCII names.
Records are read by :func:`decode_record`: every span of at least
``KERNEL_MIN_ROWS`` rows written exactly as the writer writes them is
parsed by numpy into a read-only ``uint64`` array, and the rest of the
record by the stdlib ``json.loads`` (``orjson.loads`` silently turns
integers of 2**64 or more into floats).

:class:`SynthesisCache` applies the same recipe to the synthesis stage of
the evaluation flows: records are keyed by a canonical digest of the
*design* being synthesised (a decomposition's structure, a specification's
canonical spec digest, or a structural netlist) plus the synthesis
parameters and a fingerprint of the cell library, and hold the metric
surface of a :class:`~repro.synth.synthesize.SynthesisResult` (area, delay,
cell and depth counts) — warm Table-1/figure re-runs skip technology mapping
and timing entirely.  :func:`synthesize_cached` is the one step that reads
and writes them, and the only code that knows their fields.  Both caches
read records through one shared store (path, fault site, quarantine,
telemetry); each keeps only its own parse-and-screen step.

Writes are atomic (tmp file + rename), so many orchestrator workers can
share one cache directory without locking.  For *shared storage* with
concurrent writers from several machines, two opt-in hardening knobs exist:
``REPRO_CACHE_LOCK=1`` takes an advisory ``fcntl`` lock on ``<root>/.lock``
around every write (tmp create → rename), so index updates and record
stores from different hosts serialise instead of interleaving, and
``REPRO_CACHE_FSYNC=1`` fsyncs the record file and its directory before the
rename is considered durable (crash-consistency on filesystems that reorder
metadata).  Readers never need either: a record is only visible complete.

Torn or corrupt records (a killed writer on a non-atomic filesystem, bad
blocks, a foreign file at a key path) are *quarantined*: the damaged file is
atomically renamed to ``<name>.corrupt`` next to where it lay, the lookup
reports a miss (so the caller recomputes), and the telemetry ``corrupt``
counter advances — silent recompute loops on a poisoned record are visible
instead of invisible.  Write/read paths carry named fault-injection sites
(``cache.store``, ``cache.store.payload``, ``cache.store.rename``,
``cache.index.*``, ``cache.load`` — see :mod:`repro.faults`), which the
crash-consistency property tests drive.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
import orjson

from .. import faults

from ..anf import sortkernel
from ..anf.context import Context
from ..anf.expression import Anf
from ..anf.termmatrix import TermMatrix
from ..core.decompose import Block, Decomposition, DecompositionOptions, IterationRecord
from ..core.identities import Identity

SCHEMA = "repro-decomposition-v1"

#: Folded into every cache key (content and job index).  Cache keys carry no
#: automatic code fingerprint, so bump this whenever an engine change is
#: *allowed* to alter decomposition results — every existing cache entry is
#: invalidated at once.  (Behaviour-preserving changes need no bump; the
#: parity tests enforce that they really are behaviour-preserving.)
ENGINE_CACHE_EPOCH = "epoch-1"


# ----------------------------------------------------------------------
# Decomposition (de)serialisation
# ----------------------------------------------------------------------
def _anf_to_list(expr: Anf) -> np.ndarray | List[int]:
    """Sorted monomial masks: an attached matrix's rows as they are (a
    read-only, C-contiguous ``uint64`` array, not copied), else a sorted
    list of ints."""
    matrix = expr.term_matrix()
    if matrix is not None:
        return matrix.words
    return sorted(expr.terms)


def _anf_from_list(ctx: Context, terms: np.ndarray | List[int]) -> Anf:
    """Rebuild a record's row array (or monomial list) as an :class:`Anf`.

    A 1-D, C-contiguous ``uint64`` array of at least
    :data:`~repro.anf.sortkernel.KERNEL_MIN_ROWS` strictly ascending rows —
    what :func:`decode_record` reads from every canonical row span, and what
    a record that never left memory (or came back through pickle writeable)
    holds — is sealed read-only and used as it is, so a warm hit on a wide
    spec never builds its frozenset.  Any other array is decoded as its
    ``tolist()``, and every list (short, or hand-edited out of order,
    duplicated, wider than a row, or holding a non-``int`` entry) keeps the
    frozenset decode.
    """
    if isinstance(terms, np.ndarray):
        if (terms.ndim == 1 and terms.dtype == np.uint64 and terms.flags.c_contiguous
                and len(terms) >= sortkernel.KERNEL_MIN_ROWS
                and (terms[1:] > terms[:-1]).all()):
            return Anf._from_matrix(ctx, TermMatrix(sortkernel._frozen(terms)))
        terms = terms.tolist()
    return Anf._raw(ctx, frozenset(terms))


def serialize_decomposition(decomposition: Decomposition) -> dict:
    """Full rendering of a decomposition result as a record dict.

    Packed expressions appear as their read-only ``uint64`` row arrays and
    every other term set as a sorted list of ints; :func:`encode_record`
    turns the dict into the bytes stored on disk.
    """
    return {
        "schema": SCHEMA,
        "names": list(decomposition.ctx.names),
        "options": asdict(decomposition.options),
        "primary_inputs": list(decomposition.primary_inputs),
        "original": {
            port: _anf_to_list(expr) for port, expr in decomposition.original.items()
        },
        "outputs": {
            port: _anf_to_list(expr) for port, expr in decomposition.outputs.items()
        },
        "blocks": [
            {
                "name": block.name,
                "level": block.level,
                "definition": _anf_to_list(block.definition),
                "group": list(block.group),
            }
            for block in decomposition.blocks
        ],
        "iterations": [
            {
                "index": record.index,
                "group": list(record.group),
                "basis_definitions": [_anf_to_list(e) for e in record.basis_definitions],
                "block_names": list(record.block_names),
                "substitutions": [_anf_to_list(e) for e in record.substitutions],
                "identities_found": [
                    {
                        "expr": _anf_to_list(identity.expr),
                        "kind": identity.kind,
                        "description": identity.description,
                    }
                    for identity in record.identities_found
                ],
                "removed_blocks": {
                    name: _anf_to_list(expr)
                    for name, expr in record.removed_blocks.items()
                },
                "size_before": record.size_before,
                "size_after": record.size_after,
            }
            for record in decomposition.iterations
        ],
    }


def deserialize_decomposition(data: dict) -> Decomposition:
    """Rebuild a decomposition in a fresh :class:`Context`.

    The context declares the recorded variable names in their original order,
    so every stored monomial bitmask is valid as-is.
    """
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported decomposition record schema: {data.get('schema')!r}")
    ctx = Context(data["names"])
    options = DecompositionOptions(**data["options"])
    blocks = [
        Block(
            name=entry["name"],
            level=entry["level"],
            definition=_anf_from_list(ctx, entry["definition"]),
            group=list(entry["group"]),
        )
        for entry in data["blocks"]
    ]
    iterations = [
        IterationRecord(
            index=entry["index"],
            group=list(entry["group"]),
            basis_definitions=[_anf_from_list(ctx, e) for e in entry["basis_definitions"]],
            block_names=list(entry["block_names"]),
            substitutions=[_anf_from_list(ctx, e) for e in entry["substitutions"]],
            identities_found=[
                Identity(
                    expr=_anf_from_list(ctx, identity["expr"]),
                    kind=identity["kind"],
                    description=identity["description"],
                )
                for identity in entry["identities_found"]
            ],
            removed_blocks={
                name: _anf_from_list(ctx, e)
                for name, e in entry["removed_blocks"].items()
            },
            size_before=entry["size_before"],
            size_after=entry["size_after"],
        )
        for entry in data["iterations"]
    ]
    return Decomposition(
        ctx=ctx,
        original={port: _anf_from_list(ctx, e) for port, e in data["original"].items()},
        outputs={port: _anf_from_list(ctx, e) for port, e in data["outputs"].items()},
        blocks=blocks,
        iterations=iterations,
        options=options,
        primary_inputs=list(data["primary_inputs"]),
    )


def encode_record(record: dict) -> bytes:
    """The on-disk bytes of a record dict: compact JSON.

    ``orjson`` writes ``uint64`` row arrays without a per-term Python
    object.  It raises ``TypeError`` on an int of 2**64 or more (a mask over
    a context of more than 64 variables) and on a non-contiguous array;
    such records go through the stdlib writer, which renders arrays via
    ``tolist()``.
    """
    try:
        return orjson.dumps(record, option=orjson.OPT_SERIALIZE_NUMPY)
    except TypeError:
        return json.dumps(record, separators=(",", ":"),
                          default=np.ndarray.tolist).encode("utf-8")


#: Opens a candidate row span: a ``[`` whose next byte is a digit.
_ROW_SPAN_OPEN = re.compile(rb"\[[0-9]")
#: ``10**k`` for k = 1..19: a row ``r`` has ``1 + #{k : r >= 10**k}`` digits.
_DIGIT_STEPS = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
#: Prefix of the JSON strings that stand in for accepted row spans.
_ROW_SENTINEL = "\x00rows:"


def _canonical_rows(span: bytes) -> Optional[np.ndarray]:
    """``span`` parsed as rows if it is exactly what :func:`encode_record`
    writes for a row array, else ``None``.

    ``np.fromstring`` tolerates leading zeros, whitespace and a trailing
    comma, and saturates values of 2**64 or more to 2**64-1; the length
    identity (every byte is a digit of some row or one of the ``n-1``
    commas between them) and the maximum-value check reject all of those.
    The identity also rejects the rows numpy 1.x returns, with a
    ``DeprecationWarning`` instead of a ``ValueError``, from a partial
    parse.  A ``-`` is refused up front because numpy 1.x wraps a negative
    token to a 20-digit row, which could balance the identity against
    leading zeros.
    """
    if b"-" in span:
        return None
    try:
        rows = np.fromstring(span, dtype=np.uint64, sep=",")
    except ValueError:
        return None
    n = len(rows)
    if (n < sortkernel.KERNEL_MIN_ROWS or rows[-1] == sortkernel.ROW_MASK
            or not (rows[1:] > rows[:-1]).all()):
        return None
    digits = n + n * len(_DIGIT_STEPS) - int(np.searchsorted(rows, _DIGIT_STEPS).sum())
    if len(span) != n - 1 + digits:
        return None
    return sortkernel._frozen(rows)


def _put_rows(value: dict | list, rows: List[np.ndarray]) -> int:
    """Replace, in place, every sentinel among the values (never the keys)
    under ``value`` by its row array; returns how many were replaced."""
    met = 0
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for slot, item in items:
        if isinstance(item, str) and item.startswith(_ROW_SENTINEL):
            value[slot] = rows[int(item[len(_ROW_SENTINEL):])]
            met += 1
        elif isinstance(item, (dict, list)):
            met += _put_rows(item, rows)
    return met


def decode_record(raw: bytes) -> dict:
    """A record's bytes parsed back into a record dict: the mirror of
    :func:`encode_record`.

    Every array whose bytes are exactly what :func:`encode_record` writes
    for a row array (at least ``KERNEL_MIN_ROWS`` strictly ascending rows
    below 2**64-1, canonical decimals, no whitespace) comes back as a
    read-only ``uint64`` array parsed by numpy, with no per-term Python
    int.  Those spans are spliced out for ``"\\u0000rows:<k>"`` sentinels,
    the small skeleton left over goes through ``json.loads``, and the
    arrays are put back where the sentinels lie.  Everything else decodes
    as ``json.loads(raw)`` would, and so does the whole record whenever the
    skeleton disagrees with the splice (it does not parse, as when a span
    sat inside a string; a sentinel landed on a key or under a duplicate
    key that lost; or ``raw`` spells a NUL outside the spans, so a sentinel
    could be forged) — including which inputs raise ``ValueError``.
    """
    min_len = 2 * sortkernel.KERNEL_MIN_ROWS - 1
    rows: List[np.ndarray] = []
    pieces = []
    done = 0  # bytes of ``raw`` already spliced into ``pieces``
    close = -1
    match = _ROW_SPAN_OPEN.search(raw)
    while match is not None:
        start = match.start() + 1
        if start > close:  # else the ``]`` found last is still the next one
            close = raw.find(b"]", start)
            if close < 0:
                break
        # A span holding a ``[`` is never canonical: the scan goes on at that
        # ``[``.  Any other span holds no further candidate, so the scan
        # resumes past its ``]`` instead of walking its digits again; the
        # spans handed to numpy stay disjoint and the scan stays linear.
        inner = raw.find(b"[", start, close)
        if inner >= 0:
            match = _ROW_SPAN_OPEN.search(raw, inner)
            continue
        match = _ROW_SPAN_OPEN.search(raw, close + 1)
        if close - start < min_len:
            continue
        parsed = _canonical_rows(raw[start:close])
        if parsed is None:
            continue
        pieces += [raw[done:start - 1], b'"\\u0000rows:%d"' % len(rows)]
        rows.append(parsed)
        done = close + 1
    pieces.append(raw[done:])
    # A JSON string can only hold a NUL as ``\\u0000``: with none outside
    # the spans, every sentinel in the skeleton is one spliced in above.
    if not rows or any(b"\\u0000" in piece for piece in pieces[::2]):
        return json.loads(raw)
    try:
        holder = [json.loads(b"".join(pieces))]
        if _put_rows(holder, rows) == len(rows):
            return holder[0]
    except (ValueError, RecursionError):
        pass
    return json.loads(raw)


#: Advisory-lock and durability knobs for shared-storage cache directories.
LOCK_ENV = "REPRO_CACHE_LOCK"
FSYNC_ENV = "REPRO_CACHE_FSYNC"


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no", "off")


@contextmanager
def _cache_lock(root: Path):
    """Advisory exclusive lock on ``<root>/.lock`` when ``REPRO_CACHE_LOCK`` is set.

    A no-op by default (atomic renames already keep single-host writers
    safe), and degrades to a no-op where ``fcntl`` does not exist.
    """
    if not _env_truthy(LOCK_ENV):
        yield
        return
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(root / ".lock", "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - directory fsync is best-effort
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(root: Path, path: Path, payload: bytes, site: str) -> None:
    """Write ``payload`` via tmp-file + rename (crash-safe), with fault sites.

    ``site`` names the fault-injection point family: ``<site>`` fires before
    anything is written, ``<site>.payload`` may tear the bytes, and
    ``<site>.rename`` sits in the crash window between the tmp write and the
    atomic rename (a ``skip`` fault there abandons the rename exactly as a
    crash would, leaving the tmp file behind and the record absent).
    """
    tag = path.name
    faults.hit(site, tag=tag)
    payload = faults.mutate(f"{site}.payload", payload, tag=tag)
    directory = path.parent
    with _cache_lock(root):
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                if _env_truthy(FSYNC_ENV):
                    handle.flush()
                    os.fsync(handle.fileno())
            if faults.should_skip(f"{site}.rename", tag=tag):
                return  # simulated crash: tmp file left, record never lands
            os.replace(tmp_path, path)
            if _env_truthy(FSYNC_ENV):
                _fsync_dir(directory)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# Hit/miss telemetry
# ----------------------------------------------------------------------
class CacheTelemetry:
    """Shared hit/miss/store counters a cache instance can report into.

    Both caches accept an optional ``telemetry`` object and record every
    *lookup* (a raw-record read counts once even when the caller also
    deserialises it) plus every store.  One telemetry object may be shared
    by several cache instances — e.g. a decomposition cache and the
    synthesis cache living under the same store — to aggregate a service's
    overall hit rate.  Counter bumps are single bytecode increments, so the
    object is safe to share across threads for monitoring purposes;
    cross-process aggregation is the caller's job (the service sums
    worker-reported outcomes instead).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Torn/invalid records quarantined to ``*.corrupt`` sidecars.
        self.corrupt = 0

    def record_lookup(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def record_store(self) -> None:
        self.stores += 1

    def record_corrupt(self) -> None:
        self.corrupt += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 with no lookups)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CacheTelemetry(hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores}, corrupt={self.corrupt})")


def corrupt_record_count(root: str | os.PathLike) -> int:
    """How many quarantined ``*.corrupt`` sidecars live under ``root``.

    Counts recursively (records, job index, synthesis sub-store), so a
    service can report shared-store damage even when the quarantining
    happened inside short-lived worker processes.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        return 0
    return sum(1 for _ in root_path.rglob("*.corrupt"))


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
def cache_key(spec_digest: str, config_key: str) -> str:
    """Combined cache key for (specification, pipeline configuration)."""
    combined = f"{SCHEMA}\n{ENGINE_CACHE_EPOCH}\n{spec_digest}\n{config_key}"
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


class _RecordStore:
    """Directory of ``<key>.json`` records: the read, quarantine and
    telemetry both caches share.

    A subclass supplies :meth:`_screen`, which parses a record's bytes and
    returns the record dict, or ``None`` for bytes that do not hold one of
    its records.  ``telemetry`` (optional) receives a lookup event per read
    and a store event per write — the hook the service's ``/metrics``
    endpoint and any shared-store monitoring hang off.
    """

    #: Globs, besides the records, that :meth:`clear` deletes.
    _EXTRA_FILES = ("*.corrupt",)

    def __init__(self, root: str | os.PathLike,
                 telemetry: CacheTelemetry | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.telemetry = telemetry

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _screen(self, raw: bytes) -> Optional[dict]:
        raise NotImplementedError

    def _read(self, key: str) -> Optional[dict]:
        """The screened record for ``key``, or ``None``; one lookup event.

        A record that does not pass :meth:`_screen` (torn, corrupt, or a
        foreign file at the key path) is a miss and is quarantined.  A
        missing file or a transient I/O failure is a plain miss.
        """
        path = self._path(key)
        record = None
        try:
            faults.hit("cache.load", tag=path.name)
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            pass  # absent, or a transient failure: a miss with nothing to blame
        else:
            record = self._screen(raw)
            if record is None:
                self._quarantine(path)
        if self.telemetry is not None:
            self.telemetry.record_lookup(record is not None)
        return record

    def _quarantine(self, path: Path) -> None:
        """Atomically move a damaged record aside as ``<name>.corrupt``."""
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            return  # a concurrent reader already moved it, or it vanished
        if self.telemetry is not None:
            self.telemetry.record_corrupt()

    def _write(self, key: str, payload: bytes) -> None:
        """Atomically persist a record's bytes; one store event."""
        _atomic_write_bytes(self.root, self._path(key), payload, "cache.store")
        if self.telemetry is not None:
            self.telemetry.record_store()

    def clear(self) -> int:
        """Delete every record and its side files; returns how many records."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        for pattern in self._EXTRA_FILES:
            for path in self.root.glob(pattern):
                path.unlink()
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


#: Sections every decomposition record must carry.
_REQUIRED_SECTIONS = ("names", "options", "primary_inputs", "original",
                      "outputs", "blocks", "iterations")


class DecompositionCache(_RecordStore):
    """Directory of ``<key>.json`` decomposition records, plus the job index."""

    _EXTRA_FILES = ("index/*.key", "*.corrupt", "index/*.corrupt")

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def load(self, key: str) -> Optional[Decomposition]:
        """The cached decomposition for ``key``, or ``None``.

        A corrupt, truncated, or structurally invalid record (e.g. from a
        killed writer on a filesystem without atomic rename, or a foreign
        file at the key path) is treated as a miss and quarantined to a
        ``*.corrupt`` sidecar so the damage is visible and never re-read.
        """
        raw = self.load_raw(key)
        if raw is None:
            return None
        try:
            return deserialize_decomposition(raw)
        except (AttributeError, KeyError, TypeError, ValueError):
            self._quarantine(self._path(key))
            return None

    def load_raw(self, key: str) -> Optional[dict]:
        """The cached serialised record for ``key``, or ``None``.

        The record is as :func:`decode_record` reads it: canonical row spans
        are read-only ``uint64`` arrays, everything else plain JSON values.
        Records that parse but do not look like decomposition records (wrong
        schema, missing sections — e.g. a foreign or truncated file at the
        key path) are treated as misses and quarantined.  A record that
        passes this screen can still fail to decode; :meth:`load` catches
        that too.
        """
        return self._read(key)

    def _screen(self, raw: bytes) -> Optional[dict]:
        try:
            record = decode_record(raw)
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            return None
        if (not isinstance(record, dict) or record.get("schema") != SCHEMA
                or any(section not in record for section in _REQUIRED_SECTIONS)):
            return None
        return record

    def store(self, key: str, decomposition: Decomposition) -> dict:
        """Serialise and persist a result; returns the stored record."""
        data = serialize_decomposition(decomposition)
        self.store_raw(key, data)
        return data

    def store_raw(self, key: str, data: dict) -> None:
        """Atomically persist an already-serialised record."""
        self._write(key, encode_record(data))

    # ------------------------------------------------------------------
    # Job index: fingerprint of (builder, args, config) -> content key.
    #
    # The content-addressed records above are the source of truth; the index
    # is a shortcut that lets orchestrator workers skip rebuilding and
    # re-hashing a specification they have produced before.  It trusts spec
    # builders to be deterministic and to keep their semantics: the
    # closed-form builders are pinned to their ring-emulating oracles
    # (tests/test_spec_builders.py), and a builder whose spec changes
    # needs the cache directory deleted (or the index disabled).
    # ------------------------------------------------------------------
    def _index_path(self, job_key: str) -> Path:
        return self.root / "index" / f"{job_key}.key"

    def load_index(self, job_key: str) -> Optional[str]:
        """The content key recorded for a job fingerprint, or ``None``."""
        try:
            content_key = self._index_path(job_key).read_text().strip()
        except OSError:
            return None
        return content_key or None

    def store_index(self, job_key: str, content_key: str) -> None:
        """Atomically record a job fingerprint -> content key association."""
        index_dir = self.root / "index"
        index_dir.mkdir(exist_ok=True)
        _atomic_write_bytes(
            self.root, self._index_path(job_key),
            content_key.encode("utf-8"), site="cache.index",
        )


# ----------------------------------------------------------------------
# Synthesis-result cache (the evaluation flows' warm path)
# ----------------------------------------------------------------------
SYNTH_SCHEMA = "repro-synthesis-v1"

#: Metric fields every synthesis record must carry.
SYNTH_METRIC_FIELDS = ("area", "delay", "cells", "depth")


def decomposition_digest(decomposition) -> str:
    """Canonical digest of the *structure* a decomposition hands to synthesis.

    Hashes exactly what :func:`repro.core.structure.decomposition_to_netlist`
    consumes — blocks (name, level, group, definition), outputs and primary
    inputs — rendered through variable *names* (``to_str`` renders sorted
    canonical terms), so the digest is context- and process-independent and
    never touches the giant ``original`` expressions.
    """
    digest = hashlib.sha256()
    for block in decomposition.blocks:
        digest.update(
            f"{block.name}@{block.level}[{','.join(block.group)}]"
            f"={block.definition.to_str()}\n".encode("utf-8")
        )
    for port in sorted(decomposition.outputs):
        digest.update(f"{port}={decomposition.outputs[port].to_str()}\n".encode("utf-8"))
    digest.update("|".join(decomposition.primary_inputs).encode("utf-8"))
    return digest.hexdigest()


def netlist_digest(netlist) -> str:
    """Canonical digest of a structural netlist (inputs, gates, outputs)."""
    digest = hashlib.sha256()
    digest.update("|".join(netlist.inputs).encode("utf-8"))
    for gate in netlist.gates:
        digest.update(f"\n{gate.output}={gate.op}({','.join(gate.inputs)})".encode("utf-8"))
    for port in sorted(netlist.outputs):
        digest.update(f"\n{port}:{netlist.outputs[port]}".encode("utf-8"))
    return digest.hexdigest()


def library_fingerprint(library) -> str:
    """Stable fingerprint of a cell library's timing/area model
    (:meth:`~repro.synth.library.Library.fingerprint`)."""
    return library.fingerprint()


def synthesis_cache_key(design_digest: str, library_fp: str, params: dict) -> str:
    """Combined cache key for (design, library, synthesis parameters)."""
    rendered = "|".join(f"{key}={params[key]!r}" for key in sorted(params))
    combined = (
        f"{SYNTH_SCHEMA}\n{ENGINE_CACHE_EPOCH}\n{design_digest}\n{library_fp}\n{rendered}"
    )
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


class SynthesisCache(_RecordStore):
    """Directory of ``<key>.json`` synthesis metric records.

    Records hold the metric surface of a synthesis run (``area``, ``delay``,
    ``cells``, ``depth`` plus the design name), not the mapped netlist:
    everything the evaluation tables and figures read from a
    :class:`~repro.eval.flows.FlowResult`, at a fraction of the bytes.
    :func:`synthesize_cached` is the step that reads and writes them.
    """

    def load(self, key: str) -> Optional[dict]:
        """The cached metric record for ``key``, or ``None``."""
        return self._read(key)

    def _screen(self, raw: bytes) -> Optional[dict]:
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            return None
        if not isinstance(record, dict) or record.get("schema") != SYNTH_SCHEMA:
            return None
        for field_name in SYNTH_METRIC_FIELDS:
            value = record.get(field_name)
            # bool is an int subclass; a true/false metric is still corrupt.
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return None
        return record

    def store(self, key: str, metrics: dict) -> dict:
        """Atomically persist a metric record; returns the stored record."""
        record = {"schema": SYNTH_SCHEMA, **metrics}
        self._write(key, json.dumps(record, separators=(",", ":")).encode("utf-8"))
        return record


@dataclass
class CachedSynthesis:
    """A synthesis result rebuilt from a :class:`SynthesisCache` record.

    Carries the metric surface of a
    :class:`~repro.synth.synthesize.SynthesisResult` — everything the
    tables and figures read — without the mapped netlist (which is what the
    cache deliberately does not store).  Consumers needing the netlist
    itself should run without a synthesis cache.
    """

    name: str
    area: float
    delay: float
    num_cells: int
    depth: int

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "area_um2": round(self.area, 1),
            "delay_ns": round(self.delay, 3),
            "cells": self.num_cells,
            "depth": self.depth,
        }


def synthesize_cached(
    cache: SynthesisCache | None,
    design_digest: Callable[[], str],
    library,
    params: Mapping[str, object],
    synthesize: Callable[[], Any],
) -> Tuple[Any, bool]:
    """The one cached synthesis step: load a metric record, or synthesise
    and store one.

    The key is :func:`synthesis_cache_key` over ``design_digest()``, the
    library's fingerprint and ``params``.  Returns ``(synthesis,
    cache_hit)``: on a hit a :class:`CachedSynthesis` rebuilt from the
    record, else what ``synthesize()`` returned (a
    :class:`~repro.synth.synthesize.SynthesisResult`), whose metrics are
    then stored under the key.  Without a cache nothing is digested or
    read.
    """
    if cache is None:
        return synthesize(), False
    key = synthesis_cache_key(design_digest(), library_fingerprint(library), dict(params))
    record = cache.load(key)
    if record is not None:
        return CachedSynthesis(
            name=str(record.get("name", "")),
            area=float(record["area"]),
            delay=float(record["delay"]),
            num_cells=int(record["cells"]),
            depth=int(record["depth"]),
        ), True
    result = synthesize()
    cache.store(key, {
        "name": result.name,
        "area": result.area,
        "delay": result.delay,
        "cells": result.num_cells,
        "depth": result.depth,
    })
    return result, False
