"""Journal record lines and the request-body codec.

A journal record is one JSON line::

    {"crc": <crc32 of canonical [seq, op, data]>, "rec": [seq, op, data], "v": 1}

``data`` is restricted to JSON types; request bodies inside it are
pickled, compressed, and base64-encoded by :func:`encode_body` (with
the trace context stripped — traces are observability state, not
serving state, and may hold unpicklable tracer internals). The CRC is
computed over the canonical serialization (sorted keys, no spaces) of
the ``rec`` array, so a decoded record can be re-verified without
byte-preserving the original line.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import zlib
from typing import Any

FORMAT_VERSION = 1


class JournalCorruption(RuntimeError):
    """A journal record or snapshot failed structural or CRC validation."""


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(rec: list) -> str:
    return _CANONICAL.encode(rec)


def encode_record(seq: int, op: str, data: dict) -> str:
    """Encode one journal record as a CRC-protected JSON line.

    The ``rec`` array is serialized once: the CRC is taken over those
    canonical bytes and they are spliced into the envelope, which is
    byte-for-byte what serializing the whole sorted-key envelope gives
    (``crc`` < ``rec`` < ``v``, and a nested value serializes the same
    as a top-level one).
    """
    canonical = _canonical([seq, op, data])
    crc = zlib.crc32(canonical.encode("utf-8"))
    return f'{{"crc":{crc},"rec":{canonical},"v":{FORMAT_VERSION}}}'


def decode_record(line: str) -> tuple[int, str, dict]:
    """Decode and CRC-verify one journal line; returns ``(seq, op, data)``.

    Raises :class:`JournalCorruption` on malformed JSON, an unexpected
    structure, or a CRC mismatch. Callers tolerating a torn final write
    must catch this for the *last* line only (see
    :func:`repro.durability.recovery.load_state`).
    """
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise JournalCorruption(f"unparseable journal line: {exc}") from exc
    if (
        not isinstance(doc, dict)
        or doc.get("v") != FORMAT_VERSION
        or not isinstance(doc.get("rec"), list)
        or len(doc["rec"]) != 3
    ):
        raise JournalCorruption(f"malformed journal record: {line[:120]!r}")
    seq, op, data = doc["rec"]
    if (
        not isinstance(seq, int)
        or isinstance(seq, bool)  # JSON true/false would pass as 1/0
        or not isinstance(op, str)
        or not isinstance(data, dict)
    ):
        raise JournalCorruption(f"malformed journal record fields: {line[:120]!r}")
    crc = zlib.crc32(_canonical(doc["rec"]).encode("utf-8"))
    if crc != doc.get("crc"):
        raise JournalCorruption(
            f"crc mismatch on record seq={seq} op={op!r}: "
            f"stored {doc.get('crc')}, computed {crc}"
        )
    return seq, op, data


def encode_body(body: Any) -> str:
    """Encode a queue message body (usually a ``TaskRequest``) to text.

    The trace context is stripped before pickling: it is per-incarnation
    observability state, never needed to re-serve the request, and may
    reference live tracer internals.
    """
    if dataclasses.is_dataclass(body) and getattr(body, "trace", None) is not None:
        body = dataclasses.replace(body, trace=None)
    raw = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def decode_body(text: str) -> Any:
    """Inverse of :func:`encode_body`."""
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(text.encode("ascii"))))
    except Exception as exc:  # corrupt payloads fail loud, never partially
        raise JournalCorruption(f"undecodable message body: {exc}") from exc
