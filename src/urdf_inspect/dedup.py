"""Identical-file detection after whitespace/line-ending normalization.

Text files are compared with spaces and tabs removed and every line
break rewritten as CRLF; binary files are compared verbatim.  Two stages
run on the calling thread.  The head stage reads each file's first KiB
to tell text from binary and keys every file by the CRC-32 of its first
normalized KiB, reading a text file only as far as that KiB needs.  A
file whose key no other file shares is never read further; a text file
and a binary holding its normalized bytes share a key.  Confirmation
reads the members of each shared key in lockstep through
``_normalized_chunks``, 1 MiB at a time, normalizing text as it goes
with a trailing CR carried to the next read, and splits them into
classes of identical content after every chunk; a class of one stops
being read.  So a text file is normalized at most once, and only when
another file shares its head.  Each class keeps the size and one running
MD5 of what its members read, which become the group's size and digest.
Byte equality, never the digest, decides membership."""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "DuplicateGroup",
    "TEXT_EXTENSIONS",
    "is_text_payload",
    "normalize",
    "find_duplicates",
]

TEXT_EXTENSIONS = {"urdf", "xacro", "dae", "obj", "mtl", "xml", "json", "txt", "md"}
_CHUNK = 1 << 20
_BLANKS = b" \t"


@dataclass(frozen=True)
class DuplicateGroup:
    """Files whose normalized contents are byte-identical."""

    members: tuple[Path, ...]
    size: int  # bytes after normalization
    digest: str  # MD5 of the normalized content


def normalize(content: bytes, is_text: bool) -> bytes:
    """Drop spaces/tabs and force CRLF line endings; binary passes through."""
    return _crlf(content.translate(None, _BLANKS)) if is_text else content


def _crlf(stripped: bytes) -> bytes:
    """Rewrite every line break (CRLF, lone CR or lone LF) as CRLF."""
    return stripped.replace(b"\r\n", b"\n").replace(b"\r", b"\n").replace(b"\n", b"\r\n")


def is_text_payload(path: Path, head: bytes) -> bool:
    """Decide text vs binary from the extension, sniffing STL content.

    ASCII STL starts with the token "solid" and carries no NUL in its
    first kilobyte; every other .stl is binary.
    """
    ext = path.suffix.lower().lstrip(".")
    if ext in TEXT_EXTENSIONS:
        return True
    if ext == "stl":
        if b"\x00" in head[:1024] or not head.startswith(b"solid"):
            return False
        return len(head) == 5 or head[5:6] in (b" ", b"\t", b"\r", b"\n")
    return False


def _head_key(path: Path) -> tuple[int, object]:
    """CRC-32 of the first normalized KiB, and the file's identity: its
    (st_dev, st_ino), or ``path`` where an inode number of 0 names none.

    ``normalize(raw[:k])`` is a prefix of ``normalize(raw)``, so a text
    file is read only until its prefix normalizes to a KiB or it ends."""
    with path.open("rb") as fh:
        st = os.fstat(fh.fileno())
        identity = (st.st_dev, st.st_ino) if st.st_ino else path
        raw = fh.read(1024)
        if not is_text_payload(path, raw):
            return zlib.crc32(raw), identity
        head = normalize(raw, True)
        while len(head) < 1024 and (more := fh.read(len(raw))):
            raw += more
            head = normalize(raw, True)
    return zlib.crc32(head[:1024]), identity


def _normalized_chunks(path: Path) -> Iterator[bytes]:
    """The normalized content of one file in ``_CHUNK`` pieces, so text and
    binary files split at the same offsets.  Text is normalized one raw
    read at a time; a CR ending a read (after its blanks are dropped) is
    carried over, as it may be the first half of a CRLF.  No file stays
    open between reads: a bucket may hold more files than can be open at
    once."""
    offset, carry, pending, text = 0, b"", b"", None
    while True:
        with path.open("rb") as fh:
            if text is None:
                text = is_text_payload(path, fh.read(1024))
            fh.seek(offset)
            # no larger than what is left: a read allocates all it asks for
            raw = fh.read(min(_CHUNK, max(0, os.fstat(fh.fileno()).st_size - offset)))
        offset += len(raw)
        end = len(raw) < _CHUNK  # a short read ends the file
        if text:
            raw = carry + raw.translate(None, _BLANKS)
            carry = b"\r" if not end and raw.endswith(b"\r") else b""
            raw = _crlf(raw[:len(raw) - len(carry)])
        pending += raw
        cut = len(pending) if end else len(pending) - len(pending) % _CHUNK
        yield from (pending[start:start + _CHUNK] for start in range(0, cut, _CHUNK))
        if end:
            return
        pending = pending[cut:]


def find_duplicates(paths: Iterable[Path | str],
                    errors: list[tuple[Path, OSError]] | None = None) -> list[DuplicateGroup]:
    """Group byte-identical files (after normalization) among ``paths``.

    Unreadable files are skipped and collected into ``errors`` when a
    list is supplied; the run never aborts.  A path to a file that an
    earlier path already names (a symlink or a hard link) is left out.
    Groups hold at least two members and are sorted by (size descending,
    first path); the result does not depend on input order.
    """
    if errors is None:
        errors = []
    buckets: dict[int, list[Path]] = {}
    seen: set = set()  # the identities of the files keyed so far
    for path in sorted({Path(p) for p in paths}, key=str):
        try:
            key, identity = _head_key(path)
        except OSError as exc:
            errors.append((path, exc))
            continue
        if identity not in seen:
            seen.add(identity)
            buckets.setdefault(key, []).append(path)
    groups = [DuplicateGroup(tuple(members), size, digest)
              for bucket in buckets.values() if len(bucket) >= 2
              for members, size, digest in _identical_classes(bucket, errors)]
    groups.sort(key=lambda g: (-g.size, str(g.members[0])))
    return groups


def _identical_classes(bucket: list[Path],
                       errors: list[tuple[Path, OSError]]) -> list[tuple[list[Path], int, str]]:
    """Split a bucket into classes of identical normalized content, of two
    or more members each, with the size and MD5 of that content.

    The members of a class are read in lockstep, one chunk each, and the
    class splits by the chunk they read; a class of one is not read on.
    """
    done: list[tuple[list[Path], int, str]] = []
    reading = [([(path, _normalized_chunks(path)) for path in bucket], 0, hashlib.md5())]
    while reading:
        streams, size, md5 = reading.pop()
        split: list[tuple[bytes | None, list[tuple[Path, Iterator[bytes]]]]] = []
        for path, chunks in streams:
            try:
                chunk = next(chunks, None)
            except OSError as exc:
                errors.append((path, exc))
                continue
            same = next((members for seen, members in split if seen == chunk), None)
            if same is None:
                split.append((chunk, same := []))
            same.append((path, chunks))
        for chunk, same in split:
            if len(same) < 2:
                continue
            if chunk is None:
                done.append(([path for path, _ in same], size, md5.hexdigest()))
                continue
            running = md5.copy() if len(split) > 1 else md5
            running.update(chunk)
            reading.append((same, size + len(chunk), running))
    return done
