"""Identical-file detection after whitespace/line-ending normalization.

Text files are compared with spaces and tabs removed and every line
break rewritten as CRLF; binary files are compared verbatim.  Two stages
run on the calling thread.  The size stage reads each file's first KiB
to tell text from binary, then keys a binary by its size on disk and a
text file by its normalized length, each with a CRC-32 of its first
normalized KiB, so a binary whose key no other file shares is never read
past its head.  Confirmation reads the members of each shared key in
lockstep through ``_normalized_chunks``, 1 MiB at a time, and splits
them into classes of identical content after every chunk; a class of one
stops being read, and each class keeps one running MD5 of what its
members read, which becomes the group's digest.  Byte equality, never
the digest, decides membership.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

__all__ = [
    "DuplicateGroup",
    "TEXT_EXTENSIONS",
    "is_text_payload",
    "normalize",
    "find_duplicates",
]

TEXT_EXTENSIONS = {"urdf", "xacro", "dae", "obj", "mtl", "xml", "json", "txt", "md"}
_CHUNK = 1 << 20


@dataclass(frozen=True)
class DuplicateGroup:
    """Files whose normalized contents are byte-identical."""

    members: tuple[Path, ...]
    size: int  # bytes after normalization
    digest: str  # MD5 of the normalized content


def normalize(content: bytes, is_text: bool) -> bytes:
    """Drop spaces/tabs and force CRLF line endings; binary passes through."""
    if not is_text:
        return content
    stripped = content.translate(None, b" \t")
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


def _sniff(path: Path, fh: BinaryIO) -> tuple[bytes, bytes | None]:
    """Read the head of an open file: the first KiB of its normalized
    content, and the whole normalized content if it is text (None if not)."""
    head = fh.read(1024)
    if not is_text_payload(path, head):
        return head, None
    fh.seek(0)
    text = normalize(fh.read(), True)
    return text[:1024], text


def _size_key(path: Path) -> tuple[int, int]:
    """Normalized size and a checksum of the normalized first KiB; files
    that differ in either cannot be identical."""
    with path.open("rb") as fh:
        head, text = _sniff(path, fh)
        size = os.fstat(fh.fileno()).st_size if text is None else len(text)
    return size, zlib.crc32(head)


def _normalized_chunks(path: Path) -> Iterator[bytes]:
    """The normalized content of one file in ``_CHUNK`` pieces, so files of
    one size split at the same offsets whether text or binary.  No file
    stays open between pieces: a bucket may hold more files than can be
    open at once."""
    with path.open("rb") as fh:
        if (text := _sniff(path, fh)[1]) is None:
            fh.seek(0)
            chunk = fh.read(_CHUNK)
    if text is not None:
        yield from (text[start:start + _CHUNK] for start in range(0, len(text), _CHUNK))
        return
    offset = 0
    while chunk:
        yield chunk
        if len(chunk) < _CHUNK:  # a short read ends the file
            return
        offset += len(chunk)
        with path.open("rb") as fh:
            fh.seek(offset)
            chunk = fh.read(_CHUNK)


def find_duplicates(paths: Iterable[Path | str],
                    errors: list[tuple[Path, OSError]] | None = None) -> list[DuplicateGroup]:
    """Group byte-identical files (after normalization) among ``paths``.

    Unreadable files are skipped and collected into ``errors`` when a
    list is supplied; the run never aborts.  Groups hold at least two
    members and are sorted by (size descending, first path); the result
    does not depend on input order.
    """
    if errors is None:
        errors = []
    buckets: dict[tuple[int, int], list[Path]] = {}
    for path in sorted({Path(p) for p in paths}, key=str):
        try:
            buckets.setdefault(_size_key(path), []).append(path)
        except OSError as exc:
            errors.append((path, exc))

    groups = [DuplicateGroup(tuple(members), size, digest)
              for (size, _), bucket in buckets.items() if len(bucket) >= 2
              for members, digest in _identical_classes(bucket, errors)]
    groups.sort(key=lambda g: (-g.size, str(g.members[0])))
    return groups


def _identical_classes(bucket: list[Path],
                       errors: list[tuple[Path, OSError]]) -> list[tuple[list[Path], str]]:
    """Split a bucket of one size key into classes of identical content,
    of two or more members each, with the MD5 of that content.

    The members of a class are read in lockstep, one chunk each, and the
    class splits by the chunk they read; a class of one is not read on.
    """
    done: list[tuple[list[Path], str]] = []
    reading = [([(path, _normalized_chunks(path)) for path in bucket], hashlib.md5())]
    while reading:
        streams, md5 = reading.pop()
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
                done.append(([path for path, _ in same], md5.hexdigest()))
                continue
            running = md5.copy() if len(split) > 1 else md5
            running.update(chunk)
            reading.append((same, running))
    return done
