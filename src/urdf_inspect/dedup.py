"""Identical-file detection after whitespace/line-ending normalization.

Text files are compared with spaces and tabs removed and every line
break rewritten as CRLF; binary files are compared verbatim.  One
reader, ``_normalized_chunks``, makes the text/binary decision and the
normalization for both stages, on the calling thread: one read of each
file yields its normalized size and MD5 digest together, and files that
share both are then read again and compared byte by byte, so the digest
never decides membership on its own.
"""

from __future__ import annotations

import hashlib
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


def _normalized_chunks(path: Path) -> Iterator[bytes]:
    """The normalized content of one file: text whole, binary in 1 MiB reads."""
    with path.open("rb") as fh:
        head = fh.read(1024)
        if is_text_payload(path, head):
            yield normalize(head + fh.read(), True)
            return
        yield head
        while chunk := fh.read(1 << 20):
            yield chunk


def _size_and_digest(path: Path) -> tuple[int, str]:
    md5 = hashlib.md5()
    size = 0
    for chunk in _normalized_chunks(path):
        md5.update(chunk)
        size += len(chunk)
    return size, md5.hexdigest()


def find_duplicates(paths: Iterable[Path | str],
                    errors: list[tuple[Path, OSError]] | None = None) -> list[DuplicateGroup]:
    """Group byte-identical files (after normalization) among ``paths``.

    Unreadable files are skipped and collected into ``errors`` when a
    list is supplied; the run never aborts.  Groups hold at least two
    members and are sorted by (size descending, first path); the result
    does not depend on input order.
    """
    keyed: dict[tuple[int, str], list[Path]] = {}
    for path in sorted({Path(p) for p in paths}, key=str):
        try:
            keyed.setdefault(_size_and_digest(path), []).append(path)
        except OSError as exc:
            if errors is not None:
                errors.append((path, exc))

    groups: list[DuplicateGroup] = []
    for (size, digest), members in keyed.items():
        if len(members) < 2:
            continue
        for confirmed in _partition_identical(members, errors):
            if len(confirmed) >= 2:
                groups.append(DuplicateGroup(tuple(confirmed), size, digest))
    groups.sort(key=lambda g: (-g.size, str(g.members[0])))
    return groups


def _partition_identical(members: list[Path],
                         errors: list[tuple[Path, OSError]] | None) -> list[list[Path]]:
    """Split a same-size same-digest bucket by actual content equality."""
    contents: dict[Path, bytes] = {}
    pending: list[Path] = []
    for path in members:
        try:
            contents[path] = b"".join(_normalized_chunks(path))
            pending.append(path)
        except OSError as exc:
            if errors is not None:
                errors.append((path, exc))
    out: list[list[Path]] = []
    while pending:
        first = pending[0]
        same = [p for p in pending if contents[p] == contents[first]]
        pending = [p for p in pending if contents[p] != contents[first]]
        out.append(same)
    return out
