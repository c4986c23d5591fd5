"""Identical-file detection after whitespace/line-ending normalization.

Text files are compared with spaces and tabs removed and every line
break rewritten as CRLF; binary files are compared verbatim.  Two stages
run on the calling thread.  The head stage reads each file's first KiB,
decides there, once, whether the file is text or binary, and keys every
file by the CRC-32 of its first normalized KiB, reading a text file only
as far as that KiB needs.  A file whose key no other file shares is
never read further; a text file and a binary holding its normalized
bytes share a key.  Confirmation takes the members of each shared key in
two lockstep passes, 1 MiB at a time, and splits them after every chunk
into classes of equal chunks; a class of one stops being read.  Pass 1
reads only the text members, raw: those that stay together to the end
are byte-identical text copies, a copy class.  A binary, with nothing to
normalize, is a copy class of its own.  Pass 2 reads one member of each
text copy class through ``_normalized_chunks``, with a trailing CR
carried to the next read, and each binary raw, once; both readers cut at
the same offsets.  A pass-2 class holding two or more paths is a group,
so a text file is normalized at most once per copy class, and only when
another file shares its head.  Each pass-2 class keeps the size and one
running MD5 of what it read, which become the group's size and digest.
Byte equality, never the digest, decides membership.  Each read is one
``_fs.read``, whose stat gives the file's identity and its end."""

from __future__ import annotations

import hashlib
import zlib
from itertools import chain, count
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import _fs

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


class DuplicateGroup(NamedTuple):
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


def _head_key(path: Path) -> tuple[int, bool, object]:
    """CRC-32 of the first normalized KiB, whether the file is text, and
    its identity: its (st_dev, st_ino), or ``path`` where an inode number
    of 0 names none.

    ``normalize(raw[:k])`` is a prefix of ``normalize(raw)``, so a text
    file is read only until its prefix normalizes to a KiB or it ends."""
    st, raw = _fs.read(path, 0, 1024)
    text = is_text_payload(path, raw)
    head = normalize(raw, True) if text else raw
    while text and len(head) < 1024 and len(raw) < st.st_size and (
            more := _fs.read(path, len(raw), len(raw))[1]):
        raw += more
        head = normalize(raw, True)
    return zlib.crc32(head[:1024]), text, (st.st_dev, st.st_ino) if st.st_ino else path


def _raw_chunks(path: Path) -> Iterator[bytes]:
    """The raw content of one file in non-empty pieces: ``_CHUNK`` bytes
    each up to a short last one, each one ``_fs.read``.  No file stays
    open between pieces: a bucket may hold more files than can be open
    at once."""
    for offset in count(0, _CHUNK):
        st, raw = _fs.read(path, offset, _CHUNK)
        if raw:
            yield raw
        if st.st_size <= offset + _CHUNK:
            return


def _normalized_chunks(path: Path) -> Iterator[bytes]:
    """The normalized content of one text file, cut as ``_raw_chunks`` cuts
    its pieces.  Text is normalized one raw read at a time; a CR ending a
    read (after its blanks are dropped) is carried over, as it may be the
    first half of a CRLF, and flushed after the last read."""
    carry, pending = b"", b""
    for raw in chain(_raw_chunks(path), [b""]):  # no piece is empty but this last one
        end = not raw
        raw = carry + raw.translate(None, _BLANKS)
        carry = b"\r" if not end and raw.endswith(b"\r") else b""
        pending += _crlf(raw[:len(raw) - len(carry)])
        cut = len(pending) if end else len(pending) - len(pending) % _CHUNK
        yield from (pending[start:start + _CHUNK] for start in range(0, cut, _CHUNK))
        pending = pending[cut:]


def find_duplicates(paths: Iterable[Path | str],
                    errors: list[tuple[Path, OSError]] | None = None) -> list[DuplicateGroup]:
    """Group byte-identical files (after normalization) among ``paths``.

    Unreadable files, and anything but a regular file, are skipped and
    collected into ``errors`` when a list is supplied; the run never
    aborts.  A path to a file that an earlier path already names (a
    symlink or a hard link) is left out.
    Groups hold at least two members and are sorted by (size descending,
    first path); the result does not depend on input order.
    """
    if errors is None:
        errors = []
    buckets: dict[int, dict[Path, bool]] = {}  # each path and whether it is text
    seen: set = set()  # the identities of the files keyed so far
    for path in sorted({Path(p) for p in paths}, key=str):
        try:
            key, text, identity = _head_key(path)
        except OSError as exc:
            errors.append((path, exc))
            continue
        if identity not in seen:
            seen.add(identity)
            buckets.setdefault(key, {})[path] = text
    groups = [DuplicateGroup(tuple(members), size, digest)
              for bucket in buckets.values() if len(bucket) >= 2
              for members, size, digest in _identical_classes(bucket, errors)]
    groups.sort(key=lambda g: (-g.size, str(g.members[0])))
    return groups


def _identical_classes(bucket: dict[Path, bool],
                       errors: list[tuple[Path, OSError]]) -> list[tuple[list[Path], int, str]]:
    """Split a bucket, each path with its text verdict, into classes of
    identical normalized content, of two or more members each, with the
    size and MD5 of that content.  Pass 1 splits the text members into
    copy classes by raw chunks, unhashed; pass 2 splits these, read through
    one member's normalized chunks, and the binaries, each read raw once."""
    copies = [sum(classes, []) for classes, _, _ in
              _split([[path] for path in bucket if bucket[path]], _raw_chunks, errors)]
    copies += [[path] for path in bucket if not bucket[path]]
    return [(sorted(sum(classes, []), key=str), size, md5.hexdigest())
            for classes, size, md5 in _split(
                copies, lambda path: (_normalized_chunks if bucket[path] else _raw_chunks)(path),
                errors, hashlib.md5())
            if sum(map(len, classes)) >= 2]


def _split(copies: list[list[Path]], read: Callable[[Path], Iterator[bytes]],
           errors: list[tuple[Path, OSError]],
           md5: Any = None) -> list[tuple[list[list[Path]], int, Any]]:
    """Split ``copies``, lists of byte-identical paths, into classes of
    equal ``read`` chunks, reading one path of each list in lockstep; a
    class splits by the chunk its lists read.  A class of fewer than two
    paths is not read on; every other class is read to its end and comes
    with the size and running MD5 (when ``md5`` is given) of its chunks.
    """
    done = []
    reading = [([(paths, _first_readable(paths, read, errors)) for paths in copies], 0, md5)]
    while reading:
        streams, size, md5 = reading.pop()
        split: list[tuple[bytes | None, list[tuple[list[Path], Iterator[bytes]]]]] = []
        for paths, chunks in streams:
            chunk = next(chunks, None)
            if not paths:  # each of them failed and is reported
                continue
            same = next((members for seen, members in split if seen == chunk), None)
            if same is None:
                split.append((chunk, same := []))
            same.append((paths, chunks))
        for chunk, same in split:
            classes = [paths for paths, _ in same]
            if chunk is None or sum(map(len, classes)) < 2:
                done.append((classes, size, md5))
                continue
            running = md5.copy() if md5 is not None and len(split) > 1 else md5
            if running is not None:
                running.update(chunk)
            reading.append((same, size + len(chunk), running))
    return done


def _first_readable(paths: list[Path], read: Callable[[Path], Iterator[bytes]],
                    errors: list[tuple[Path, OSError]]) -> Iterator[bytes]:
    """The chunks ``read`` gives for ``paths[0]``.  A path that cannot be
    read is reported and dropped from ``paths``, and the next one, a
    byte-identical copy, goes on from the same chunk."""
    sent = 0
    while paths:
        try:
            for index, chunk in enumerate(read(paths[0])):
                if index == sent:
                    sent += 1
                    yield chunk
            return
        except OSError as exc:
            errors.append((paths.pop(0), exc))
