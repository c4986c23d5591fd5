"""Every read and listing of a dataset checkout, by one set of rules.

Every file is read by one call, ``read(path, offset, size)``: it opens,
reads and closes the file, and returns the stat it took with the bytes.
Only regular files are read: anything else fails at once, so a named
pipe cannot block a run.  No hidden directory (``.*``) and no linked one
is entered, at the corpus root as below it; a linked one is listed and
named instead.  Each directory that cannot be listed or is linked is
named once per run on stderr, as ``warning: cannot list DIR: REASON``;
an ``OSError``'s reason is its ``strerror``, else its message.
"""

from __future__ import annotations

import bisect
import errno
import fnmatch
import os
import stat
import sys
from pathlib import Path
from typing import Iterable, NamedTuple


def reason(exc: OSError) -> str:
    return exc.strerror or str(exc)


def warn_unlistable(exc: OSError) -> None:
    print(f"warning: cannot list {exc.filename}: {reason(exc)}", file=sys.stderr)


def warn_skipped(skipped: Iterable[OSError]) -> None:
    """Name each directory in ``skipped`` once, however the walks that met it spelled it."""
    for exc in {os.path.normpath(e.filename): e for e in skipped}.values():
        warn_unlistable(exc)


def read(path: Path | str, offset: int = 0, size: int = -1) -> tuple[os.stat_result, bytes]:
    """The stat of the regular file at ``path`` and its ``size`` bytes from
    ``offset`` on, or all of them when ``size`` is negative; fewer only
    where the file ends.  Anything but a regular file is an ``OSError`` at
    once: opening or reading a named pipe could block, and a socket cannot
    be opened (ENXIO).  The file is closed before this returns."""
    nonblocking = getattr(os, "O_NONBLOCK", 0)  # a POSIX flag
    try:
        fh = open(path, "rb", opener=lambda name, flags: os.open(name, flags | nonblocking))
    except OSError as exc:
        raise OSError("not a regular file") if exc.errno == errno.ENXIO else exc
    with fh:  # buffered: its read returns short only at the end of the file
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise OSError("not a regular file")
        fh.seek(offset)
        left = max(0, st.st_size - offset)  # asked for no more: a read allocates all it asks for
        return st, fh.read(left if size < 0 else min(size, left))


def _entered(top: str, dirs: list[str], onerror) -> list[str]:
    """The names among ``dirs``, directories in ``top``, that are entered:
    not hidden ones, nor linked ones, each named to ``onerror``."""
    entered = [d for d in dirs if not d.startswith(".")]
    for link in [d for d in entered if os.path.islink(os.path.join(top, d))]:
        onerror(OSError(None, "linked directory, not followed", os.path.join(top, link)))
        entered.remove(link)
    return entered


class Listing(NamedTuple):
    """Path strings below a directory, in ``str`` order, and every directory listed."""

    paths: list[str]
    dirs: set[str]

    def below(self, directory: str) -> list[str]:
        """The slice of ``paths`` below ``directory``: those starting with it and a separator."""
        start = bisect.bisect_left(self.paths, directory + os.sep)
        return self.paths[start:bisect.bisect_left(self.paths, directory + chr(ord(os.sep) + 1))]


def walk(base: Path | str, pattern: str = "*", errors: list[OSError] | None = None) -> Listing:
    """The files and directories below ``base`` whose name matches
    ``pattern``, spelled as ``Path`` spells them, but no hidden one; only
    what ``_entered`` enters is entered, though a linked directory is listed.
    Each directory that cannot be listed or is linked gives an ``OSError``
    naming it, appended to ``errors``, or named on stderr if ``errors`` is None."""
    listing = Listing([], set())
    onerror = warn_unlistable if errors is None else errors.append
    cut = len(os.curdir + os.sep) if os.fspath(base) == os.curdir else 0  # "./x" is Path's "x"
    # links are pruned below, which spares os.walk its own link test of each directory
    for top, dirs, files in os.walk(base, onerror=onerror, followlinks=True):
        top = top[cut:]
        listing.dirs.update(os.path.join(top, name) for name in dirs if not name.startswith("."))
        listing.paths.extend(os.path.join(top, name) for name in
                             fnmatch.filter(dirs + files, pattern) if not name.startswith("."))
        dirs[:] = _entered(top, dirs, onerror)
    listing.paths.sort()
    return listing


def corpus_root(root: Path | str) -> Path:
    """The directory holding the sources: ``root``, or its ``urdf_files/``
    when there is one.  Raises for a root that is not a directory."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    return root / "urdf_files" if (root / "urdf_files").is_dir() else root


def sources(root: Path, errors: list[OSError] | None = None) -> list[Path]:
    """The directories in ``root`` that ``_entered`` enters, in path order,
    the others named as ``walk`` names them."""
    names = [name for name in os.listdir(root) if (root / name).is_dir()]
    return sorted(root / name for name in
                  _entered(str(root), names, warn_unlistable if errors is None else errors.append))
