"""Dataset ingestion and per-bundle analyses.

A corpus root holds one directory per source; each source describes its
robots with ``source-information.json`` and per-bundle
``meta-information.json`` files.  A bundle is the directory holding a
meta file plus the URDF and mesh files it describes.

One rule, ``_entered``, picks the directories entered, the sources and
each level of ``_walk`` alike: no hidden one (named ``.*``) and no linked
one, which is named instead.  Every file is read through ``dedup._open``.
``scan_corpus`` walks each source twice; one more ``_walk`` of the corpus
root is all ``classify_structure`` and ``detect_license`` read of disk.
"""

from __future__ import annotations

import bisect
import fnmatch
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import dedup
from .model import Mesh, RobotModel

__all__ = [
    "BundleRecord",
    "StructureClass",
    "MeshInventory",
    "LicenseId",
    "ContactMarkers",
    "scan_corpus",
    "classify_structure",
    "detect_xacro_generated",
    "mesh_inventory",
    "detect_license",
    "contact_markers",
    "name_substring_stats",
    "model_stats",
]

MESH_EXTENSIONS = ("stl", "dae", "obj")


@dataclass(frozen=True)
class BundleRecord:
    """One URDF bundle on disk plus its dataset metadata."""

    id: str
    robot_name: str
    robot_type: str
    manufacturer: str
    source_name: str
    source_url: str
    urdf_path: Path  # relative to root_dir
    xacro_generated_by_dataset: bool
    root_dir: Path
    notices: tuple[str, ...] = ()

    @property
    def urdf_file(self) -> Path:
        return self.root_dir / self.urdf_path


class StructureClass(Enum):
    A = "A"  # <robot>_description/{urdf/, meshes/}
    B = "B"  # <manufacturer>_<robot>_support/{urdf/, meshes/}
    C = "C"  # <robot>_description/{robots/, meshes/}
    D = "D"  # <robot>_visualization/{urdf/, meshes/}
    OTHER = "Other"


@dataclass(frozen=True)
class MeshInventory:
    """Mesh reference counts per usage, keyed by extension class."""

    visual: dict[str, int]
    collision: dict[str, int]

    @property
    def has_visual_meshes(self) -> bool:
        return bool(self.visual)

    @property
    def has_collision_meshes(self) -> bool:
        return bool(self.collision)


class LicenseId(Enum):
    APACHE_2 = "Apache-2.0"
    BSD_3 = "BSD-3-Clause"
    BSD_2 = "BSD-2-Clause"
    MIT = "MIT"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ContactMarkers:
    author: bool
    at_sign: bool
    dot_com: bool


# --------------------------------------------------------------------------
# Corpus scanning.
# --------------------------------------------------------------------------

# Metadata key synonyms, most canonical first; source-information.json's
# URL is read with the same "url" aliases.
_META_ALIASES = {
    "name": ("name", "robot-name", "robot_name"),
    "type": ("type", "robot-type", "robot_type", "category"),
    "manufacturer": ("manufacturer", "vendor"),
    "urdf": ("urdf-location", "urdf_location", "urdf-file", "urdf_file", "location", "urdf"),
    "id": ("id", "ID", "uuid"),
    "url": ("source-url", "source_url", "url"),
    "xacro": ("xacro-generated", "xacro_generated", "xacro"),
}


def _meta(data: dict, key: str, default):
    """The value of the first alias of ``key`` that holds a value of
    ``default``'s type (a string only when non-empty), else ``default``."""
    for alias in _META_ALIASES[key]:
        value = data.get(alias)
        if isinstance(value, type(default)) and value != "":
            return value
    return default


def _load_json(path: Path):
    """The JSON value of a regular file; None when there is none to read,
    also when it nests too deep or holds a number too long to convert."""
    try:
        with dedup._open(path) as fh:
            return json.loads(fh.read().decode("utf-8", errors="replace"))
    except (OSError, ValueError, RecursionError):
        return None


def _text(value, default: str) -> str:
    """``value`` when it is a non-empty string, else ``default``."""
    return value if isinstance(value, str) and value else default


def _warn_unlistable(exc: OSError) -> None:
    print(f"warning: cannot list {exc.filename}: {exc.strerror or exc}", file=sys.stderr)


def _entered(top: str, dirs: list[str], onerror) -> list[str]:
    """The names among ``dirs``, directories in ``top``, that are entered:
    not hidden ones, nor linked ones, each named to ``onerror``."""
    entered = [d for d in dirs if not d.startswith(".")]
    for link in [d for d in entered if os.path.islink(os.path.join(top, d))]:
        onerror(OSError(None, "linked directory, not followed", os.path.join(top, link)))
        entered.remove(link)
    return entered


@dataclass(frozen=True)
class _Listing:
    """Path strings below a directory, in ``str`` order, and every directory listed."""

    paths: list[str]
    dirs: set[str]

    def below(self, directory: str) -> list[str]:
        """The slice of ``paths`` below ``directory``: those starting with it and a separator."""
        start = bisect.bisect_left(self.paths, directory + os.sep)
        return self.paths[start:bisect.bisect_left(self.paths, directory + chr(ord(os.sep) + 1))]


def _walk(base: Path, pattern: str = "*", errors: list[OSError] | None = None) -> _Listing:
    """The files and directories below ``base`` whose name matches
    ``pattern``, spelled as ``Path`` spells them, but no hidden one; only
    what ``_entered`` enters is entered, though a linked directory is listed.
    Each directory that cannot be listed or is linked gives an ``OSError``
    naming it, appended to ``errors``, or named on stderr if ``errors`` is None."""
    listing = _Listing([], set())
    onerror = _warn_unlistable if errors is None else errors.append
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


def _corpus_root(root: Path | str) -> Path:
    """The directory holding the sources: ``root``, or its ``urdf_files/``
    when there is one.  Raises for a root that is not a directory."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    return root / "urdf_files" if (root / "urdf_files").is_dir() else root


def _record(source: tuple[str, str], bundle_dir: Path, urdf_path: Path, entry: dict,
            fallback_id: str, *notices: str) -> BundleRecord:
    """The record of one URDF; ``source`` is the source's (name, URL) and
    ``entry`` its meta entry, ``{}`` when none describes it."""
    source_name, source_url = source
    return BundleRecord(
        id=_meta(entry, "id", fallback_id),
        robot_name=_meta(entry, "name", ""),
        robot_type=_meta(entry, "type", ""),
        manufacturer=_meta(entry, "manufacturer", ""),
        source_name=source_name,
        source_url=_meta(entry, "url", source_url),
        urdf_path=urdf_path,
        xacro_generated_by_dataset=_meta(entry, "xacro", False),
        root_dir=bundle_dir,
        notices=notices,
    )


def scan_corpus(root: Path | str, errors: list[OSError] | None = None) -> list[BundleRecord]:
    """Walk a corpus tree and return one record per described URDF.

    Missing or broken metadata degrades to records with notices, never
    to failures; only an unreadable root raises, and a directory below
    it that cannot be listed is reported as ``_walk`` reports it.  A
    metadata text value (name, type, manufacturer, id, URDF location,
    URL) counts only when it is a non-empty string, and the xacro flag
    only when it is a boolean; anything else reads as a missing key, the
    flag as false.
    The sources are the directories ``_entered`` enters, so a linked one
    gives no record.  Hidden entries (a name starting with a dot) are
    skipped.  Output is ordered by (source, id, urdf path) and stable.
    """
    root = _corpus_root(root)
    records: list[BundleRecord] = []
    sources = _entered(str(root), [p.name for p in root.iterdir() if p.is_dir()],
                       _warn_unlistable if errors is None else errors.append)
    for source_dir in sorted(root / name for name in sources):
        info = _load_json(source_dir / "source-information.json")
        info = info if isinstance(info, dict) else {}
        source = (_text(info.get("name"), source_dir.name), _meta(info, "url", ""))

        described: set[str] = set()  # real paths: a symlink loop has one, where resolve() raises
        source_records: list[BundleRecord] = []
        for meta_path in sorted(map(Path, _walk(source_dir, "meta-information.json", errors).paths)):
            bundle_dir = meta_path.parent
            data = _load_json(meta_path)
            entries = [e for e in (data if isinstance(data, list) else [data]) if isinstance(e, dict)]
            if not entries:
                source_records.append(_record(source, bundle_dir, Path(), {},
                                              str(bundle_dir.relative_to(source_dir)),
                                              "unreadable meta-information.json"))
            for entry in entries:
                rel = _meta(entry, "urdf", "")
                notices = []
                if not rel:
                    notices.append("metadata gives no URDF location")
                elif not os.path.lexists(bundle_dir / rel):
                    notices.append(f"described URDF '{rel}' not found on disk")
                else:  # even when not a regular file or a dangling link: reading it gives the F row
                    described.add(os.path.realpath(bundle_dir / rel))
                source_records.append(_record(source, bundle_dir, Path(rel), entry, "", *notices))

        for urdf in sorted(map(Path, _walk(source_dir, "*.urdf", errors).paths)):
            if os.path.realpath(urdf) not in described:
                source_records.append(_record(source, urdf.parent, Path(urdf.name), {},
                                              str(urdf.relative_to(source_dir)),
                                              "no meta-information.json describes this file"))

        dup_ids = {i for i, n in Counter(r.id for r in source_records if r.id).items() if n > 1}
        if dup_ids:
            source_records = [
                replace(r, notices=r.notices + (f"id '{r.id}' is not unique within source",))
                if r.id in dup_ids else r
                for r in source_records
            ]
        source_records.sort(key=lambda r: (r.id, str(r.urdf_path)))
        records.extend(source_records)
    return records


# --------------------------------------------------------------------------
# Folder structure classification.
# --------------------------------------------------------------------------

_SUPPORT_NAME = re.compile(r".+_.+_support")


def _has_layout(bundle_dir: Path, urdf_folder: str, listing: _Listing) -> bool:
    folder = os.path.join(bundle_dir, urdf_folder)
    return ({folder, os.path.join(bundle_dir, "meshes")} <= listing.dirs
            and any(path.endswith(".urdf") for path in listing.below(folder)))


def classify_structure(bundle_dir: Path | str, listing: _Listing | None = None) -> StructureClass:
    """Assign exactly one folder-structure class to a bundle directory.

    Checks run in order of specificity D, C, B, A; anything else is
    Other.  A directory whose name suggests one class but whose URDF
    location matches a more specific one takes the more specific class.
    The layout is looked up in ``listing``, a ``_walk`` that holds the
    bundle directory, or in a walk of the directory itself, which names
    what it skips on stderr.  A linked layout folder is not entered.
    """
    bundle_dir = Path(bundle_dir)
    name, listing = bundle_dir.name, listing or _walk(bundle_dir)
    classes = ((StructureClass.D, name.endswith("visualization"), "urdf"),
               (StructureClass.C, name.endswith("_description"), "robots"),
               (StructureClass.B, _SUPPORT_NAME.fullmatch(name), "urdf"),
               (StructureClass.A, name.endswith("_description"), "urdf"))
    return next((cls for cls, named, folder in classes
                 if named and _has_layout(bundle_dir, folder, listing)), StructureClass.OTHER)


# --------------------------------------------------------------------------
# Per-file analyses.
# --------------------------------------------------------------------------

_COMMENT = re.compile(r"<!--(.*?)(?:-->|\Z)", re.DOTALL)
_LINE_BREAK = re.compile(r"\r\n|\r|\n")  # the line breaks of model.line_count


def detect_xacro_generated(urdf_text: str) -> bool:
    """True iff a comment within the first ten lines mentions xacro.

    The xacro preprocessor stamps its output with a banner comment
    ("autogenerated by xacro ..."); hand-written files carry no such
    header.  Element attributes like xmlns:xacro do not count.
    """
    head = "\n".join(_LINE_BREAK.split(urdf_text, 10)[:10])
    return any("xacro" in m.group(1).lower() for m in _COMMENT.finditer(head))


def _extension_class(uri: str) -> str:
    tail = uri.replace("\\", "/").rsplit("/", 1)[-1]
    if "." not in tail:
        return "other"
    ext = tail.rsplit(".", 1)[-1].lower()
    return ext if ext in MESH_EXTENSIONS else "other"


def mesh_inventory(model: RobotModel) -> MeshInventory:
    """Count mesh references by extension class, split by usage."""
    def count(usage: str) -> dict[str, int]:
        return dict(Counter(_extension_class(e.geometry.uri) for link in model.links
                            for e in getattr(link, usage) if isinstance(e.geometry, Mesh)))
    return MeshInventory(visual=count("visuals"), collision=count("collisions"))


_LICENSE_FILE = re.compile(r"(license|licence|copying)", re.IGNORECASE)


def _normalize_license_text(text: str) -> str:
    return re.sub(r"\s+", " ", text.replace(",", " ")).lower()


def _fingerprint(text: str) -> LicenseId | None:
    if "apache license" in text and "version 2.0" in text:
        return LicenseId.APACHE_2
    if "redistribution and use in source and binary forms" in text:
        return LicenseId.BSD_3 if "neither the name" in text else LicenseId.BSD_2
    if "permission is hereby granted free of charge" in text:
        return LicenseId.MIT
    return None


def detect_license(bundle_dir: Path | str, listing: _Listing | None = None) -> LicenseId:
    """Fingerprint LICENSE/COPYING-style files under a bundle directory, in
    ``str`` order, skipping what ``dedup._open`` cannot open.  They are
    looked up as ``classify_structure`` looks up a layout."""
    bundle_dir = Path(bundle_dir)
    paths = _walk(bundle_dir).paths if listing is None else listing.below(str(bundle_dir))
    for path in (p for p in paths if _LICENSE_FILE.match(os.path.basename(p))):
        try:
            with dedup._open(path) as fh:
                text = fh.read().decode("utf-8", errors="replace")
        except OSError:
            continue
        found = _fingerprint(_normalize_license_text(text))
        if found is not None:
            return found
    return LicenseId.UNKNOWN


def contact_markers(urdf_text: str) -> ContactMarkers:
    """Case-insensitive substring flags for author contact hints."""
    lower = urdf_text.lower()
    return ContactMarkers(author="author" in lower,
                          at_sign="@" in urdf_text,
                          dot_com=".com" in lower)


# The name terms of the name_stats table: a fixed root or tool frame.
NAME_TERMS = ("world", "flange")


def name_substring_stats(model: RobotModel, terms: Sequence[str]) -> dict[str, int]:
    """Count joints plus links whose name contains each term."""
    names = [n.lower() for n in model.link_names() + model.joint_names()]
    return {term: sum(term.lower() in name for name in names) for term in terms}


def model_stats(rows: list[tuple[str, int, int]]) -> dict[str, tuple[int, int]]:
    """Mean link and joint counts per robot type, rounded half-up.

    Row input: (robot type, link count, joint count) of one parsed
    bundle; a bundle with no robot type counts towards no mean.
    """
    groups: dict[str, list[tuple[int, int]]] = {}
    for robot_type, links, joints in rows:
        if not robot_type:
            continue
        groups.setdefault(robot_type, []).append((links, joints))
    out: dict[str, tuple[int, int]] = {}
    for robot_type, counts in groups.items():
        n = len(counts)
        mean_links = sum(c[0] for c in counts) / n
        mean_joints = sum(c[1] for c in counts) / n
        out[robot_type] = (int(mean_links + 0.5), int(mean_joints + 0.5))
    return out
