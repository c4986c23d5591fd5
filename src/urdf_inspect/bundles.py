"""Dataset ingestion and per-bundle analyses.

A corpus root holds one directory per source; each source describes its
robots with ``source-information.json`` and per-bundle
``meta-information.json`` files.  A bundle is the directory holding a
meta file plus the URDF and mesh files it describes.

Every file is read, and every directory listed, by the rules of ``_fs``.
``scan_corpus`` walks each source twice; one more ``_fs.walk`` of the
corpus root is all ``classify_structure`` and ``detect_license`` read of disk.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import _fs
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
SOURCE_INFO, META_INFO = "source-information.json", "meta-information.json"  # the metadata files


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
    source_path: Path = Path()  # root_dir below its source's directory

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
        return json.loads(_fs.read(path)[1].decode("utf-8", errors="replace"))
    except (OSError, ValueError, RecursionError):
        return None


def _text(value, default: str) -> str:
    """``value`` when it is a non-empty string, else ``default``."""
    return value if isinstance(value, str) and value else default


def _record(source: tuple[str, str, Path], bundle_dir: Path, urdf_path: Path, entry: dict,
            fallback_id: str, *notices: str) -> BundleRecord:
    """The record of one URDF; ``source`` is the source's (name, URL, directory)
    and ``entry`` its meta entry, ``{}`` when none describes it."""
    source_name, source_url, source_dir = source
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
        source_path=bundle_dir.relative_to(source_dir),
    )


def scan_corpus(root: Path | str, errors: list[OSError] | None = None) -> list[BundleRecord]:
    """Walk a corpus tree and return one record per described URDF.

    Missing or broken metadata degrades to records with notices, never
    to failures; only an unreadable root raises, and a directory below
    it that cannot be listed is reported as ``_fs.walk`` reports it.  A
    metadata text value (name, type, manufacturer, id, URDF location,
    URL) counts only when it is a non-empty string, and the xacro flag
    only when it is a boolean; anything else reads as a missing key, the
    flag as false.  Sources and files are found by the rules of ``_fs``,
    so a hidden or linked source gives no record.  Output is ordered by
    (source, id, urdf path) and stable.
    """
    records: list[BundleRecord] = []
    for source_dir in _fs.sources(_fs.corpus_root(root), errors):
        info = _load_json(source_dir / SOURCE_INFO)
        info = info if isinstance(info, dict) else {}
        source = (_text(info.get("name"), source_dir.name), _meta(info, "url", ""), source_dir)

        described: set[str] = set()  # real paths: a symlink loop has one, where resolve() raises
        source_records: list[BundleRecord] = []
        meta_paths = _fs.walk(source_dir, META_INFO, errors).paths
        for meta_path in sorted(map(Path, meta_paths)):
            bundle_dir = meta_path.parent
            data = _load_json(meta_path)
            entries = [e for e in (data if isinstance(data, list) else [data]) if isinstance(e, dict)]
            if not entries:
                source_records.append(_record(source, bundle_dir, Path(), {},
                                              str(bundle_dir.relative_to(source_dir)),
                                              f"unreadable {META_INFO}"))
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

        for urdf in sorted(map(Path, _fs.walk(source_dir, "*.urdf", errors).paths)):
            if os.path.realpath(urdf) not in described:
                source_records.append(_record(source, urdf.parent, Path(urdf.name), {},
                                              str(urdf.relative_to(source_dir)),
                                              f"no {META_INFO} describes this file"))

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


def _has_layout(bundle_dir: Path, urdf_folder: str, listing: _fs.Listing) -> bool:
    folder = os.path.join(bundle_dir, urdf_folder)
    return ({folder, os.path.join(bundle_dir, "meshes")} <= listing.dirs
            and any(path.endswith(".urdf") for path in listing.below(folder)))


def classify_structure(bundle_dir: Path | str,
                       listing: _fs.Listing | None = None) -> StructureClass:
    """Assign exactly one folder-structure class to a bundle directory.

    Checks run in order of specificity D, C, B, A; anything else is
    Other.  A directory whose name suggests one class but whose URDF
    location matches a more specific one takes the more specific class.
    The layout is looked up in ``listing``, a ``_fs.walk`` that holds the
    bundle directory, or in a walk of the directory itself, which names
    what it skips on stderr.  A linked layout folder is not entered.
    """
    bundle_dir = Path(bundle_dir)
    name, listing = bundle_dir.name, listing or _fs.walk(bundle_dir)
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


def detect_license(bundle_dir: Path | str, listing: _fs.Listing | None = None) -> LicenseId:
    """Fingerprint LICENSE/COPYING-style files under a bundle directory, in
    ``str`` order, skipping what ``_fs.read`` cannot read.  They are
    looked up as ``classify_structure`` looks up a layout."""
    bundle_dir = Path(bundle_dir)
    paths = _fs.walk(bundle_dir).paths if listing is None else listing.below(str(bundle_dir))
    for path in (p for p in paths if _LICENSE_FILE.match(os.path.basename(p))):
        try:
            text = _fs.read(path)[1].decode("utf-8", errors="replace")
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
        if robot_type:
            groups.setdefault(robot_type, []).append((links, joints))
    return {robot_type: tuple(int(sum(column) / len(counts) + 0.5) for column in zip(*counts))
            for robot_type, counts in groups.items()}
