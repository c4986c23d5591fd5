"""Dataset ingestion and per-bundle analyses.

A corpus root holds one directory per source; each source describes its
robots with ``source-information.json`` and per-bundle
``meta-information.json`` files.  A bundle is the directory holding a
meta file plus the URDF and mesh files it describes.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .model import _LINE_BREAK, Mesh, RobotModel

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
    "resolve_mesh_uri",
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
    try:
        return json.loads(path.read_text(encoding="utf-8", errors="replace"))
    except (OSError, json.JSONDecodeError):
        return None


def _text(value, default: str) -> str:
    """``value`` when it is a non-empty string, else ``default``."""
    return value if isinstance(value, str) and value else default


def _warn_unlistable(exc: OSError) -> None:
    print(f"warning: cannot list {exc.filename}: {exc.strerror or exc}", file=sys.stderr)


def _walk(base: Path, pattern: str = "*") -> list[Path]:
    """Files and directories below ``base`` whose name matches ``pattern``, in
    path order.  Hidden ones (named ``.*``) are left out and never entered; a
    directory that cannot be listed is named on stderr and contributes nothing."""
    found: list[Path] = []
    for top, dirs, files in os.walk(base, onerror=_warn_unlistable):
        dirs[:] = [d for d in dirs if not d.startswith(".")]
        found += [Path(top, name) for name in fnmatch.filter(dirs + files, pattern)
                  if not name.startswith(".")]
    return sorted(found)


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


def scan_corpus(root: Path | str) -> list[BundleRecord]:
    """Walk a corpus tree and return one record per described URDF.

    Missing or broken metadata degrades to records with notices, never
    to failures; only an unreadable root raises.  A metadata text value
    (name, type, manufacturer, id, URDF location, URL) counts only when
    it is a non-empty string, and the xacro flag only when it is a
    boolean; anything else reads as a missing key, the flag as false.
    Hidden entries (a name starting with a dot) are skipped.  Output is
    ordered by (source, id, urdf path) and stable across runs.
    """
    root = _corpus_root(root)
    records: list[BundleRecord] = []
    for source_dir in sorted(p for p in root.iterdir() if not p.name.startswith(".") and p.is_dir()):
        info = _load_json(source_dir / "source-information.json")
        info = info if isinstance(info, dict) else {}
        source = (_text(info.get("name"), source_dir.name), _meta(info, "url", ""))

        described: set[Path] = set()
        source_records: list[BundleRecord] = []
        for meta_path in _walk(source_dir, "meta-information.json"):
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
                elif not (bundle_dir / rel).is_file():
                    notices.append(f"described URDF '{rel}' not found on disk")
                else:
                    described.add((bundle_dir / rel).resolve())
                source_records.append(_record(source, bundle_dir, Path(rel), entry, "", *notices))

        for urdf in _walk(source_dir, "*.urdf"):
            if urdf.resolve() not in described:
                source_records.append(_record(source, urdf.parent, Path(urdf.name), {},
                                              str(urdf.relative_to(source_dir)),
                                              "no meta-information.json describes this file"))

        ids = [r.id for r in source_records if r.id]
        dup_ids = {i for i in ids if ids.count(i) > 1}
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


def _has_layout(bundle_dir: Path, urdf_folder: str) -> bool:
    folder = bundle_dir / urdf_folder
    if not folder.is_dir() or not (bundle_dir / "meshes").is_dir():
        return False
    return bool(_walk(folder, "*.urdf"))


def classify_structure(bundle_dir: Path | str) -> StructureClass:
    """Assign exactly one folder-structure class to a bundle directory.

    Checks run in order of specificity D, C, B, A; anything else is
    Other.  A directory whose name suggests one class but whose URDF
    location matches a more specific one takes the more specific class.
    """
    bundle_dir = Path(bundle_dir)
    name = bundle_dir.name
    if name.endswith("visualization") and _has_layout(bundle_dir, "urdf"):
        return StructureClass.D
    if name.endswith("_description") and _has_layout(bundle_dir, "robots"):
        return StructureClass.C
    if _SUPPORT_NAME.fullmatch(name) and _has_layout(bundle_dir, "urdf"):
        return StructureClass.B
    if name.endswith("_description") and _has_layout(bundle_dir, "urdf"):
        return StructureClass.A
    return StructureClass.OTHER


# --------------------------------------------------------------------------
# Per-file analyses.
# --------------------------------------------------------------------------

_COMMENT = re.compile(r"<!--(.*?)(?:-->|\Z)", re.DOTALL)


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


def resolve_mesh_uri(bundle_dir: Path | str, uri: str) -> Path | None:
    """Locate a referenced mesh file on disk, or None if it is missing.

    ``package://<pkg>/...`` URIs resolve by dropping the scheme and
    package segment and joining the rest to the bundle directory;
    plain relative paths join directly.  Inventory counting never
    depends on this: a dangling reference still counts by extension.
    """
    bundle_dir = Path(bundle_dir)
    path = uri.replace("\\", "/")
    if path.startswith("package://"):
        path = path[len("package://"):]
        path = path.split("/", 1)[1] if "/" in path else ""
    elif path.startswith("file://"):
        path = path[len("file://"):]
    candidate = (bundle_dir / path) if path else None
    if candidate is not None and candidate.is_file():
        return candidate
    return None


def mesh_inventory(model: RobotModel) -> MeshInventory:
    """Count mesh references by extension class, split by usage."""
    visual: dict[str, int] = {}
    collision: dict[str, int] = {}
    for link in model.links:
        for vis in link.visuals:
            if isinstance(vis.geometry, Mesh):
                ext = _extension_class(vis.geometry.uri)
                visual[ext] = visual.get(ext, 0) + 1
        for col in link.collisions:
            if isinstance(col.geometry, Mesh):
                ext = _extension_class(col.geometry.uri)
                collision[ext] = collision.get(ext, 0) + 1
    return MeshInventory(visual=visual, collision=collision)


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


def detect_license(bundle_dir: Path | str) -> LicenseId:
    """Fingerprint LICENSE/COPYING-style files under a bundle directory,
    skipping hidden entries."""
    bundle_dir = Path(bundle_dir)
    candidates = sorted((p for p in _walk(bundle_dir) if _LICENSE_FILE.match(p.name) and p.is_file()),
                        key=str)
    for path in candidates:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
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


def model_stats(records: list[tuple[BundleRecord, RobotModel]]) -> dict[str, tuple[int, int]]:
    """Mean link and joint counts per robot type, rounded half-up."""
    groups: dict[str, list[tuple[int, int]]] = {}
    for record, model in records:
        if not record.robot_type:
            continue
        groups.setdefault(record.robot_type, []).append((len(model.links), len(model.joints)))
    out: dict[str, tuple[int, int]] = {}
    for robot_type, counts in groups.items():
        n = len(counts)
        mean_links = sum(c[0] for c in counts) / n
        mean_joints = sum(c[1] for c in counts) / n
        out[robot_type] = (int(mean_links + 0.5), int(mean_joints + 0.5))
    return out
