"""Result tables and their CSV/JSON emission.

Every table is an ordered header plus ordered rows; emission is
byte-stable, so two runs over the same tree write identical files.
Builders take already-computed analysis results and never touch disk.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import BinaryIO, Hashable, Iterable, NamedTuple, Sequence

from .bundles import (MESH_EXTENSIONS, NAME_TERMS, ContactMarkers, LicenseId, MeshInventory,
                      StructureClass)
from .compare import DiscrepancyReport
from .dedup import DuplicateGroup
from .validator import Diagnostic

__all__ = ["ReportTable", "emit", "write_tables"]

Cell = str | int | float | bool | None


class _Table(NamedTuple):
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]


class ReportTable(_Table):
    """A named table; each row has one cell per column, else ``ValueError``."""

    __slots__ = ()

    def __new__(cls, name: str, columns: tuple[str, ...],
                rows: tuple[tuple[Cell, ...], ...]) -> ReportTable:
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(
                    f"table '{name}': row of length {len(row)} "
                    f"does not match {len(columns)} columns")
        return super().__new__(cls, name, columns, rows)


def _csv_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(table: ReportTable, format: str, sink: BinaryIO) -> int:
    """Write one table as CSV (RFC 4180) or a JSON array of objects.

    Returns the number of bytes written; identical inputs always
    produce identical bytes.
    """
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_csv_cell(v) for v in row])
        text = buffer.getvalue()
    elif format == "json":
        objects = [dict(zip(table.columns, row)) for row in table.rows]
        text = json.dumps(objects, indent=2, ensure_ascii=False) + "\n"
    else:
        raise ValueError(f"unknown format {format!r}")
    payload = text.encode("utf-8", errors="backslashreplace")  # non-UTF-8 file names
    sink.write(payload)
    return len(payload)


def write_tables(tables: list[ReportTable], format: str, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for table in tables:
        path = out_dir / f"{table.name}.{format}"
        with path.open("wb") as fh:
            emit(table, format, fh)
        written.append(path)
    return written


# --------------------------------------------------------------------------
# Table builders.
# --------------------------------------------------------------------------


def _per_source_table(name: str, columns: Sequence[Hashable],
                       rows: Iterable[tuple[str, dict[Hashable, int]]]) -> ReportTable:
    """Per-source sums of the named counts, one row per source in sorted
    order, then a total row."""
    per_source: dict[str, dict[Hashable, int]] = {}
    for source, counts in rows:
        bucket = per_source.setdefault(source, dict.fromkeys(columns, 0))
        for column in columns:
            bucket[column] += counts.get(column, 0)
    out = [(source, *(per_source[source][c] for c in columns)) for source in sorted(per_source)]
    out.append(("total", *(sum(b[c] for b in per_source.values()) for c in columns)))
    return ReportTable(name, ("source", *columns), tuple(out))


def structures_table(rows: list[tuple[str, StructureClass]]) -> ReportTable:
    """Folder-structure counts per source, with a total row."""
    return _per_source_table("structures", [c.value for c in StructureClass],
                             ((source, {cls.value: 1}) for source, cls in rows))


def xacro_table(rows: list[tuple[str, bool, bool]]) -> ReportTable:
    """Cross-tab of the dataset's xacro flag against banner detection.

    Row input: (source, generated by the dataset authors, banner found).
    """
    columns = ("by_us_using_xacro", "by_others_using_xacro", "by_others_without_xacro")
    return _per_source_table(
        "xacro", columns,
        ((source, {columns[0 if by_dataset else 1 if banner else 2]: 1})
         for source, by_dataset, banner in rows))


def parsing_errors_table(rows: list[tuple[str, Diagnostic]]) -> ReportTable:
    """One row per diagnostic: {file, severity, code, subject, line, message}."""
    return ReportTable("parsing_errors", ("file", "severity", "code", "subject", "line", "message"),
                       tuple((file, d.severity, d.code, d.subject, d.line, d.message)
                             for file, d in rows))


def mesh_types_table(rows: list[tuple[str, MeshInventory]]) -> ReportTable:
    """Bundles per (source, usage, extension class); 'any' counts bundles
    with at least one mesh of that usage."""
    def present(inventory: MeshInventory) -> dict[tuple[str, str], int]:
        usages = (("visual", inventory.visual), ("collision", inventory.collision))
        return {(usage, ext): 1 for usage, mapping in usages if mapping for ext in (*mapping, "any")}

    keys = [(usage, ext) for usage in ("visual", "collision")
            for ext in (*MESH_EXTENSIONS, "other", "any")]
    wide = _per_source_table("mesh_types", keys,
                             ((source, present(inventory)) for source, inventory in rows))
    return ReportTable("mesh_types", ("source", "usage", "extension", "bundles"),
                       tuple((row[0], usage, ext, row[1 + i])
                             for i, (usage, ext) in enumerate(keys) for row in wide.rows))


def licenses_table(rows: list[tuple[str, LicenseId]]) -> ReportTable:
    return _per_source_table("licenses", [l.value for l in LicenseId],
                             ((source, {license_id.value: 1}) for source, license_id in rows))


def contact_table(markers: list[ContactMarkers]) -> ReportTable:
    rows = tuple((name, sum(getattr(m, name) for m in markers))
                 for name in ("author", "at_sign", "dot_com"))
    return ReportTable("contact", ("marker", "files"), rows)


def name_stats_table(rows: list[tuple[str, dict[str, int]]]) -> ReportTable:
    return _per_source_table("name_stats", NAME_TERMS, rows)


def model_stats_table(stats: dict[str, tuple[int, int]]) -> ReportTable:
    return ReportTable("model_stats", ("robot_type", "avg_links", "avg_joints"),
                       tuple((robot_type, *size) for robot_type, size in sorted(stats.items())))


def _member(root: Path, member: Path) -> tuple[str, str, str]:
    """A dedup member's path below ``root``, its source (the first path
    part; empty for a file directly in ``root``) and its lower-case extension."""
    rel = member.relative_to(root)
    return rel.as_posix(), rel.parts[0] if len(rel.parts) > 1 else "", rel.suffix.lstrip(".").lower()


def duplicates_table(root: Path, groups: list[DuplicateGroup]) -> ReportTable:
    rows = []
    for group_id, group in enumerate(groups):
        for member in group.members:
            path, source, ext = _member(root, member)
            rows.append((group_id, source, path, ext, group.size, group.digest))
    return ReportTable("duplicates",
                       ("group_id", "source", "path", "extension", "size", "digest"),
                       tuple(rows))


def duplicates_cross_source_table(root: Path, groups: list[DuplicateGroup]) -> ReportTable:
    """Per source and extension: files in groups spanning >= 2 sources."""
    extensions = ("urdf", *MESH_EXTENSIONS, "other")
    counts: dict[tuple[str, str], int] = {}
    sources: set[str] = set()
    for group in groups:
        members = [_member(root, m)[1:] for m in group.members]
        group_sources = {source for source, _ in members if source}
        sources |= group_sources
        if len(group_sources) < 2:
            continue
        for source, ext in members:
            if ext not in extensions:
                ext = "other"
            counts[(source, ext)] = counts.get((source, ext), 0) + 1
    return ReportTable("duplicates_cross_source", ("source", *extensions),
                       tuple((source, *(counts.get((source, ext), 0) for ext in extensions))
                             for source in sorted(sources)))


def discrepancies_table(rows: list[tuple[str, str, str, DiscrepancyReport]]) -> ReportTable:
    """Row input: (robot name, manufacturer, robot type, report)."""
    return ReportTable(
        "discrepancies", ("robot", "manufacturer", "type", "sources", "joints", "links",
                          "cad", "fk", "lines", "any", "any_excl_lines"),
        tuple((robot, manufacturer, robot_type, ";".join(report.sources),
               report.diff_joints, report.diff_links, report.diff_cad_types,
               "incomparable" if report.diff_fk is None else report.diff_fk,
               report.diff_lines, report.any, report.any_excl_lines)
              for robot, manufacturer, robot_type, report in rows))


def model_info_table(rows: list[tuple[str, object, MeshInventory]]) -> ReportTable:
    """Row input: (file, RobotModel, inventory); one output row per file."""
    return ReportTable(
        "model_info", ("file", "robot", "links", "joints", "link_names", "joint_names",
                       "visual_mesh_types", "collision_mesh_types"),
        tuple((file, model.name, len(model.links), len(model.joints),
               ";".join(model.link_names()), ";".join(model.joint_names()),
               ";".join(sorted(inventory.visual)), ";".join(sorted(inventory.collision)))
              for file, model, inventory in rows))
