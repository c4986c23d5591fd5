"""Check the CSV tables of one CLI run against a corpus manifest.

A unit is what one workload is about: a bundle (``scan_mixed``), a
multiply defined robot (``compare_fk``) or a file (``dupes_meshes``).  A
unit fails when any of its facts in the tables disagrees with the
manifest:

- per-file error codes (``parsing_errors``);
- structure, license, xacro and mesh-type values (per-source count tables);
- duplicate-group membership, normalized size and digest (``duplicates``);
- cross-source duplicate counts (``duplicates_cross_source``);
- the discrepancy flags of the unit's robot (``discrepancies``).

Count tables cannot name the unit behind a wrong count, so a source whose
count row differs adds the fewest units that explain the difference:
half the L1 distance between the expected and emitted row, rounded up.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

COMMANDS = {"scan_mixed": "scan", "compare_fk": "compare", "dupes_meshes": "dupes"}
TABLES = {
    "scan": ("structures", "xacro", "parsing_errors", "mesh_types", "duplicates",
             "duplicates_cross_source", "discrepancies", "licenses", "contact",
             "name_stats", "model_stats"),
    "compare": ("discrepancies",),
    "dupes": ("duplicates", "duplicates_cross_source"),
}
STRUCTURES = ("A", "B", "C", "D", "Other")
LICENSES = ("Apache-2.0", "BSD-3-Clause", "BSD-2-Clause", "MIT", "Unknown")
MESH_EXTS = ("stl", "dae", "obj", "other", "any")
DUP_EXTS = ("urdf", "stl", "dae", "obj", "other")
DISCREPANCY_COLUMNS = ("robot", "manufacturer", "type", "sources", "joints", "links", "cad",
                       "fk", "lines", "any", "any_excl_lines")
MIB = float(1 << 20)


@dataclass
class CheckResult:
    units: int
    failed: set[str] = field(default_factory=set)
    extra_failed: int = 0  # units charged by count tables, not named
    problems: list[str] = field(default_factory=list)

    @property
    def failed_count(self) -> int:
        return min(self.units, len(self.failed) + self.extra_failed)


def read_tables(out_dir: Path) -> dict[str, bytes]:
    return {p.stem: p.read_bytes() for p in sorted(Path(out_dir).glob("*.csv"))}


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))


def missing_tables(workload: str, tables: dict[str, bytes]) -> list[str]:
    return [name for name in TABLES[COMMANDS[workload]] if name not in tables]


def unit_count(manifest: dict) -> int:
    workload = manifest["workload"]
    if workload == "compare_fk":
        return len(manifest["robots"])
    if workload == "dupes_meshes":
        return len(manifest["files"])
    return len(manifest["bundles"])


def check_tables(manifest: dict, tables: dict[str, bytes]) -> CheckResult:
    workload = manifest["workload"]
    missing = missing_tables(workload, tables)
    result = CheckResult(units=unit_count(manifest))
    if missing:
        result.problems.append(f"missing tables: {', '.join(missing)}")
        result.extra_failed = result.units
        return result

    if workload == "compare_fk":
        for key in _discrepancy_mismatches(manifest, tables["discrepancies"], result):
            result.failed.add(key)
        return result

    if workload == "dupes_meshes":
        result.failed |= _duplicate_mismatches(manifest, tables["duplicates"], result)
        per_source: dict[str, int] = {}
        for rel in manifest["files"]:
            source = rel.split("/", 1)[0]
            per_source[source] = per_source.get(source, 0) + 1
        _charge_counts(result, per_source, [
            _count_mismatch("duplicates_cross_source", _expected_cross_source(manifest),
                            tables["duplicates_cross_source"], result)])
        return result

    bundles = manifest["bundles"]
    unit_of_dir = {b["dir"]: f"{b['source']}/{b['id']}" for b in bundles}
    failed = result.failed
    # per-file error codes
    emitted: dict[str, list[tuple[str, str]]] = {}
    for row in _rows(tables["parsing_errors"]):
        emitted.setdefault(row["file"], []).append((row["severity"], row["code"]))
    units = set(unit_of_dir.values())
    for b in bundles:
        unit = f"{b['source']}/{b['id']}"
        expected = sorted(("error", code) for code in b["errors"])
        if sorted(emitted.get(unit, [])) != expected:
            failed.add(unit)
            result.problems.append(f"{unit}: error codes {sorted(emitted.get(unit, []))} "
                                   f"!= {expected}")
    for file in sorted(set(emitted) - units):
        result.problems.append(f"parsing_errors names unknown file {file}")
        result.extra_failed += 1
    # duplicate groups, charged to the bundle holding each wrong file
    for rel in _duplicate_mismatches(manifest, tables["duplicates"], result):
        failed.add(unit_of_dir.get("/".join(rel.split("/")[:2]), rel))
    # discrepancy rows, charged to every bundle of the robot
    wrong = set(_discrepancy_mismatches(manifest, tables["discrepancies"], result))
    names = {r["key"]: r["row"]["robot"] for r in manifest["robots"]}
    failed |= robot_units(manifest, {names[k] for k in wrong})
    # per-source count tables
    per_source: dict[str, int] = {}
    for b in bundles:
        per_source[b["source"]] = per_source.get(b["source"], 0) + 1
    counts = [
        _count_mismatch("structures", _expected_counts(
            bundles, STRUCTURES, lambda b: [b["structure"]]), tables["structures"], result),
        _count_mismatch("licenses", _expected_counts(
            bundles, LICENSES, lambda b: [b["license"]]), tables["licenses"], result),
        _count_mismatch("xacro", _expected_counts(
            bundles, ("by_us_using_xacro", "by_others_using_xacro", "by_others_without_xacro"),
            _xacro_column), tables["xacro"], result),
        _count_mismatch("mesh_types", _expected_mesh_types(bundles), tables["mesh_types"], result),
        _count_mismatch("duplicates_cross_source", _expected_cross_source(manifest),
                        tables["duplicates_cross_source"], result),
    ]
    _charge_counts(result, per_source, counts)
    return result


def _xacro_column(bundle: dict) -> list[str]:
    if bundle["xacro_flag"]:
        return ["by_us_using_xacro"]
    return ["by_others_using_xacro" if bundle["banner"] else "by_others_without_xacro"]


def _expected_counts(bundles: list[dict], columns: tuple[str, ...], values) -> dict:
    out: dict[tuple, dict[str, int]] = {}
    for b in bundles:
        row = out.setdefault((b["source"],), {c: 0 for c in columns})
        for value in values(b):
            row[value] += 1
    return out


def _expected_mesh_types(bundles: list[dict]) -> dict:
    out: dict[tuple, dict[str, int]] = {}
    for b in bundles:
        if not b["parsed"]:
            continue
        for usage in ("visual", "collision"):
            exts = set(b[f"{usage}_exts"])
            for ext in MESH_EXTS:
                row = out.setdefault((b["source"], usage, ext), {"bundles": 0})
                row["bundles"] += (ext in exts) or (ext == "any" and bool(exts))
    return out


def _expected_cross_source(manifest: dict) -> dict:
    out: dict[tuple, dict[str, int]] = {}
    for members in manifest["groups"]:
        sources = {rel.split("/", 1)[0] for rel in members}
        for source in sources:
            out.setdefault((source,), {e: 0 for e in DUP_EXTS})
        if len(sources) < 2:
            continue
        for rel in members:
            name = rel.rsplit("/", 1)[-1]
            ext = name.rsplit(".", 1)[-1].lower() if "." in name else ""
            out[(rel.split("/", 1)[0],)][ext if ext in DUP_EXTS else "other"] += 1
    return out


def _count_mismatch(table: str, expected: dict[tuple, dict[str, int]], data: bytes,
                    result: CheckResult) -> dict[str, int]:
    """Per source, the fewest units that explain the count differences."""
    width = len(next(iter(expected), ("",)))  # key columns: source, or source/usage/extension
    emitted: dict[tuple, dict[str, int]] = {}
    for row in _rows(data):
        cells = list(row.items())
        if cells[0][1] != "total":
            emitted[tuple(v for _, v in cells[:width])] = {c: int(v) for c, v in cells[width:]}
    distance: dict[str, int] = {}
    for key in sorted(set(expected) | set(emitted)):
        want, got = expected.get(key, {}), emitted.get(key, {})
        l1 = sum(abs(want.get(c, 0) - got.get(c, 0)) for c in set(want) | set(got))
        if key not in emitted or key not in expected:
            l1 = max(l1, 1)
        if l1:
            result.problems.append(f"{table} {'/'.join(key)}: emitted {got} != expected {want}")
            distance[key[0]] = distance.get(key[0], 0) + l1
    return {source: math.ceil(d / 2) for source, d in distance.items()}


def _charge_counts(result: CheckResult, per_source: dict[str, int],
                   counts: list[dict[str, int]]) -> None:
    for source in sorted(set().union(*counts)):
        charge = max(c.get(source, 0) for c in counts)
        named = sum(1 for u in result.failed if u.split("/", 1)[0] == source)
        result.extra_failed += max(0, min(per_source.get(source, charge), named + charge) - named)


def _duplicate_mismatches(manifest: dict, data: bytes, result: CheckResult) -> set[str]:
    """Files whose group, normalized size or digest differ from the manifest."""
    files = manifest["files"]
    groups: dict[str, list[dict[str, str]]] = {}
    for row in _rows(data):
        groups.setdefault(row["group_id"], []).append(row)
    emitted: dict[str, tuple] = {}
    for rows in groups.values():
        members = frozenset(r["path"] for r in rows)
        for r in rows:
            if r["path"] in emitted:
                result.problems.append(f"{r['path']} is in two duplicate groups")
            emitted[r["path"]] = (members, int(r["size"]), r["digest"])
    wrong = set()
    for rel in sorted(set(files) | set(emitted)):
        info = files.get(rel)
        expected = None
        if info is not None and "group" in info:
            expected = (frozenset(manifest["groups"][info["group"]]), info["norm_size"], info["md5"])
        if emitted.get(rel) != expected:
            wrong.add(rel)
            result.problems.append(f"{rel}: duplicate group differs from the manifest")
    return wrong


def _discrepancy_mismatches(manifest: dict, data: bytes, result: CheckResult) -> list[str]:
    """Keys of robots whose discrepancy row is missing, extra or different."""
    emitted = {(r["robot"], r["manufacturer"]): r for r in _rows(data)}
    expected = {(r["row"]["robot"], r["row"]["manufacturer"]): r for r in manifest["robots"]}
    wrong = []
    for key in sorted(set(expected) | set(emitted)):
        want = expected.get(key)
        got = emitted.get(key)
        if want is None:
            result.problems.append(f"discrepancies has an unexpected row for {key}")
            result.extra_failed += 1
            continue
        fields = [c for c in DISCREPANCY_COLUMNS
                  if got is None or got.get(c) != str(want["row"][c])]
        if fields:
            wrong.append(want["key"])
            shown = "missing" if got is None else ", ".join(
                f"{c}={got.get(c)} (expected {want['row'][c]})" for c in fields)
            result.problems.append(f"discrepancies {key[0]} [{'/'.join(want['copies'])}]: {shown}")
    return wrong


# --------------------------------------------------------------------------
# Counters that follow from the manifest alone, for the traced run.
# --------------------------------------------------------------------------


def expected_counters(manifest: dict) -> dict[str, float]:
    """The traced counts a correct run must reproduce."""
    workload = manifest["workload"]
    files = manifest["files"]
    bundles = manifest["bundles"]
    robots = manifest["robots"] if workload != "dupes_meshes" else []
    keys: dict[int, int] = {}
    for info in files.values():
        key = info["norm_size"] if info["text"] else info["size"]
        keys[key] = keys.get(key, 0) + 1
    urdfs = [info for rel, info in files.items() if rel.endswith(".urdf")]
    out: dict[str, float] = {
        "model.files": len(bundles),
        "model.bytes": sum(info["size"] for info in urdfs),
        "validator.errors": sum(len(b["errors"]) for b in bundles),
        "validator.warnings": 0,
        "kinematics.fk_pairs": sum(r["pairs"] for r in robots),
        "compare.groups": len(robots),
        "compare.pairs": sum(r["pairs"] for r in robots),
    }
    if workload != "compare_fk":
        out.update({
            "dedup.files": len(files),
            "dedup.bytes": sum(info["size"] for info in files.values()),
            "dedup.text_bytes": sum(info["size"] for info in files.values() if info["text"]),
            "dedup.unique_size_files": sum(1 for info in files.values()
                                           if not info["text"] and keys[info["size"]] == 1),
            "dedup.dup_files": sum(len(g) for g in manifest["groups"]),
            "dedup.max_bucket_mb": max((files[g[0]]["norm_size"] * len(g) for g in manifest["groups"]),
                                       default=0) / MIB,
        })
    out["report.tables"] = len(TABLES[COMMANDS[workload]])
    return out


def expected_fk_samples(manifest: dict) -> dict[str, int]:
    """FK samples a correct comparison evaluates, per robot name: every
    cross-source pair of copies of one mechanism is sampled, whatever
    order the copies declare their joints in."""
    return {r["row"]["robot"]: manifest["fk_samples"] * r["comparable_pairs"]
            for r in manifest["robots"]}


def robot_units(manifest: dict, names: set[str]) -> set[str]:
    """The units of the robots with these names."""
    if manifest["workload"] == "compare_fk":
        return {r["key"] for r in manifest["robots"] if r["row"]["robot"] in names}
    return {f"{b['source']}/{b['id']}" for b in manifest["bundles"] if b["name"] in names}
