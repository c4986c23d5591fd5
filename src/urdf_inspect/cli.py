"""Command-line front end.

Subcommands:
    validate <file|dir>   per-file diagnostics with the A-F taxonomy
    inspect <file>        model information for one URDF
    scan <root>           every corpus table
    compare <root>        multiply-defined-robot discrepancies
    dupes <root>          duplicate-file groups
    stats <root>          model/name/contact/license tables

Each corpus command is an ordered list of tables (``_COMMANDS``), and each
table declares what it reads (``_TABLES``): every bundle, the robot groups,
the root listing or the duplicate groups.  A command loads only the union
of what its tables read, except that dupes loads every bundle, and a table
that does not declare the listing sees an empty one.  Every command loads
a bundle alike: its URDF is parsed once, and it keeps its diagnostics and
facts.  Its ``parsing_errors`` rows name it by its source directory and the
name ``bundles.scan_corpus`` gives it there.  Each multiply defined robot is
compared as soon as its members load, so no parsed model outlives its group.
Each source is walked twice for its bundles, and the root once more when a
table reads the listing or the duplicate groups.

Exit codes: 0 success, 1 validation errors found, 2 usage error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import _fs, bundles, compare, dedup, report
from .bundles import BundleRecord, ContactMarkers, MeshInventory
from .model import RobotModel
from .validator import Diagnostic, kinematic_sanity, validate

__all__ = ["run_cli", "main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _tolerance(text: str) -> float:
    """The argparse type of --fk-tol: a finite number of 0 or more."""
    try:
        if 0 <= (value := float(text)) < math.inf:  # false for nan
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite value of at least 0, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urdf-inspect",
        description="URDF parsing, validation and corpus analysis",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (default: csv)")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="write one file per table into DIR instead of stdout")
    parser.add_argument("--fk-tol", type=_tolerance, default=1e-6, metavar="X",
                        help="FK equality tolerance in meters/radians")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="validate URDF files").add_argument("path", type=Path)
    sub.add_parser("inspect", help="show model information").add_argument("path", type=Path)
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text).add_argument("root", type=Path)
    return parser


def run_cli(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        # a dangling link or a link loop exists as a name and gets an F row
        if args.command in ("validate", "inspect") and not os.path.lexists(args.path):
            print(f"error: {args.path} does not exist", file=sys.stderr)
            return EXIT_IO
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        corpus = _load_corpus(args)
        tables = [_TABLES[name][1](corpus) for name in _COMMANDS[args.command][1]]
        _fs.warn_skipped(corpus.skipped)
        _emit_tables(args, tables)
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


# --------------------------------------------------------------------------
# Corpus loading.
# --------------------------------------------------------------------------


class _Entry(NamedTuple):
    """One bundle, reduced to what the tables read of its URDF.  A fact is None
    only when the URDF was not read or (a model fact) did not validate."""

    record: BundleRecord
    diagnostics: list[Diagnostic]
    xacro_banner: bool | None  # the text facts
    contact: ContactMarkers | None
    meshes: MeshInventory | None  # the model facts
    name_terms: dict[str, int] | None
    size: tuple[int, int] | None  # (links, joints)

    @property
    def rel_file(self) -> str:
        """The bundle's file cell: its source's name, then its record's name in that source."""
        return f"{self.record.source_name}/{self.record.name}"


class _Corpus(NamedTuple):
    root: Path
    entries: list[_Entry]
    discrepancies: list[tuple[str, str, str, compare.DiscrepancyReport]]  # sorted rows, if compared
    skipped: list[OSError]  # directories a walk did not enter, repeats included
    listing: _fs.Listing  # the root's if a table reads it or the duplicate groups, else empty
    duplicates: list[dedup.DuplicateGroup]  # found in the listing, if a table reads them


def _analyze(path: Path) -> tuple[bytes | None, RobotModel | None, list[Diagnostic]]:
    """Read, validate and sanity-check one URDF file.

    Returns (bytes, model, diagnostics); a file that ``_fs.read``
    cannot read has no bytes and no model, and one F diagnostic saying why.
    """
    try:
        raw = _fs.read(path)[1]
    except OSError as exc:
        return None, None, [Diagnostic("error", "F", "document",
                                       f"cannot read file: {_fs.reason(exc)}")]
    result = validate(raw)
    diags = result.diagnostics
    if result.model is not None:
        diags = diags + kinematic_sanity(result.model)
    return raw, result.model, diags


def _load_entry(record: BundleRecord) -> tuple[_Entry, RobotModel | None, str | None]:
    """Analyze one bundle's URDF into its entry, with every fact, its model and its text
    (None when not read)."""
    raw, model, diags = None, None, []
    if record.urdf_path != Path():  # a listed URDF, even a dangling link: it gives an F row
        raw, model, diags = _analyze(record.urdf_file)
    text = banner = contact = meshes = name_terms = size = None
    if raw is not None:
        text = raw.decode("utf-8", errors="replace")
        banner, contact = bundles.detect_xacro_generated(text), bundles.contact_markers(text)
    if model is not None:
        meshes = bundles.mesh_inventory(model)
        name_terms = bundles.name_substring_stats(model, bundles.NAME_TERMS)
        size = (len(model.links), len(model.joints))
    return _Entry(record, diags, banner, contact, meshes, name_terms, size), model, text


def _load_corpus(args: argparse.Namespace) -> _Corpus:
    """What the tables of ``args.command`` read of the corpus under ``args.root``, each URDF
    parsed once.  Multiply defined robots load and compare first, one at a time; a member's
    entry is kept only when a table reads every bundle."""
    reads = set().union(*(_TABLES[name][0] for name in _COMMANDS[args.command][1]))
    if args.command == "dupes":  # no table of it reads a bundle, but the benchmark's
        reads.add(BUNDLES)  # ground truth counts one parse per bundle under every command
    skipped: list[OSError] = []
    records = bundles.scan_corpus(args.root, skipped)
    members: dict[int, _Entry] = {}  # by id of their record
    groups = compare.find_multiply_defined(records) if GROUPS in reads else {}
    rows = sorted((_compare(args, group, members) for group in groups.values()),
                  key=lambda row: row[:2])  # by robot name, then manufacturer
    entries = [members.pop(id(r), None) or _load_entry(r)[0]
               for r in records] if BUNDLES in reads else []
    root = _fs.corpus_root(args.root)
    listing = (_fs.walk(root, "*", skipped) if reads & {LISTING, DUPLICATES}
               else _fs.Listing([], set()))
    duplicates = _find_duplicates(listing) if DUPLICATES in reads else []
    return _Corpus(root, entries, rows, skipped, listing, duplicates)


def _find_duplicates(listing: _fs.Listing) -> list[dedup.DuplicateGroup]:
    """The duplicate groups of the listed files but the metadata files, naming each unreadable one."""
    files = [p for p in listing.paths if p not in listing.dirs
             and os.path.basename(p) not in (bundles.SOURCE_INFO, bundles.META_INFO)]
    io_errors: list = []
    groups = dedup.find_duplicates(files, errors=io_errors)
    for path, exc in io_errors:
        print(f"warning: skipped unreadable {path}: {_fs.reason(exc)}", file=sys.stderr)
    return groups


def _compare(args: argparse.Namespace, group: list[BundleRecord],
             members: dict[int, _Entry]) -> tuple[str, str, str, compare.DiscrepancyReport]:
    """Load and compare one robot's members, adding their entries to
    ``members``; the discrepancies row is all that outlives the call."""
    loaded = [_load_entry(record) for record in group]
    members.update((id(entry.record), entry) for entry, _, _ in loaded)
    rep = compare.compare_group([(entry.record, model, text) for entry, model, text in loaded],
                                fk_tol=args.fk_tol)
    return group[0].robot_name, group[0].manufacturer, group[0].robot_type, rep


# Each corpus table: what it reads of the corpus (every bundle, the robot groups, the root
# listing, the duplicate groups) and its builder.  scan writes them in this order.
BUNDLES, GROUPS, LISTING, DUPLICATES = "bundles", "groups", "listing", "duplicates"
_TABLES: dict[str, tuple[set[str], Callable[[_Corpus], report.ReportTable]]] = {
    "structures": ({BUNDLES, LISTING}, lambda c: report.structures_table(
        [(e.record.source_name, bundles.classify_structure(e.record.root_dir, c.listing))
         for e in c.entries])),
    "xacro": ({BUNDLES}, lambda c: report.xacro_table(
        [(e.record.source_name, e.record.xacro_generated_by_dataset, e.xacro_banner)
         for e in c.entries if e.xacro_banner is not None])),
    "parsing_errors": ({BUNDLES}, lambda c: report.parsing_errors_table(
        [(e.rel_file, d) for e in c.entries for d in e.diagnostics])),
    "mesh_types": ({BUNDLES}, lambda c: report.mesh_types_table(
        [(e.record.source_name, e.meshes) for e in c.entries if e.meshes is not None])),
    "duplicates": ({DUPLICATES}, lambda c: report.duplicates_table(c.root, c.duplicates)),
    "duplicates_cross_source": ({DUPLICATES}, lambda c: report.duplicates_cross_source_table(
        c.root, c.duplicates)),
    "discrepancies": ({GROUPS}, lambda c: report.discrepancies_table(c.discrepancies)),
    "licenses": ({BUNDLES, LISTING}, lambda c: report.licenses_table(
        [(e.record.source_name, bundles.detect_license(e.record.root_dir, c.listing))
         for e in c.entries])),
    "contact": ({BUNDLES}, lambda c: report.contact_table(
        [e.contact for e in c.entries if e.contact is not None])),
    "name_stats": ({BUNDLES}, lambda c: report.name_stats_table(
        [(e.record.source_name, e.name_terms) for e in c.entries if e.name_terms is not None])),
    "model_stats": ({BUNDLES}, lambda c: report.model_stats_table(bundles.model_stats(
        [(e.record.robot_type, *e.size) for e in c.entries if e.size is not None]))),
}

# Each corpus command: its help text and its tables, in the order it writes them.
_COMMANDS = {
    "scan": ("run every corpus analysis", tuple(_TABLES)),
    "compare": ("compare multiply defined robots", ("discrepancies",)),
    "dupes": ("find duplicate files", ("duplicates", "duplicates_cross_source")),
    "stats": ("model/name/contact/license statistics",
              ("model_stats", "name_stats", "contact", "licenses")),
}


# --------------------------------------------------------------------------
# Subcommands.
# --------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    path: Path = args.path
    # a path named *.urdf is one file, as in the tree walk, even if it is a directory
    walk = path.is_dir() and not path.match("*.urdf")
    files = sorted(map(Path, _fs.walk(path, "*.urdf").paths)) if walk else [path]

    rows: list[tuple[str, Diagnostic]] = []
    failed = False
    for file in files:
        rel = file.relative_to(path).as_posix() if walk else file.name
        _, _, diags = _analyze(file)
        if any(d.severity == "error" for d in diags):
            failed = True
        rows.extend((rel, d) for d in diags)
    _emit_tables(args, [report.parsing_errors_table(rows)])
    return EXIT_INVALID if failed else EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    path: Path = args.path
    _, model, diags = _analyze(path)
    if model is None:
        _emit_tables(args, [report.parsing_errors_table([(path.name, d) for d in diags])])
        return EXIT_INVALID
    table = report.model_info_table([(path.name, model, bundles.mesh_inventory(model))])
    _emit_tables(args, [table])
    return EXIT_OK


def _emit_tables(args: argparse.Namespace, tables: list[report.ReportTable]) -> None:
    if args.out is not None:
        report.write_tables(tables, args.format, args.out)
        return
    for table in tables:
        sys.stdout.write(f"# {table.name}\n")
        sys.stdout.flush()
        report.emit(table, args.format, sys.stdout.buffer)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
