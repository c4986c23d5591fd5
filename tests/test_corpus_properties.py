"""Corpus-level metamorphic properties of the corpus commands.

Small generated corpora (2-3 sources of 1-4 bundles, the first bundle of
the first two sources always the same robot) are built in a temporary
directory and run in-process.  Where odd entries (named pipes, a
directory named like a URDF, dangling and linked paths) are mixed in,
each corpus command runs in a subprocess with a timeout, as it does on
one fixed corpus that holds every odd entry at once, metadata nested too
deep or holding a number too long to decode among them.  Two sources of
2-4 invalid bundles whose metadata ids repeat check how ``parsing_errors``
names a bundle, and the names that ``source-information.json`` files give
check that every table names a source by its directory.  One-source trees
holding hidden, aliased, linked and non-URDF entries, described by odd and
repeated locations, check that a command analyzes only URDFs that the
walk lists, each once.
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import urdf_inspect
from urdf_inspect import _fs, cli, report
from urdf_inspect.bundles import classify_structure, detect_license, scan_corpus
from urdf_inspect.cli import run_cli

from conftest import LISTING1, simple_urdf, symlink, write_bundle, write_source

MIT = "Permission is hereby granted, free of charge, to any person obtaining a copy"
MESHES = (None, b"solid m\nendsolid m\n", b"solid m\r\n  endsolid m\r\n", b"\x00\x01\x02mesh")

bundles = st.fixed_dictionaries({
    "robot": st.sampled_from(("arm", "gripper", "rover")),
    "joint": st.sampled_from(("fixed", "revolute", "prismatic", "malformed")),
    "layout": st.sampled_from(("urdf", "robots")),
    "suffix": st.sampled_from(("_description", "_pkg")),
    "mesh": st.sampled_from(MESHES),
    "license": st.booleans(),
    "orphan": st.booleans(),
})
corpora = st.lists(st.lists(bundles, min_size=1, max_size=4), min_size=2, max_size=3)
properties = settings(max_examples=15, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])


def _build(root: Path, plan: list[list[dict]]) -> None:
    for s, source_plan in enumerate(plan):
        source = write_source(root, f"s{s}")
        for b, bundle in enumerate(source_plan):
            robot = "arm" if b == 0 and s < 2 else bundle["robot"]  # a robot in two sources
            text = "<robot><link>" if bundle["joint"] == "malformed" else \
                simple_urdf(robot, bundle["joint"])
            path = write_bundle(source, f"{robot}{b}{bundle['suffix']}", text, robot_name=robot,
                                urdf_folder=bundle["layout"],
                                meshes=bundle["mesh"] and {"m.stl": bundle["mesh"]},
                                license_text=MIT if bundle["license"] else None)
            if bundle["orphan"]:
                (path / "extra.urdf").write_text(simple_urdf(f"{robot}_extra"))


def _add_hidden(root: Path) -> None:
    """Hidden files and directories at every level, each holding what a
    walk that entered it would count: URDFs, metadata, meshes, licenses."""
    hidden_source = write_source(root, ".snapshot")
    write_bundle(hidden_source, "arm_description", simple_urdf("arm"), robot_name="arm")
    for source in [p for p in root.iterdir() if not p.name.startswith(".")]:
        write_bundle(source / ".git", "arm_description", simple_urdf("arm", "revolute"),
                     robot_name="arm", meshes={"m.stl": MESHES[1]}, license_text=MIT)
        (source / ".cache.urdf").write_text("<robot><link>")
        for bundle in [p for p in source.iterdir() if p.is_dir() and not p.name.startswith(".")]:
            (bundle / ".hidden.urdf").write_text(simple_urdf("hidden"))
            (bundle / ".LICENSE").write_text(MIT)
            (bundle / ".meshes").mkdir()
            (bundle / ".meshes" / "m.stl").write_bytes(MESHES[1])


def _scan_tables(root: Path, out: Path, command: str = "scan") -> dict[str, bytes]:
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(["--out", str(out), command, str(root)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _visible_urdfs(top: str) -> list[str]:
    """Every ``*.urdf`` path below ``top`` outside hidden and linked directories."""
    found = []
    with os.scandir(top) as entries:
        for entry in entries:
            if entry.name.startswith("."):
                continue
            if fnmatch.fnmatch(entry.name, "*.urdf"):
                found.append(entry.path)
            if entry.is_dir(follow_symlinks=False):
                found += _visible_urdfs(entry.path)
    return found


@properties
@given(corpora, st.booleans())
def test_every_visible_urdf_is_in_exactly_one_record(plan, linked):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        _add_hidden(root)
        if linked:  # the first source's first bundle, linked into the last source
            first = next((root / "s0").glob("arm0_*"))
            os.symlink(f"../s0/{first.name}", root / f"s{len(plan) - 1}" / "linked_description")
        records = Counter(str(r.urdf_file) for r in scan_corpus(root, []) if r.urdf_path != Path())
        expected = _visible_urdfs(str(root))
        assert expected
        assert {path: records[path] for path in expected} == dict.fromkeys(expected, 1)
        assert {path for path in records if os.path.lexists(path)} == set(expected)


@properties
@given(corpora)
def test_hidden_entries_change_no_table(plan):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        before = _scan_tables(root, Path(tmp, "before"))
        _add_hidden(root)
        assert _scan_tables(root, Path(tmp, "after")) == before


@properties
@given(corpora)
def test_compare_writes_scans_discrepancies(plan):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        scan = _scan_tables(root, Path(tmp, "scan"))
        compared = _scan_tables(root, Path(tmp, "compare"), "compare")
        assert compared == {"discrepancies.csv": scan["discrepancies.csv"]}
        assert b"\narm," in compared["discrepancies.csv"]


NO_FILE = object()  # a source without source-information.json
ARM = {"robot": "arm", "joint": "revolute", "layout": "urdf", "suffix": "_description",
       "mesh": None, "license": False, "orphan": False}


@st.composite
def named_corpora(draw):
    """A corpus plan and the name each source's source-information.json gives:
    its own directory's, another source's, a fresh one, null, or no file at all."""
    plan = draw(corpora)
    dirs = [f"s{s}" for s in range(len(plan))]
    fresh = st.text(max_size=6).filter(lambda name: name not in (*dirs, "total"))
    name = st.sampled_from(dirs) | fresh | st.none() | st.just(NO_FILE)
    return plan, draw(st.lists(name, min_size=len(plan), max_size=len(plan)))


def _source_cells(tables: dict[str, bytes]) -> set[str]:
    """Every source a table names: a ``source`` cell but a per-source table's
    total row, a ``discrepancies`` source, a ``parsing_errors`` file's first part."""
    cells = set()
    for data in tables.values():
        for row in csv.DictReader(io.StringIO(data.decode())):
            if "source" in row and row["source"] != "total":
                cells.add(row["source"])
            if "sources" in row:
                cells.update(row["sources"].split(";"))
            if "file" in row:
                cells.add(row["file"].split("/")[0])
    return cells


@properties
@example(([[ARM], [ARM]], ["Alpha", "Beta"]))  # each table named s0/s1 by its directory
@example(([[ARM], [ARM]], ["Mirror", "Mirror"]))  # two sources, so arm is compared
@given(named_corpora())
def test_a_source_is_named_by_its_directory(named):
    plan, names = named
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        for s, name in enumerate(names):
            info = root / f"s{s}" / "source-information.json"
            if name is NO_FILE:
                info.unlink()
            else:
                info.write_text(json.dumps({"name": name, "url": f"https://example.org/s{s}"}))
        written = {command: _scan_tables(root, Path(tmp, command), command)
                   for command in ("scan", "compare", "dupes", "stats")}
        for info in root.glob("*/source-information.json"):
            info.unlink()
        for command, tables in written.items():
            assert _source_cells(tables) <= {f"s{s}" for s in range(len(plan))}, command
            assert _scan_tables(root, Path(tmp, f"{command}_unnamed"), command) == tables, command
        assert b"\narm," in written["compare"]["discrepancies.csv"]


def _bundle_dirs(source: Path) -> list[Path]:
    return sorted(p for p in source.iterdir() if p.is_dir())


@properties
@given(corpora, st.data())
def test_renaming_a_bundle_within_its_class_changes_only_path_cells(plan, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        before = _scan_tables(root, Path(tmp, "before"))
        source = root / f"s{data.draw(st.integers(0, len(plan) - 1))}"
        bundle = data.draw(st.sampled_from(_bundle_dirs(source)))
        # a tag after the bundle's index keeps its class and its place in every sort
        robot_index, suffix = bundle.name.split("_", 1)
        tag = data.draw(st.text("xyz", min_size=1, max_size=3))
        renamed = bundle.with_name(f"{robot_index}{tag}_{suffix}")
        structure = classify_structure(bundle)
        bundle.rename(renamed)
        assert classify_structure(renamed) == structure
        after = _scan_tables(root, Path(tmp, "after"))
        assert {name: table.replace(renamed.name.encode(), bundle.name.encode())
                for name, table in after.items()} == before


def _write_invalid_bundle(source: Path, dirname: str, meta_id: str) -> None:
    """A bundle whose URDF gives one D row, with ``meta_id`` as its id, none when empty."""
    (source / dirname / "urdf").mkdir(parents=True)
    (source / dirname / "urdf" / "robot.urdf").write_text('<robot><link name="a"/></robot>')
    meta = {"name": dirname, "urdf-location": "urdf/robot.urdf"}
    (source / dirname / "meta-information.json").write_text(
        json.dumps({**meta, "id": meta_id} if meta_id else meta))


@properties
@example([["x", "x"], ["x", "y"]])  # src1's arm_description and leg_description repeat "x"
@given(st.lists(st.lists(st.sampled_from(("", "x", "y")), min_size=2, max_size=4),
                min_size=2, max_size=2))
def test_each_bundle_has_its_own_file_cell(ids):
    with tempfile.TemporaryDirectory() as tmp:
        root, expected = Path(tmp, "corpus"), []
        for s, source_ids in enumerate(ids):
            source = write_source(root, f"src{s + 1}")
            for b, meta_id in enumerate(source_ids):
                dirname = ("arm", "leg", "hand", "head")[b] + "_description"
                _write_invalid_bundle(source, dirname, meta_id)
                # named by its id exactly when that is non-empty and unique in its source
                unique = meta_id and source_ids.count(meta_id) == 1
                expected.append(f"src{s + 1}/{meta_id if unique else dirname + '/urdf/robot.urdf'}")
        table = _scan_tables(root, Path(tmp, "out"))["parsing_errors.csv"].decode()
        cells = [row[0] for row in csv.reader(io.StringIO(table))][1:]
        assert len(set(cells)) == len(cells)
        assert sorted(cells) == sorted(expected)


# the first name is a string prefix of the others; as paths, "a_description-x/" sorts first
SIBLINGS = ("a_description", "a_description2", "a_description-x")
LAYOUTS = st.sampled_from(("urdf", "robots", "urdf2"))  # urdf2: beside an empty urdf/


@properties
@given(corpora, st.lists(LAYOUTS, min_size=3, max_size=3), st.booleans(), st.data())
def test_scan_reads_each_bundle_from_its_slice_of_the_listing(plan, layouts, licensed_x, data):
    """scan's structures and licenses tables are those of standalone calls,
    which walk each bundle directory, over the records of scan_corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        source = root / f"s{data.draw(st.integers(0, len(plan) - 1))}"
        for name, layout, licensed in zip(SIBLINGS, layouts, (False, True, licensed_x)):
            bundle = write_bundle(source, name, simple_urdf("a"), robot_name="a",
                                  urdf_folder=layout, license_text=MIT if licensed else None)
            if layout == "urdf2":
                (bundle / "urdf").mkdir()
        tables = _scan_tables(root, Path(tmp, "scan"))
        records = scan_corpus(root, [])
        for table in (report.structures_table([(r.source_name, classify_structure(r.root_dir))
                                               for r in records]),
                      report.licenses_table([(r.source_name, detect_license(r.root_dir))
                                             for r in records])):
            rebuilt = io.BytesIO()
            report.emit(table, "csv", rebuilt)
            assert rebuilt.getvalue() == tables[f"{table.name}.csv"], table.name


def _groups(out: Path) -> dict[str, set[str]]:
    """The members of the duplicate group of each path in ``duplicates.csv``."""
    with (out / "duplicates.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    members = {row["group_id"]: {r["path"] for r in rows if r["group_id"] == row["group_id"]}
               for row in rows}
    return {row["path"]: members[row["group_id"]] for row in rows}


@properties
@given(corpora, st.sampled_from(MESHES[1:3]), st.sampled_from(["crlf", "blanks"]))
def test_text_mesh_copy_lands_in_its_originals_group(plan, mesh, variant):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        original = _bundle_dirs(root / "s0")[0] / "meshes" / "m.stl"
        original.write_bytes(mesh)
        copy = _bundle_dirs(root / f"s{len(plan) - 1}")[-1] / "meshes" / "copy.stl"
        if variant == "crlf":
            copy.write_bytes(mesh.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n"))
        else:  # blanks after the first token
            copy.write_bytes(mesh.replace(b"solid", b"solid \t ", 1))
        out = Path(tmp, "out")
        _scan_tables(root, out, "dupes")
        groups = _groups(out)
        rel = original.relative_to(root).as_posix()
        assert copy.relative_to(root).as_posix() in groups[rel]


ODD_KINDS = ("pipe_urdf", "pipe_mesh", "pipe_meta", "dir_urdf", "dangling", "linked_bundle",
             "linked_source")


def _add_odd(root: Path, kinds: set[str], source_of) -> tuple[list[str], list[Path]]:
    """Add odd entries of ``kinds``, each in the source ``source_of`` draws;
    returns the ``parsing_errors`` file cell of each odd URDF, and each
    linked directory."""
    odd_urdfs, links = [], []
    first = {source.name: _bundle_dirs(source)[0] for source in root.iterdir()}
    for kind in sorted(kinds):
        source = root / f"s{source_of(kind)}"
        bundle = first[source.name]
        if kind == "pipe_urdf":  # the first bundle's described URDF
            urdf = next(p for p in bundle.rglob("*.urdf") if p.name != "extra.urdf")
            urdf.unlink()
            os.mkfifo(urdf)
            odd_urdfs.append(f"{source.name}/{bundle.name}")
        elif kind == "pipe_mesh":
            os.mkfifo(bundle / "meshes" / "pipe.stl")
        elif kind == "pipe_meta":
            (source / "fifo_description").mkdir()
            os.mkfifo(source / "fifo_description" / "meta-information.json")
        elif kind == "dir_urdf":
            (source / "x.urdf").mkdir()
            odd_urdfs.append(f"{source.name}/x.urdf")
        elif kind == "dangling":
            os.symlink("gone.urdf", source / "dangling.urdf")
            odd_urdfs.append(f"{source.name}/dangling.urdf")
        elif kind == "linked_bundle":
            links.append(source / "linked_description")
            os.symlink(f"../s0/{first['s0'].name}", links[-1])
        else:  # a source
            links.append(root / "linked_source")
            os.symlink(source.name, links[-1])
    return odd_urdfs, links


def _run(command: str, root: Path, out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(urdf_inspect.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "urdf_inspect.cli", "--out", str(out),
                           command, str(root)],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora, st.sets(st.sampled_from(ODD_KINDS), min_size=1), st.data())
def test_odd_entries_in_generated_corpora(plan, kinds, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "corpus")
        _build(root, plan)
        odd_urdfs, links = _add_odd(root, kinds,
                                    lambda kind: data.draw(st.integers(0, len(plan) - 1), kind))
        for command in ("scan", "compare", "dupes", "stats"):
            run = _run(command, root, Path(tmp, command))
            assert run.returncode == 0, run.stderr
            for link in links:
                assert run.stderr.count(
                    f"warning: cannot list {link}: linked directory, not followed") == 1, command
        with Path(tmp, "scan", "parsing_errors.csv").open(newline="") as fh:
            f_rows = Counter(row[0] for row in csv.reader(fh) if row[2] == "F")
        assert {file: f_rows[file] for file in odd_urdfs} == dict.fromkeys(odd_urdfs, 1)


@pytest.fixture
def odd_corpus(tmp_path: Path) -> Path:
    """A small corpus holding every odd entry at once."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    root = tmp_path / "corpus"
    s1, s2 = write_source(root, "s1"), write_source(root, "s2")
    for source in (s1, s2):
        write_bundle(source, "planar_description", LISTING1, robot_name="planar",
                     meshes={"m.stl": MESHES[1]})
    pipe = write_bundle(s1, "pipe_description", LISTING1, robot_name="pipe")
    (pipe / "urdf" / "pipe.urdf").unlink()
    os.mkfifo(pipe / "urdf" / "pipe.urdf")  # a named pipe as a URDF
    os.mkfifo(pipe / "meshes" / "m.stl")  # as a mesh
    (s2 / "fifo_description").mkdir()
    os.mkfifo(s2 / "fifo_description" / "meta-information.json")  # as a meta file
    (s1 / "x.urdf").mkdir()  # a directory named like a URDF
    symlink("gone.urdf", s2 / "dangling.urdf")
    symlink("../s1/planar_description", s2 / "linked_description")
    (s1 / "planar_description" / "meshes" / os.fsdecode(b"\xffm.stl")).write_bytes(MESHES[1])
    (s1 / "deep_description").mkdir()  # a meta file nested too deep to decode
    (s1 / "deep_description" / "meta-information.json").write_text("[" * 200_000 + "]" * 200_000)
    # a source name too long for int() to convert
    (s2 / "source-information.json").write_text('{"name": %s}' % ("9" * 5_000))
    return root


@pytest.mark.parametrize("command", ["scan", "compare", "dupes", "stats"])
def test_odd_entries_never_stop_a_run(odd_corpus, tmp_path, command):
    run = _run(command, odd_corpus, tmp_path / "out")
    assert run.returncode == 0, run.stderr
    link = odd_corpus / "s2" / "linked_description"
    assert run.stderr.count(f"warning: cannot list {link}: linked directory, not followed") == 1
    pipe = odd_corpus / "s1" / "pipe_description" / "meshes" / "m.stl"  # a dedup candidate
    assert run.stderr.count(f"warning: skipped unreadable {pipe}: not a regular file") == (
        1 if command in ("scan", "dupes") else 0)
    dangling = odd_corpus / "s2" / "dangling.urdf"  # named once, by the reason alone
    assert run.stderr.splitlines().count(
        f"warning: skipped unreadable {dangling}: No such file or directory") == (
        1 if command in ("scan", "dupes") else 0)


ODD_FILES = ("alias", "hidden_file", "xml", "hidden_dir", "linked_in", "linked_out")
LOCATIONS = ("urdf/robot.urdf", "urdf/alias.urdf", "urdf/.x.urdf", "urdf/robot.xml",
             ".hid/robot.urdf", "linked_in/robot.urdf", "linked_out/robot.urdf",
             "urdf/gone.urdf", "./urdf/../urdf/robot.urdf", "../b_description/urdf/robot.urdf",
             "linked_in/../urdf/robot.urdf", "")


def _odd_source(tmp: Path, odd: set[str], locations: list[list[str]]) -> Path:
    """A one-source corpus of two bundles whose meta lists give ``locations``;
    ``a_description`` also holds the entries named in ``odd``."""
    root = Path(tmp, "corpus")
    source = write_source(root, "s1")
    for name, bundle_locations in zip(("a_description", "b_description"), locations):
        bundle = write_bundle(source, name, simple_urdf(name), robot_name="robot")
        (bundle / "meta-information.json").write_text(json.dumps(
            [{"name": f"r{i}", "urdf-location": loc} for i, loc in enumerate(bundle_locations)]))
    bundle, outside = source / "a_description", Path(tmp, "outside", "urdf")
    outside.mkdir(parents=True)
    (outside / "robot.urdf").write_text(simple_urdf("outside"))
    for name in odd:
        if name == "alias":  # a symlink beside its target
            os.symlink("robot.urdf", bundle / "urdf" / "alias.urdf")
        elif name in ("hidden_file", "xml", "hidden_dir"):
            path = bundle / {"hidden_file": "urdf/.x.urdf", "xml": "urdf/robot.xml",
                             "hidden_dir": ".hid/robot.urdf"}[name]
            path.parent.mkdir(exist_ok=True)
            path.write_text("<robot><link>")
        else:  # a linked folder into the corpus, or out of it
            os.symlink("../b_description/urdf" if name == "linked_in" else outside, bundle / name)
    return root


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
@properties
@example({"hidden_file"}, [["urdf/.x.urdf"], []])  # listed by no walk
@example({"xml"}, [["urdf/robot.xml"], []])
@example(set(), [["urdf/robot.urdf", "./urdf/../urdf/robot.urdf"], []])  # one URDF, twice
@given(st.sets(st.sampled_from(ODD_FILES)),
       st.lists(st.lists(st.sampled_from(LOCATIONS), max_size=4), min_size=2, max_size=2))
def test_every_analyzed_urdf_is_listed_and_analyzed_once(odd, locations):
    with tempfile.TemporaryDirectory() as tmp:
        root = _odd_source(Path(tmp), odd, locations)
        listed = {os.path.realpath(p) for p in _fs.walk(root, "*.urdf").paths}
        for command in ("scan", "compare", "stats"):
            analyzed, analyze = [], cli._analyze
            with mock.patch.object(cli, "_analyze",
                                   lambda path: analyzed.append(path) or analyze(path)):
                _scan_tables(root, Path(tmp, command), command)
            real = Counter(map(os.path.realpath, analyzed))
            assert set(real) <= listed, command
            assert all(count == 1 for count in real.values()), command
