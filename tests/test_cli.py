import csv
import errno
import gc
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import urdf_inspect
from urdf_inspect import _fs, bundles, cli, compare, report
from urdf_inspect.cli import run_cli
from urdf_inspect.model import RobotModel

from conftest import (LISTING1, XACRO_BANNER, simple_urdf, symlink, write_bundle,
                      write_source)
from oracles import oracle_bundle_tables


@pytest.fixture
def listing1_file(tmp_path):
    path = tmp_path / "listing1.urdf"
    path.write_text(LISTING1)
    return path


def read_csv(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _unreadable(monkeypatch, hit) -> None:
    """Make ``_fs.read``, which every file read goes through, fail with
    ``Permission denied`` for each path that ``hit`` accepts."""
    real_read = _fs.read

    def failing(path, *args):
        if hit(path):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real_read(path, *args)

    monkeypatch.setattr(_fs, "read", failing)


class TestValidateCommand:
    def test_clean_file_exits_zero(self, listing1_file, capsys):
        assert run_cli(["validate", str(listing1_file)]) == 0
        out = capsys.readouterr().out
        assert "parsing_errors" in out

    def test_missing_name_exits_one_with_code_d(self, tmp_path, capsys):
        bad = tmp_path / "no_name.urdf"
        bad.write_text('<robot><link name="a"/></robot>')
        assert run_cli(["validate", str(bad)]) == 1
        rows = [line for line in capsys.readouterr().out.splitlines() if ",D," in line]
        assert len(rows) == 1

    def test_urdf_named_directory_argument_is_one_f_row(self, tmp_path):
        (tmp_path / "d" / "a.urdf").mkdir(parents=True)
        (tmp_path / "d" / "a.urdf" / "inner.urdf").write_text(LISTING1)  # not walked
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "validate", str(tmp_path / "d" / "a.urdf")]) == 1
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            ["a.urdf", "error", "F", "document", "0", "cannot read file: Is a directory"]]

    def test_directory_walk(self, tmp_path):
        (tmp_path / "ok.urdf").write_text(LISTING1)
        (tmp_path / "bad.urdf").write_text("<robot><link>")
        assert run_cli(["validate", str(tmp_path)]) == 1

    def test_directory_walk_skips_hidden_entries(self, tmp_path):
        (tmp_path / "d" / ".snap").mkdir(parents=True)
        (tmp_path / "d" / "ok.urdf").write_text(LISTING1)
        (tmp_path / "d" / ".snap" / "a.urdf").write_text("<robot><link>")
        (tmp_path / "d" / ".b.urdf").write_text("<robot><link>")
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "validate", str(tmp_path / "d")]) == 0
        assert read_csv(out / "parsing_errors.csv")[1:] == []

    def test_directory_walk_rows_in_path_order(self, tmp_path):
        (tmp_path / "d" / "a").mkdir(parents=True)
        (tmp_path / "d" / "a" / "b.urdf").write_text("<robot><link>")
        (tmp_path / "d" / "a.b.urdf").write_text("<robot><link>")
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "validate", str(tmp_path / "d")]) == 1
        assert [row[0] for row in read_csv(out / "parsing_errors.csv")[1:]] == [
            "a/b.urdf", "a.b.urdf"]  # path order; a str sort puts a.b.urdf first

    def test_undecodable_file_name_is_an_f_row(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / os.fsdecode(b"\xffbad.urdf")).write_text("<robot><link>")
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "validate", str(tmp_path / "d")]) == 1
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            ["\\udcffbad.urdf", "error", "F", "document", "1", "no element found: line 1, column 13"]]

    def test_missing_path_exits_three(self, tmp_path):
        assert run_cli(["validate", str(tmp_path / "ghost.urdf")]) == 3

    def test_directory_named_urdf_is_an_f_row(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "ok.urdf").write_text(LISTING1)
        (tree / "x.urdf").mkdir()
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "validate", str(tree)]) == 1
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            ["x.urdf", "error", "F", "document", "0", "cannot read file: Is a directory"]]

    def test_usage_error_exits_two(self, capsys):
        assert run_cli([]) == 2
        assert run_cli(["frob"]) == 2


class TestInspectCommand:
    def test_model_info_row(self, listing1_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "inspect", str(listing1_file)]) == 0
        rows = read_csv(out / "model_info.csv")
        assert rows[0][:4] == ["file", "robot", "links", "joints"]
        assert rows[1][1] == "2 DOF planar robot"
        assert rows[1][2] == "3" and rows[1][3] == "2"

    def test_invalid_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.urdf"
        bad.write_text("<robot><link>")
        assert run_cli(["inspect", str(bad)]) == 1

    def test_directory_named_urdf_is_an_f_row(self, tmp_path):
        (tmp_path / "a.urdf").mkdir()
        out = tmp_path / "out"
        assert run_cli(["--out", str(out), "inspect", str(tmp_path / "a.urdf")]) == 1
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            ["a.urdf", "error", "F", "document", "0", "cannot read file: Is a directory"]]

    def test_missing_path_exits_three(self, tmp_path):
        assert run_cli(["inspect", str(tmp_path / "ghost.urdf")]) == 3


@pytest.mark.parametrize("command", ["validate", "inspect"])
@pytest.mark.parametrize("target, reason", [
    ("gone.urdf", "No such file or directory"),
    ("x.urdf", "Too many levels of symbolic links"),  # the link names itself
])
def test_broken_link_is_an_f_row(tmp_path, command, target, reason):
    link, out = tmp_path / "x.urdf", tmp_path / "out"
    symlink(target, link)
    assert run_cli(["--out", str(out), command, str(link)]) == 1
    assert read_csv(out / "parsing_errors.csv")[1:] == [
        ["x.urdf", "error", "F", "document", "0", f"cannot read file: {reason}"]]


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs unix sockets")
@pytest.mark.parametrize("command", ["validate", "inspect"])
def test_socket_is_not_a_regular_file(tmp_path, command):
    path, out = tmp_path / "x.urdf", tmp_path / "out"
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind(str(path))
        assert run_cli(["--out", str(out), command, str(path)]) == 1
    assert read_csv(out / "parsing_errors.csv")[1:] == [
        ["x.urdf", "error", "F", "document", "0", "cannot read file: not a regular file"]]


EXPECTED_TABLES = {
    "structures", "xacro", "parsing_errors", "mesh_types", "duplicates",
    "duplicates_cross_source", "discrepancies", "licenses", "contact",
    "name_stats", "model_stats",
}


class TestScanCommand:
    def test_all_tables_written(self, small_corpus, tmp_path):
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(small_corpus)]) == 0
        assert {p.stem for p in out.glob("*.csv")} == EXPECTED_TABLES

    def test_structures_counts(self, small_corpus, tmp_path):
        out = tmp_path / "reports"
        run_cli(["--out", str(out), "scan", str(small_corpus)])
        rows = read_csv(out / "structures.csv")
        total = rows[-1]
        assert total[0] == "total"
        assert total[1] == "4"  # every fixture bundle uses the description/urdf layout

    def test_json_format(self, small_corpus, tmp_path):
        out = tmp_path / "reports"
        assert run_cli(["--format", "json", "--out", str(out), "scan", str(small_corpus)]) == 0
        data = json.loads((out / "xacro.json").read_text())
        assert {row["source"] for row in data} == {"alpha", "beta", "total"}

    def test_discrepancies_for_shared_robot(self, small_corpus, tmp_path):
        out = tmp_path / "reports"
        run_cli(["--out", str(out), "compare", str(small_corpus)])
        rows = read_csv(out / "discrepancies.csv")
        assert len(rows) == 2  # header + the robot defined in both sources
        header, row = rows
        record = dict(zip(header, row))
        assert record["robot"] == "planar"
        assert record["lines"] == "true"  # beta copy has trailing blank lines
        assert record["any_excl_lines"] == "false"

    def test_discrepancies_ignore_unnamed_records(self, tmp_path):
        # "***" normalizes to the same empty key as an orphan URDF's
        root = tmp_path / "corpus"
        meta = {"name": "***", "manufacturer": "", "type": "arm",
                "urdf-location": "r.urdf", "id": "1"}
        for source in ("s1", "s2"):
            (root / source / "b").mkdir(parents=True)
            (root / source / "b" / "r.urdf").write_text(simple_urdf("r"))
            (root / source / "b" / "meta-information.json").write_text(json.dumps(meta))
        (root / "s3" / "o").mkdir(parents=True)
        (root / "s3" / "o" / "x.urdf").write_text(LISTING1)
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "compare", str(root)]) == 0
        assert read_csv(out / "discrepancies.csv")[1:] == [
            ["***", "", "arm", "s1;s2", "false", "false", "false", "false", "false",
             "false", "false"]]

    def test_null_names_are_no_robot(self, tmp_path):
        root = tmp_path / "corpus"
        meta = {"name": None, "manufacturer": None, "type": "arm",
                "urdf-location": "r.urdf", "id": "1"}
        for source in ("a", "b"):
            (root / source / "b").mkdir(parents=True)
            (root / source / "b" / "r.urdf").write_text(simple_urdf("r"))
            (root / source / "b" / "meta-information.json").write_text(json.dumps(meta))
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "compare", str(root)]) == 0
        assert len(read_csv(out / "discrepancies.csv")) == 1  # the header only
        assert run_cli(["--out", str(out), "scan", str(root)]) == 0
        assert sum(map(int, read_csv(out / "structures.csv")[-1][1:])) == 2

    @pytest.mark.parametrize("accident", ["missing", "unreadable"])
    def test_unread_member_does_not_differ(self, tmp_path, monkeypatch, accident):
        root = tmp_path / "corpus"
        meta = {"name": "Bot", "manufacturer": "Acme", "type": "arm",
                "urdf-location": "r.urdf", "id": "1"}
        for source in ("s1", "s2"):
            (root / source / "b").mkdir(parents=True)
            (root / source / "b" / "meta-information.json").write_text(json.dumps(meta))
        (root / "s1" / "b" / "r.urdf").write_text(simple_urdf("r"))
        if accident == "unreadable":
            (root / "s2" / "b" / "r.urdf").write_text(simple_urdf("r"))
            _unreadable(monkeypatch, lambda path: path.parts[-3:] == ("s2", "b", "r.urdf"))
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "compare", str(root)]) == 0
        assert read_csv(out / "discrepancies.csv")[1:] == [
            ["Bot", "Acme", "arm", "s1;s2", "false", "false", "false", "incomparable", "false",
             "false", "false"]]

    def test_missing_root_exits_three(self, tmp_path):
        assert run_cli(["scan", str(tmp_path / "nope")]) == 3

    def test_unreadable_urdf_is_an_f_row(self, small_corpus, tmp_path, monkeypatch):
        _unreadable(monkeypatch, lambda path: path.name == "gripper.urdf")
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(small_corpus)]) == 0
        rows = [row for row in read_csv(out / "parsing_errors.csv")[1:]
                if row[0] == "alpha/gripper_description"]
        assert rows == [["alpha/gripper_description", "error", "F", "document", "0",
                         "cannot read file: Permission denied"]]
        assert {p.stem for p in out.glob("*.csv")} == EXPECTED_TABLES

    def test_records_without_an_id_name_their_urdf_below_the_source(self, tmp_path):
        # two id-less bundles whose URDFs have one path below their bundle directories
        root = tmp_path / "corpus"
        source = write_source(root, "src1")
        for name in ("arm_description", "leg_description"):
            (source / name / "urdf").mkdir(parents=True)
            (source / name / "urdf" / "robot.urdf").write_text('<robot><link name="a"/></robot>')
            (source / name / "meta-information.json").write_text(
                json.dumps({"name": name, "urdf-location": "urdf/robot.urdf"}))
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(root)]) == 0
        assert [row[:3] for row in read_csv(out / "parsing_errors.csv")[1:]] == [
            ["src1/arm_description/urdf/robot.urdf", "error", "D"],
            ["src1/leg_description/urdf/robot.urdf", "error", "D"]]
        assert [r.id for r in bundles.scan_corpus(root)] == ["", ""]  # the ids stay empty

    def test_directory_named_urdf_is_an_f_row(self, tmp_path):
        source = write_source(tmp_path / "corpus", "alpha")
        write_bundle(source, "planar_description", LISTING1, robot_name="planar")
        missing = write_bundle(source, "gone_description", LISTING1, robot_name="gone")
        (missing / "urdf" / "gone.urdf").unlink()  # described but absent: no row
        (source / "x.urdf").mkdir()
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(tmp_path / "corpus")]) == 0
        assert sum(map(int, read_csv(out / "structures.csv")[-1][1:])) == 3  # x.urdf counted
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            ["alpha/x.urdf", "error", "F", "document", "0", "cannot read file: Is a directory"]]

    def test_described_directory_named_urdf_is_one_f_row(self, small_corpus, tmp_path):
        path = small_corpus / "alpha" / "planar_description" / "urdf" / "planar.urdf"
        path.unlink()
        path.mkdir()
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(small_corpus)]) == 0
        for table in ("structures", "xacro", "licenses"):  # one row per bundle, no orphan
            assert sum(map(int, read_csv(out / f"{table}.csv")[-1][1:])) == 4
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            ["alpha/planar_description", "error", "F", "document", "0",
             "cannot read file: Is a directory"]]

    @pytest.mark.parametrize("described", [True, False])
    @pytest.mark.parametrize("target, error", [("self", errno.ELOOP), ("gone.urdf", errno.ENOENT)])
    def test_unreadable_symlink_is_one_f_row(self, small_corpus, tmp_path, described, target,
                                             error):
        urdf = small_corpus / "alpha" / "planar_description" / "urdf"
        path = urdf / ("planar.urdf" if described else "extra.urdf")
        if described:
            path.unlink()
        symlink(path.name if target == "self" else target, path)
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(small_corpus)]) == 0
        assert sum(map(int, read_csv(out / "structures.csv")[-1][1:])) == (4 if described else 5)
        rel = "alpha/planar_description" + ("" if described else "/urdf/extra.urdf")
        assert read_csv(out / "parsing_errors.csv")[1:] == [
            [rel, "error", "F", "document", "0", f"cannot read file: {os.strerror(error)}"]]

    def test_hidden_entries_skipped_by_every_walk(self, tmp_path):
        root = tmp_path / "corpus"
        urdf = simple_urdf("r")
        for name in ("s1", "s2"):
            write_bundle(write_source(root, name), "r_description", urdf, robot_name="r")
        (root / ".snapshot" / "b").mkdir(parents=True)
        (root / ".snapshot" / "b" / "r.urdf").write_text(urdf)
        (root / "s1" / ".git").mkdir()
        (root / "s1" / ".git" / "r.urdf").write_text(urdf)
        (root / "s1" / "r_description" / ".old").mkdir()
        (root / "s1" / "r_description" / ".old" / "LICENSE").write_text(
            "Permission is hereby granted, free of charge, to any person")
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "scan", str(root)]) == 0
        assert read_csv(out / "structures.csv")[-1][:2] == ["total", "2"]
        assert [row[2] for row in read_csv(out / "duplicates.csv")[1:]] == [
            "s1/r_description/urdf/r.urdf", "s2/r_description/urdf/r.urdf"]
        assert [row[0] for row in read_csv(out / "duplicates_cross_source.csv")[1:]] == [
            "s1", "s2"]
        licenses = {row[0]: row[1:] for row in read_csv(out / "licenses.csv")}
        assert licenses["s1"] == licenses["s2"] == ["0", "0", "0", "0", "1"]

    def test_hidden_directories_never_entered(self, tmp_path, monkeypatch):
        root = tmp_path / "corpus"
        bundle = write_bundle(write_source(root, "s1"), "r_description", simple_urdf("r"),
                              robot_name="r")
        for level in (root, root / "s1", bundle, bundle / "urdf"):
            (level / ".git").mkdir()
            (level / ".git" / "r.urdf").write_text(simple_urdf("r"))
        scanned = []
        scandir = os.scandir

        def spy(path="."):
            scanned.append(Path(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", spy)
        assert run_cli(["--out", str(tmp_path / "reports"), "scan", str(root)]) == 0
        below = [p.relative_to(root).parts for p in scanned if p.is_relative_to(root)]
        assert below
        assert [parts for parts in below if any(part.startswith(".") for part in parts)] == []

    def test_unlistable_source_is_named_and_others_unchanged(self, small_corpus, tmp_path,
                                                             monkeypatch, capsys):
        whole, part = tmp_path / "whole", tmp_path / "part"
        assert run_cli(["--out", str(whole), "scan", str(small_corpus)]) == 0
        capsys.readouterr()
        beta = small_corpus / "beta"
        scandir = os.scandir

        def failing(path="."):
            if Path(path) == beta:
                raise PermissionError(13, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", failing)
        assert run_cli(["--out", str(part), "scan", str(small_corpus)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning: cannot list")] == [
            f"warning: cannot list {beta}: Permission denied"]  # once, though three walks meet it

        def alpha_rows(table):
            return [row for row in read_csv(table) if row and row[0].split("/")[0] == "alpha"]

        tables = sorted(whole.glob("*.csv"))
        assert [t.name for t in tables] == sorted(t.name for t in part.glob("*.csv"))
        assert sum(len(alpha_rows(t)) for t in tables) > 0
        for table in tables:
            assert alpha_rows(part / table.name) == alpha_rows(table), table.name

    @pytest.mark.parametrize("command", ["scan", "dupes", "stats"])
    def test_unlistable_bundle_directory_named_once(self, small_corpus, tmp_path,
                                                    monkeypatch, capsys, command):
        # the source walks, the license walk and the dedup walk all enter meshes/
        meshes = small_corpus / "alpha" / "gripper_description" / "meshes"
        scandir = os.scandir

        def failing(path="."):
            if Path(path) == meshes:
                raise PermissionError(13, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", failing)
        assert run_cli(["--out", str(tmp_path / "reports"), command, str(small_corpus)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: cannot list {meshes}: Permission denied"]

    @pytest.mark.parametrize("link, target", [
        ("s2/b_description", "../s1/b_description"),  # a bundle linked into a second source
        ("s1/b_description/meshes", "../c_description/meshes"),  # holds a mesh and a LICENSE
        ("s1/b_description/d", "."),  # a loop
        ("s1/b_description/urdf", "../../../elsewhere"),  # the layout folder, outside the corpus
    ])
    def test_linked_directory_named_once_and_not_entered(self, tmp_path, capsys, link, target):
        # against the same corpus with an empty directory in the link's place
        outs = []
        layout = link.endswith("/urdf")
        for linked in (False, True):
            root = tmp_path / f"corpus_{linked}"
            s1, s2 = write_source(root, "s1"), write_source(root, "s2")
            write_bundle(s1, "b_description", simple_urdf("b"), robot_name="b")
            for source in (s1, s2):
                write_bundle(source, "c_description", simple_urdf("c"), robot_name="c",
                             meshes={"m.stl": b"solid m\nendsolid\n"},
                             license_text="Permission is hereby granted, free of charge")
            path = root / link
            warning = [f"warning: cannot list {path}: linked directory, not followed"] \
                if linked else []
            if layout:  # its URDF moves to where the link points
                (tmp_path / "elsewhere").mkdir(exist_ok=True)
                (path / "b.urdf").replace(tmp_path / "elsewhere" / "b.urdf")
            if path.is_dir():
                path.rmdir()
            if linked:
                symlink(target, path)
            else:
                path.mkdir()
            if layout:  # a standalone call names the link and does not enter it either
                assert bundles.classify_structure(path.parent) is bundles.StructureClass.OTHER
                assert capsys.readouterr().err.splitlines() == warning
            outs.append(tmp_path / f"reports_{linked}")
            assert run_cli(["--out", str(outs[-1]), "scan", str(root)]) == 0
            assert capsys.readouterr().err.splitlines() == warning
        tables = sorted(p.name for p in outs[0].iterdir())
        assert tables == sorted(p.name for p in outs[1].iterdir())
        # a linked layout folder's URDF is still read through the link: other tables differ
        for name in ["structures.csv"] if layout else tables:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["scan", "compare", "dupes", "stats"])
    def test_linked_source_named_once_and_gives_no_record(self, tmp_path, capsys, command):
        root = tmp_path / "corpus"
        write_bundle(write_source(root, "s1"), "one_description", simple_urdf("one"),
                     robot_name="one")
        symlink("s1", root / "s2")
        assert [r.source_name for r in bundles.scan_corpus(root, [])] == ["s1"]
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), command, str(root)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: cannot list {root / 's2'}: linked directory, not followed"]
        if command == "scan":  # the link's source-information.json also names it s1
            assert read_csv(out / "structures.csv")[1:] == [["s1", "1", "0", "0", "0", "0"],
                                                            ["total", "1", "0", "0", "0", "0"]]

    @pytest.mark.parametrize("command", ["scan", "stats", "dupes", "compare"])
    def test_one_walk_of_the_root_and_no_stat_of_a_listed_path(self, small_corpus, tmp_path,
                                                              monkeypatch, command):
        calls = []
        walk = os.walk
        monkeypatch.setattr(os, "walk", lambda *args, **kwargs: calls.append("walk")
                            or walk(*args, **kwargs))
        is_file = Path.is_file
        monkeypatch.setattr(Path, "is_file", lambda path: calls.append("is_file")
                            or is_file(path))
        assert run_cli(["--out", str(tmp_path / "reports"), command, str(small_corpus)]) == 0
        sources = 2  # two walks each find the bundles, and one more lists the root
        assert calls == ["walk"] * (2 * sources + (command != "compare"))

    @pytest.mark.parametrize("command", ["scan", "dupes", "stats"])
    def test_root_given_as_dot_gives_the_same_tables_and_warnings(self, small_corpus, tmp_path,
                                                                  monkeypatch, capsys, command):
        (small_corpus / "alpha" / "planar_description" / "LICENSE").write_text(
            "Permission is hereby granted, free of charge, to any person")
        # a source walk and the root walk meet meshes/; from ".", they spell it differently
        meshes = small_corpus / "alpha" / "gripper_description" / "meshes"
        scandir = os.scandir

        def failing(path="."):
            if os.path.abspath(path) == str(meshes):
                raise PermissionError(13, "Permission denied", str(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", failing)
        assert run_cli(["--out", str(tmp_path / "whole"), command, str(small_corpus)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: cannot list {meshes}: Permission denied"]
        monkeypatch.chdir(small_corpus)
        assert run_cli(["--out", str(tmp_path / "dot"), command, "."]) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.endswith(f"{meshes.relative_to(small_corpus)}: Permission denied")
        whole, dot = ({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
                      for out in ("whole", "dot"))
        assert dot == whole

    def test_two_runs_byte_identical(self, small_corpus, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(["--out", str(out1), "scan", str(small_corpus)])
        run_cli(["--out", str(out2), "scan", str(small_corpus)])
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDupesCommand:
    def test_duplicate_mesh_found(self, tmp_path):
        root = tmp_path / "corpus"
        for source in ("s1", "s2"):
            bundle = root / source / "bot_description"
            (bundle / "meshes").mkdir(parents=True)
            (bundle / "meshes" / "arm.stl").write_bytes(b"solid arm\nendsolid\n")
            (bundle / "urdf").mkdir()
            (bundle / "urdf" / "bot.urdf").write_text(simple_urdf())
            (bundle / "meta-information.json").write_text(json.dumps(
                {"name": "bot", "urdf-location": "urdf/bot.urdf", "id": "bot"}))
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "dupes", str(root)]) == 0
        rows = read_csv(out / "duplicates.csv")
        paths = {row[2] for row in rows[1:]}
        assert "s1/bot_description/meshes/arm.stl" in paths
        cross = read_csv(out / "duplicates_cross_source.csv")
        cells = {row[0]: row for row in cross[1:]}
        assert cells["s1"][2] == "1"  # stl column


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_undecodable_file_name_listed(self, tmp_path, fmt):
        root = tmp_path / "corpus"
        name = os.fsdecode(b"\xffmesh.stl")
        for source in ("s1", "s2"):
            (root / source / "b").mkdir(parents=True)
            (root / source / "b" / name).write_bytes(b"\x00mesh" * 64)
        out = tmp_path / "reports"
        assert run_cli(["--format", fmt, "--out", str(out), "dupes", str(root)]) == 0
        if fmt == "csv":
            assert [row[2] for row in read_csv(out / "duplicates.csv")[1:]] == [
                "s1/b/\\udcffmesh.stl", "s2/b/\\udcffmesh.stl"]
        else:  # the JSON escape reads back as the original name
            assert [row["path"] for row in json.loads((out / "duplicates.json").read_bytes())] == [
                f"s1/b/{name}", f"s2/b/{name}"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dupes_tables_match_scan(self, small_corpus, tmp_path, monkeypatch, capsys, fmt):
        for source in ("alpha", "beta"):
            meshes = small_corpus / source / "planar_description" / "meshes"
            (meshes / "base.stl").write_bytes(b"solid base\nendsolid\n")
            (meshes / "locked.dae").write_bytes(b"<COLLADA/>")
        locked = small_corpus / "beta" / "planar_description" / "meshes" / "locked.dae"
        _unreadable(monkeypatch, lambda path: Path(path) == locked)
        written = {}
        for command in ("dupes", "scan"):
            out = tmp_path / command
            assert run_cli(["--format", fmt, "--out", str(out), command, str(small_corpus)]) == 0
            tables = {name: (out / f"{name}.{fmt}").read_bytes()
                      for name in ("duplicates", "duplicates_cross_source")}
            written[command] = capsys.readouterr().err.splitlines(), tables
        assert written["dupes"] == written["scan"]
        assert written["dupes"][0] == [f"warning: skipped unreadable {locked}: Permission denied"]
        assert b"base.stl" in written["dupes"][1]["duplicates"]
        assert len(list((tmp_path / "dupes").iterdir())) == 2


class TestStatsCommand:
    def test_stats_tables(self, small_corpus, tmp_path):
        out = tmp_path / "reports"
        assert run_cli(["--out", str(out), "stats", str(small_corpus)]) == 0
        assert {p.stem for p in out.glob("*.csv")} == {
            "model_stats", "name_stats", "contact", "licenses"}
        stats = {row[0]: row for row in read_csv(out / "model_stats.csv")[1:]}
        assert stats["robotic arm"][1:] == ["3", "2"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stats_tables_match_scan(self, small_corpus, tmp_path, fmt):
        stats, scan = tmp_path / "stats", tmp_path / "scan"
        assert run_cli(["--format", fmt, "--out", str(stats), "stats", str(small_corpus)]) == 0
        assert run_cli(["--format", fmt, "--out", str(scan), "scan", str(small_corpus)]) == 0
        names = sorted(p.name for p in stats.iterdir())
        assert len(names) == 4
        for name in names:
            assert (stats / name).read_bytes() == (scan / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("pipe", ["alpha/planar_description/urdf/planar.urdf",
                                  "alpha/planar_description/meta-information.json",
                                  "alpha/source-information.json"])
def test_named_pipe_never_blocks(small_corpus, tmp_path, pipe):
    """No command reads a named pipe; the commands run in a child with a
    timeout, so a read that blocks fails the test rather than hanging the suite."""
    path = small_corpus / pipe
    path.unlink()
    os.mkfifo(path)
    commands = ["scan", "stats", "compare", "dupes", "validate", "inspect"]
    argvs = [["--out", str(tmp_path / c), c, str(path if c == "inspect" else small_corpus)]
             for c in commands]
    script = ("import json, sys\n"
              "from urdf_inspect.cli import run_cli\n"
              "print(json.dumps([run_cli(argv) for argv in json.loads(sys.argv[1])]))")
    env = dict(os.environ, PYTHONPATH=str(Path(urdf_inspect.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True, timeout=30)
    is_urdf = pipe.endswith(".urdf")
    assert json.loads(run.stdout) == [0, 0, 0, 0, 1 if is_urdf else 0, 1]
    f_row = ["error", "F", "document", "0", "cannot read file: not a regular file"]
    assert read_csv(tmp_path / "inspect" / "parsing_errors.csv")[1:] == [[path.name, *f_row]]
    discrepancies = read_csv(tmp_path / "compare" / "discrepancies.csv")[1:]
    if is_urdf:
        assert [pipe, *f_row] in read_csv(tmp_path / "validate" / "parsing_errors.csv")
        rows = read_csv(tmp_path / "scan" / "parsing_errors.csv")[1:]
        assert rows == [["alpha/planar_description", *f_row]]  # one record for the described path
        assert [row[7] for row in discrepancies] == ["incomparable"]
    elif pipe.endswith("meta-information.json"):  # the bundle names no robot
        assert discrepancies == []
    else:  # the source is named after its directory
        assert [row[3] for row in discrepancies] == ["alpha;beta"]


@pytest.mark.parametrize("flags, code", [
    (["--fk-tol", "-1"], 2),
    (["--fk-tol=-inf"], 2),  # "-inf" alone would read as an option
    (["--fk-tol", "nan"], 2),
    (["--fk-tol", "inf"], 2),
    (["--fk-tol", "1e400"], 2),  # overflows to inf
    (["--fk-tol", "x"], 2),
    (["--fk-tol", ""], 2),
    (["--fk-tol", "0"], 0),
])
def test_fk_flag_ranges(small_corpus, tmp_path, capsys, flags, code):
    assert run_cli([*flags, "--out", str(tmp_path / "out"), "compare", str(small_corpus)]) == code
    if code:
        assert "argument --fk-tol: expected a finite value" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--fk-samples"])
def test_fk_sampling_flags_are_gone(small_corpus, capsys, flag):
    assert run_cli([flag, "16", "compare", str(small_corpus)]) == 2
    assert run_cli([f"{flag}=16", "compare", str(small_corpus)]) == 2
    assert f"unrecognized arguments: {flag}=16" in capsys.readouterr().err


def test_fk_tol_reaches_the_verdict(tmp_path):
    # two copies whose joint origins differ by 0.1 mm
    root = tmp_path / "corpus"
    for source, z in (("s1", "0.5"), ("s2", "0.5001")):
        urdf = simple_urdf("arm", "revolute").replace(
            '<child link="tip"/>', f'<child link="tip"/><origin xyz="0 0 {z}"/>')
        write_bundle(write_source(root, source), "arm_description", urdf, robot_name="arm")
    verdicts = []
    for flags in ([], ["--fk-tol", "1e-3"]):
        out = tmp_path / f"reports{len(flags)}"
        assert run_cli([*flags, "--out", str(out), "compare", str(root)]) == 0
        header, row = read_csv(out / "discrepancies.csv")
        verdicts.append(dict(zip(header, row))["fk"])
    assert verdicts == ["true", "false"]


@pytest.mark.parametrize("command", ["scan", "compare", "stats", "dupes", "validate", "inspect"])
def test_no_command_loads_numpy(small_corpus, tmp_path, command):
    out = tmp_path / "reports"
    target = small_corpus / "alpha/planar_description/urdf/planar.urdf" \
        if command == "inspect" else small_corpus
    script = ("import sys\n"
              "from urdf_inspect.cli import run_cli\n"
              f"code = run_cli(['--out', {str(out)!r}, {command!r}, {str(target)!r}])\n"
              "print(code, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(urdf_inspect.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["0", "False"]
    if command in ("scan", "compare"):  # the shared robot still gets an FK verdict
        header, row = read_csv(out / "discrepancies.csv")
        assert dict(zip(header, row))["fk"] == "false"


@pytest.mark.parametrize("bounds", [("inf", "inf"), ("-inf", "-inf")])
def test_infinite_joint_limits_make_fk_differ(tmp_path, bounds):
    # an infinite sampled angle turns the leaf frame to nan, which never compares equal
    root = tmp_path / "corpus"
    for source, (lo, hi) in (("s1", bounds), ("s2", ("-1", "1"))):
        urdf = simple_urdf("arm", "revolute").replace(
            'lower="-1" upper="1"', f'lower="{lo}" upper="{hi}"')
        write_bundle(write_source(root, source), "arm_description", urdf, robot_name="arm")
    out = tmp_path / "reports"
    assert run_cli(["--out", str(out), "scan", str(root)]) == 0
    header, row = read_csv(out / "discrepancies.csv")
    assert dict(zip(header, row))["fk"] == "true"


def _live_models() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is RobotModel)


def test_no_model_outlives_its_group(small_corpus, monkeypatch):
    # a second multiply defined robot, so one group's models could outlive it into the next
    write_bundle(small_corpus / "alpha", "rover_description", simple_urdf("rover"),
                 robot_name="rover", robot_type="mobile robot", manufacturer="Bolt")
    before = _live_models()
    in_group = []  # (live models, members) at each comparison
    compare_group = compare.compare_group

    def counting(members, **kwargs):
        in_group.append((_live_models() - before, len(members)))
        return compare_group(members, **kwargs)

    monkeypatch.setattr(compare, "compare_group", counting)
    corpus = cli._load_corpus(cli._build_parser().parse_args(["scan", str(small_corpus)]))
    assert _live_models() == before
    assert in_group == [(2, 2), (2, 2)]
    assert [row[:2] for row in corpus.discrepancies] == [("planar", "Acme"), ("rover", "Bolt")]
    assert not any(hasattr(e, "model") or hasattr(e, "text") for e in corpus.entries)
    assert [e.rel_file for e in corpus.entries] == [
        "alpha/gripper_description", "alpha/planar_description", "alpha/rover_description",
        "beta/planar_description", "beta/rover_description"]
    assert all(e.size is not None and e.contact is not None for e in corpus.entries)


@pytest.mark.parametrize("command,takes_facts", [
    ("scan", True), ("stats", True), ("compare", False), ("dupes", False)])
def test_only_scan_and_stats_take_bundle_facts(small_corpus, tmp_path, monkeypatch,
                                               command, takes_facts):
    facts = []
    for name in ("detect_xacro_generated", "contact_markers", "mesh_inventory",
                 "name_substring_stats"):
        fn = getattr(bundles, name)
        monkeypatch.setattr(bundles, name, lambda *a, fn=fn, name=name: facts.append(name) or fn(*a))
    compared = []
    for name in ("find_multiply_defined", "compare_group"):
        fn = getattr(compare, name)
        monkeypatch.setattr(compare, name,
                            lambda *a, fn=fn, name=name, **kw: compared.append(name) or fn(*a, **kw))
    parsed = []
    validate = cli.validate
    monkeypatch.setattr(cli, "validate", lambda raw: parsed.append(raw) or validate(raw))
    assert run_cli(["--out", str(tmp_path / "out"), command, str(small_corpus)]) == 0
    # compare parses only the two members of its one group, the others every bundle
    assert len(parsed) == (2 if command == "compare" else 4)
    assert bool(facts) is takes_facts
    # and only scan and compare group the robots and compare them
    compares = {"scan": True, "stats": False, "compare": True, "dupes": False}[command]
    assert compared == (["find_multiply_defined", "compare_group"] if compares else [])


@pytest.fixture
def every_table_corpus(small_corpus: Path) -> Path:
    """small_corpus plus a xacro banner, contact markers, a diagnostic and a
    duplicate mesh, so that each table of scan holds rows that each of its
    reads but the listing decides."""
    mesh = {"base.stl": b"solid base\nendsolid\n"}
    write_bundle(small_corpus / "alpha", "banner_description",
                 XACRO_BANNER + "<!-- author: jane@corp.com -->\n" + simple_urdf("banner"),
                 robot_name="banner", meshes=mesh)
    write_bundle(small_corpus / "beta", "broken_description", "<robot><link>",
                 robot_name="broken", meshes=mesh)
    return small_corpus


@pytest.mark.parametrize("name", list(cli._TABLES))
def test_each_table_declares_what_it_reads(every_table_corpus, tmp_path, monkeypatch, name):
    assert run_cli(["--out", str(tmp_path / "scan"), "scan", str(every_table_corpus)]) == 0
    scanned = (tmp_path / "scan" / f"{name}.csv").read_bytes()
    reads, build = cli._TABLES[name]

    def written(declared: set[str]) -> bytes:
        """The table, from a corpus loaded with only what ``declared`` names."""
        out = tmp_path / "_".join(["only", *sorted(declared)])
        with monkeypatch.context() as patch:
            patch.setitem(cli._TABLES, name, (declared, build))
            patch.setitem(cli._COMMANDS, "scan", ("", (name,)))
            assert run_cli(["--out", str(out), "scan", str(every_table_corpus)]) == 0
        return (out / f"{name}.csv").read_bytes()

    assert written(reads) == scanned
    # the corpus tells when a declared read is missing; without the listing,
    # classify_structure and detect_license walk each bundle themselves
    for read in reads - {cli.LISTING}:
        assert written(reads - {read}) != scanned, read


def test_command_tables_match_readme():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line.split("|") for line in readme.splitlines() if line.startswith("| `")]
    documented = {cells[1].strip(" `"): re.findall(r"`(\w+)`", cells[3]) for cells in rows}
    assert {command: tuple(documented[command]) for command in cli._COMMANDS} == {
        command: tables for command, (_, tables) in cli._COMMANDS.items()}


def _add_non_members(root: Path) -> None:
    """A second multiply defined robot and three bundles in no group: a
    malformed URDF, a named pipe as URDF (where the platform has them) and
    small_corpus's gripper."""
    write_bundle(root / "alpha", "rover_description", simple_urdf("rover"),
                 robot_name="rover", robot_type="mobile robot", manufacturer="Bolt")
    write_bundle(root / "alpha", "broken_description", "<robot><link>", robot_name="broken")
    pipe = write_bundle(root / "beta", "pipe_description", LISTING1, robot_name="pipe")
    if hasattr(os, "mkfifo"):
        (pipe / "urdf" / "pipe.urdf").unlink()
        os.mkfifo(pipe / "urdf" / "pipe.urdf")


def test_compare_loads_only_group_members(small_corpus, monkeypatch):
    _add_non_members(small_corpus)
    members = [r for group in compare.find_multiply_defined(
        bundles.scan_corpus(small_corpus)).values() for r in group]
    assert len(members) == 4
    loaded, analyzed, parsed = [], [], []
    load_entry, analyze, validate = cli._load_entry, cli._analyze, cli.validate
    monkeypatch.setattr(cli, "_load_entry",
                        lambda record, facts: loaded.append(record) or load_entry(record, facts))
    monkeypatch.setattr(cli, "_analyze", lambda path: analyzed.append(path) or analyze(path))
    monkeypatch.setattr(cli, "validate", lambda raw: parsed.append(raw) or validate(raw))
    corpus = cli._load_corpus(cli._build_parser().parse_args(["compare", str(small_corpus)]))
    assert sorted(loaded, key=repr) == sorted(members, key=repr)  # once each, and no other
    assert sorted(analyzed) == sorted(r.urdf_file for r in members)
    assert sorted(parsed) == sorted(r.urdf_file.read_bytes() for r in members)
    assert b"<robot><link>" not in parsed
    assert corpus.entries == []
    assert [row[:2] for row in corpus.discrepancies] == [("planar", "Acme"), ("rover", "Bolt")]


@pytest.mark.parametrize("non_members", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_and_scan_write_the_same_discrepancies(small_corpus, tmp_path, non_members,
                                                       fmt):
    if non_members:
        _add_non_members(small_corpus)
    written = []
    for command in ("scan", "compare"):
        out = tmp_path / command
        assert run_cli(["--format", fmt, "--out", str(out), command, str(small_corpus)]) == 0
        written.append((out / f"discrepancies.{fmt}").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"planar") == 1


def _graph_urdf(name: str, links: str, joints: list[tuple[str, str]]) -> str:
    parts = [f'<link name="{link}"/>' for link in links]
    parts += [f'<joint name="{p}_{c}" type="fixed"><parent link="{p}"/><child link="{c}"/></joint>'
              for p, c in joints]
    return f'<robot name="{name}">{"".join(parts)}</robot>'


def test_scan_tables_match_full_model_oracle(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    alpha, beta, gamma = (write_source(root, name) for name in ("alpha", "beta", "gamma"))
    arm = _graph_urdf("arm", ["world", "base", "tool_flange"],
                      [("world", "base"), ("base", "tool_flange")])
    base_mesh = '<mesh filename="package://arm/meshes/base.DAE"/>'
    arm = arm.replace('<link name="base"/>',
                      f'<link name="base"><visual><geometry>{base_mesh}</geometry></visual></link>')
    # a robot in three sources, one copy of it failing to parse, and a same-source variant
    write_bundle(alpha, "arm_description", XACRO_BANNER + arm, robot_name="arm")
    write_bundle(alpha, "arm_v2_description", arm.replace("tool_flange", "tool0"),
                 robot_name="arm")
    write_bundle(beta, "arm_description", "<!-- author: jane@corp.com -->\n" + arm,
                 robot_name="arm", xacro=True)
    write_bundle(gamma, "arm_description", "<!-- x@y -->\n<robot><link>", robot_name="arm")
    # singletons: a valid one, an A-E-invalid one (code D) and an unreadable one
    write_bundle(beta, "rover_description", simple_urdf("rover", collision_mesh="hull.stl"),
                 robot_name="rover", robot_type="mobile robot")
    write_bundle(gamma, "noname_description", '<!-- author --><robot><link name="world"/></robot>',
                 robot_name="noname", robot_type="mobile robot")
    write_bundle(gamma, "locked_description", LISTING1, robot_name="locked")
    # metadata without a URDF: a described file that is absent, and no location at all
    gone = write_bundle(gamma, "gone_description", LISTING1, robot_name="gone")
    (gone / "urdf" / "gone.urdf").unlink()
    (gamma / "bare").mkdir()
    (gamma / "bare" / "meta-information.json").write_text(json.dumps({"name": "bare", "id": "b"}))
    (gamma / "orphan.urdf").write_text(simple_urdf("orphan", visual_mesh="x.obj"))

    read_bytes = Path.read_bytes

    def failing(path):
        if path.name == "locked.urdf":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", failing)  # as the oracle reads
    _unreadable(monkeypatch, lambda path: path.name == "locked.urdf")  # as the CLI reads
    expected = oracle_bundle_tables(root)
    # the F and D files were read, so their markers count; neither gives a model
    assert expected[2].rows == (("author", 2), ("at_sign", 2), ("dot_com", 1))
    assert expected[4].rows == (("mobile robot", 2, 1), ("robotic arm", 3, 2))
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run_cli(["--format", fmt, "--out", str(out), "scan", str(root)]) == 0
        for table in expected:
            written = out / f"{table.name}.{fmt}"
            want = written.with_suffix(".oracle")
            with want.open("wb") as sink:
                report.emit(table, fmt, sink)
            assert written.read_bytes() == want.read_bytes(), table.name
    assert read_csv(tmp_path / "csv" / "discrepancies.csv")[1:] == [
        ["arm", "Acme", "robotic arm", "alpha;beta;gamma", "false", "false", "false",
         "incomparable", "true", "true", "false"]]


def test_odd_joint_graphs_are_w_other_rows_and_incomparable(tmp_path):
    root = tmp_path / "corpus"
    s1, s2 = write_source(root, "s1"), write_source(root, "s2")
    write_bundle(s1, "multi_description", _graph_urdf("multi", "abc", [("a", "c")]),
                 robot_name="multi")
    write_bundle(s1, "loop_description",
                 _graph_urdf("loop", "abc", [("a", "b"), ("b", "c"), ("c", "b")]),
                 robot_name="loop")
    write_bundle(s1, "ring_description", _graph_urdf("ring", "abc", [("b", "c"), ("c", "b")]),
                 robot_name="ring")
    diamond = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    write_bundle(s1, "diamond_description", _graph_urdf("diamond", "abcd", diamond),
                 robot_name="diamond")
    write_bundle(s2, "diamond_description",
                 _graph_urdf("diamond", "abcde", [*diamond[:3], ("c", "e")]),
                 robot_name="diamond")
    out = tmp_path / "reports"
    assert run_cli(["--out", str(out), "scan", str(root)]) == 0
    assert read_csv(out / "parsing_errors.csv")[1:] == [
        ["s1/diamond_description", "warning", "W_OTHER", "d", "0",
         "link 'd' is the child of several joints"],
        ["s1/loop_description", "warning", "W_OTHER", "loop", "0", "joint graph contains a cycle"],
        ["s1/loop_description", "warning", "W_OTHER", "b", "0",
         "link 'b' is the child of several joints"],
        ["s1/multi_description", "warning", "W_OTHER", "a, b", "0",
         "2 root links (no unique base)"],
        ["s1/ring_description", "warning", "W_OTHER", "ring", "0", "joint graph contains a cycle"],
        ["s1/ring_description", "warning", "W_OTHER", "b, c", "0",
         "2 links unreachable from root"],
    ]
    header, row = read_csv(out / "discrepancies.csv")
    assert dict(zip(header, row))["fk"] == "incomparable"
    assert dict(zip(header, row))["joints"] == "false"  # the tree copy has as many joints
