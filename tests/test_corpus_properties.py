"""Corpus-level metamorphic properties of the corpus commands.

Small generated corpora (2-3 sources of 1-4 bundles, the first bundle of
the first two sources always the same robot) are built in a temporary
directory and run in-process; one fixed corpus holds every odd entry at
once and runs each corpus command in a subprocess with a timeout.
"""

from __future__ import annotations

import contextlib
import fnmatch
import io
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import urdf_inspect
from urdf_inspect.bundles import scan_corpus
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
    return root


@pytest.mark.parametrize("command", ["scan", "compare", "dupes", "stats"])
def test_odd_entries_never_stop_a_run(odd_corpus, tmp_path, command):
    env = dict(os.environ, PYTHONPATH=str(Path(urdf_inspect.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "urdf_inspect.cli", "--out", str(tmp_path / "out"),
                          command, str(odd_corpus)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    link = odd_corpus / "s2" / "linked_description"
    assert run.stderr.count(f"warning: cannot list {link}: linked directory, not followed") == 1
