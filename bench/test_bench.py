"""Tests of the benchmark itself: generator, checker, tracer, metric list.

Fast and small; run from the repository root with

    python -m pytest -q bench
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

import check
import corpus
import run
import tracer

REPO = Path(__file__).resolve().parent.parent


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _csv(columns: list[str], rows: list[list]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue().encode()


# --------------------------------------------------------------------------
# Generator.
# --------------------------------------------------------------------------


def test_same_seed_gives_byte_identical_trees(tmp_path):
    first = corpus.make_corpus("compare_fk", 5, tmp_path / "a")
    second = corpus.make_corpus("compare_fk", 5, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_other_seed_gives_other_tree_of_equal_shape(tmp_path):
    first = corpus.make_corpus("compare_fk", 5, tmp_path / "a")
    other = corpus.make_corpus("compare_fk", 6, tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")
    assert len(first["robots"]) == len(other["robots"])
    assert sorted(sum((r["copies"] for r in first["robots"]), [])) == \
        sorted(sum((r["copies"] for r in other["robots"]), []))


def test_manifest_keeps_the_reversed_declaration_cases(tmp_path):
    manifest = corpus.make_corpus("compare_fk", 5, tmp_path / "c")
    reordered = [r for r in manifest["robots"] if "reordered" in r["copies"]]
    assert reordered
    # Truth: declaration order never makes two copies of a robot differ.
    for robot in reordered:
        if not {"moved", "extra"} & set(robot["copies"]):
            assert robot["row"]["fk"] == "false"


def test_mechanism_ignores_declaration_order_only():
    robot = corpus.random_robot(random.Random(2), "m", 12, (0.4, 0.2, 0.3, 0.1))
    flipped = corpus.reordered(robot)
    assert corpus.mechanism(flipped) == corpus.mechanism(robot)
    assert corpus.mechanism(corpus.moved(robot, random.Random(3))) == corpus.mechanism(robot)
    assert corpus.mechanism(corpus.extended(robot, random.Random(3))) != corpus.mechanism(robot)


def test_scan_mixed_follows_the_published_shape():
    assert corpus.scaled(corpus.PUBLISHED_SOURCES, 320) == {
        "ros-industrial": 107, "matlab": 52, "robotics-toolbox": 44, "oems": 51, "random": 66}
    assert corpus.scaled(corpus.PUBLISHED_STRUCTURES, 320) == {
        "A": 42, "B": 59, "C": 6, "D": 8, "Other": 205}
    places = corpus._place(random.Random(1), [3, 2, 2, 1, 1], {"x": 3, "y": 4, "z": 2})
    assert all(len(set(p)) == len(p) for p in places)
    assert sorted(s for p in places for s in p) == ["x"] * 3 + ["y"] * 4 + ["z"] * 2


def test_planted_defects_render_their_codes():
    robot = corpus.random_robot(random.Random(1), "t", 4, (1, 0, 0, 0))
    assert '<robot name="">' in corpus.render_urdf(robot, "t", "D")
    assert "<link" not in corpus.render_urdf(robot, "t", "B")
    assert 'child link="missing_link"' in corpus.render_urdf(robot, "t", "E")
    assert not corpus.render_urdf(robot, "t", "F").rstrip().endswith("</robot>")


def test_normalization_variants_share_one_normal_form():
    content = b"solid x\n  facet normal 0 0 1\nendsolid x\n"
    normal = corpus.normalize_text(content)
    assert corpus.normalize_text(corpus.crlf_variant(content)) == normal
    assert corpus.normalize_text(corpus.whitespace_variant(content)) == normal
    assert normal == b"solidx\r\nfacetnormal001\r\nendsolidx\r\n"


# --------------------------------------------------------------------------
# Checker.
# --------------------------------------------------------------------------


def _discrepancies(manifest: dict) -> bytes:
    rows = [[r["row"][c] for c in check.DISCREPANCY_COLUMNS] for r in manifest["robots"]]
    return _csv(list(check.DISCREPANCY_COLUMNS), rows)


def test_checker_accepts_true_rows_and_catches_a_flipped_flag(tmp_path):
    manifest = corpus.make_corpus("compare_fk", 3, tmp_path / "c")
    good = check.check_tables(manifest, {"discrepancies": _discrepancies(manifest)})
    assert good.failed_count == 0 and good.units == len(manifest["robots"])

    flipped = json.loads(json.dumps(manifest))
    row = flipped["robots"][4]["row"]
    row["joints"] = "false" if row["joints"] == "true" else "true"
    bad = check.check_tables(manifest, {"discrepancies": _discrepancies(flipped)})
    assert bad.failed == {manifest["robots"][4]["key"]}
    assert bad.failed_count == 1


def _dupes_manifest() -> dict:
    files = {
        "s1/p/meshes/a.stl": {"size": 184, "text": False, "norm_size": 184, "md5": "aa"},
        "s2/q/meshes/a.stl": {"size": 184, "text": False, "norm_size": 184, "md5": "aa"},
        "s2/q/meshes/b.dae": {"size": 90, "text": True, "norm_size": 80, "md5": "bb"},
        "s1/p/meshes/b.dae": {"size": 95, "text": True, "norm_size": 80, "md5": "bb"},
        "s1/p/meshes/c.stl": {"size": 134, "text": False, "norm_size": 134, "md5": "cc"},
    }
    groups = [["s1/p/meshes/a.stl", "s2/q/meshes/a.stl"],
              ["s1/p/meshes/b.dae", "s2/q/meshes/b.dae"]]
    for gid, members in enumerate(groups):
        for rel in members:
            files[rel]["group"] = gid
    return {"workload": "dupes_meshes", "seed": 0, "fk_samples": 16, "bundles": [],
            "robots": [], "files": files, "groups": groups}


def _duplicate_rows(manifest: dict) -> list[list]:
    rows = []
    for gid, members in enumerate(manifest["groups"]):
        for rel in members:
            info = manifest["files"][rel]
            rows.append([gid, rel.split("/")[0], rel, rel.rsplit(".", 1)[1],
                         info["norm_size"], info["md5"]])
    return rows


def test_checker_catches_a_missing_duplicate_group_row():
    manifest = _dupes_manifest()
    columns = ["group_id", "source", "path", "extension", "size", "digest"]
    cross = _csv(["source", *check.DUP_EXTS], [["s1", 0, 1, 1, 0, 0], ["s2", 0, 1, 1, 0, 0]])
    rows = _duplicate_rows(manifest)
    good = check.check_tables(manifest, {"duplicates": _csv(columns, rows),
                                         "duplicates_cross_source": cross})
    assert good.failed_count == 0, good.problems

    bad = check.check_tables(manifest, {"duplicates": _csv(columns, rows[1:]),
                                        "duplicates_cross_source": cross})
    # The dropped file and its partner, now alone in its group, both fail.
    assert bad.failed == {"s1/p/meshes/a.stl", "s2/q/meshes/a.stl"}


def test_checker_charges_count_table_differences_per_source():
    manifest = _dupes_manifest()
    columns = ["group_id", "source", "path", "extension", "size", "digest"]
    cross = _csv(["source", *check.DUP_EXTS], [["s1", 0, 2, 0, 0, 0], ["s2", 0, 1, 1, 0, 0]])
    result = check.check_tables(manifest, {"duplicates": _csv(columns, _duplicate_rows(manifest)),
                                           "duplicates_cross_source": cross})
    assert not result.failed and result.extra_failed == 1


def test_checker_fails_every_unit_when_a_table_is_missing():
    manifest = _dupes_manifest()
    result = check.check_tables(manifest, {"duplicates": b"group_id\r\n"})
    assert result.failed_count == result.units == 5


def test_expected_counters_follow_the_manifest():
    counters = check.expected_counters(_dupes_manifest())
    assert counters["dedup.files"] == 5
    assert counters["dedup.text_bytes"] == 185
    assert counters["dedup.unique_size_files"] == 1  # c.stl; a.stl has a twin
    assert counters["dedup.dup_files"] == 4
    assert counters["dedup.max_bucket_mb"] == 2 * 184 / (1 << 20)


# --------------------------------------------------------------------------
# Tracer.
# --------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        tracer.Span(0, None, "root", 0.0, 10.0),
        tracer.Span(1, 0, "a", 1.0, 4.0),
        tracer.Span(2, 0, "b", 3.0, 6.0),  # overlaps a
        tracer.Span(3, 0, "c", 8.0, 9.0),
        tracer.Span(4, 1, "a.child", 2.0, 3.0),
        tracer.Span(5, None, "c", 11.0, 12.5),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0, 5: 1.5}


def test_tracer_records_parents_and_counts():
    t = tracer.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            t.count("files", 2)
        t.count("files")
        t.record("walk", 1.0, 2.0)
    inner, walk, outer = t.spans
    assert (inner.name, inner.parent, outer.parent) == ("inner", outer.id, None)
    assert (walk.parent, walk.duration) == (outer.id, 1.0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert t.counts == {"files": 3}


# --------------------------------------------------------------------------
# Metric list.
# --------------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in corpus.WORKLOADS if name in listed]
    assert "scan_mixed" in listed  # the one workload where every layer works


def test_layer_metrics_cover_every_per_layer_name():
    trace = {"spans": [[0, None, "cli.command", 0.0, 1.0],
                       [1, 0, "kinematics.fk_equivalent", 0.1, 0.4]],
             "counts": {"kinematics.fk_pairs": 1, "kinematics.fk_comparable": 1}, "post_s": 0.0}
    metrics = run.layer_metrics(trace, untraced_wall=1.0, traced_wall=1.2, cpu=0.9)
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert metrics["kinematics.fk_comparable_ratio"] == 1.0
    assert abs(metrics["trace.overhead_s"] - 0.2) < 1e-12


def test_layer_metrics_take_self_times_from_nested_calls():
    rows = [
        [0, None, "cli.command", 0.0, 20.0],
        [1, 0, "validator.validate", 1.0, 4.0],
        [2, 1, "model.parse_urdf", 1.5, 3.5],
        [3, 0, "compare.compare_group", 5.0, 12.0],
        [4, 3, "compare.robot_key", 5.0, 5.5],
        [5, 3, "kinematics.build_tree", 6.0, 7.0],
        [6, 3, "kinematics.fk_equivalent", 7.0, 11.0],
        [7, 0, "report.write_tables", 13.0, 15.0],
        [8, 7, "report.emit", 13.5, 14.0],
        [9, 0, "report.structures_table", 15.0, 15.25],
        [10, 0, "cli.walk", 16.0, 17.0],
        [11, 0, "dedup.find_duplicates", 17.0, 19.0],
        [12, 0, "cli.read", 19.0, 19.5],
    ]
    metrics = run.layer_metrics({"spans": rows, "counts": {}}, 0.0, 0.0, 0.0)
    assert metrics["model.parse_s"] == 2.0
    assert metrics["validator.self_s"] == 1.0
    assert metrics["compare.group_s"] == 7.0
    assert metrics["compare.self_s"] == 2.0
    assert (metrics["kinematics.build_tree_s"], metrics["kinematics.fk_s"]) == (1.0, 4.0)
    assert (metrics["report.emit_s"], metrics["report.build_s"]) == (2.0, 0.25)
    assert metrics["dedup.enumerate_s"] == 1.0
    assert metrics["dedup.find_s"] == 2.0
    assert metrics["cli.read_s"] == 0.5


# --------------------------------------------------------------------------
# Traced run.
# --------------------------------------------------------------------------


def test_traced_run_spans_the_cli_own_calls_and_restores_them(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "src"))
    import trace_cli
    from urdf_inspect import cli, compare, kinematics, validator

    writer = corpus.CorpusWriter(tmp_path / "corpus")
    rng = random.Random(4)
    robot = corpus.random_robot(rng, "tiny", 5, (1, 0, 0, 0))
    meta = {"name": "Tiny", "type": "arm", "manufacturer": "acme"}
    for source in ("s1", "s2"):
        writer.source(source)
        corpus.write_bundle(writer, source, robot, meta, structure="A", license_id="",
                            xacro_flag=False)
    trace_path = tmp_path / "trace.json"
    assert trace_cli.main(["compare", str(writer.root), str(tmp_path / "out"), str(trace_path)]) == 0

    assert compare.fk_equivalent is kinematics.fk_equivalent
    assert cli.validate is validator.validate
    trace = json.loads(trace_path.read_text())
    spans = {row[0]: row for row in trace["spans"]}
    parent_name = {row[2]: spans[row[1]][2] for row in spans.values() if row[1] is not None}
    assert parent_name["model.parse_urdf"] == "validator.validate"
    assert parent_name["kinematics.fk_equivalent"] == "compare.compare_group"
    assert parent_name["compare.compare_group"] == "cli.command"
    assert trace["counts"]["model.files"] == 2
    assert trace["counts"]["bundles.walks"] == 4  # two globs per source in scan_corpus
    assert trace["fk_samples_by_robot"] == {"Tiny": corpus.FK_SAMPLES}
    assert (tmp_path / "out" / "discrepancies.csv").is_file()
