import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from urdf_inspect import _fs
from urdf_inspect.bundles import (
    LicenseId,
    StructureClass,
    classify_structure,
    contact_markers,
    detect_license,
    detect_xacro_generated,
    mesh_inventory,
    model_stats,
    name_substring_stats,
    scan_corpus,
)
from urdf_inspect.model import parse_urdf

from conftest import (LISTING1, XACRO_BANNER, simple_urdf, symlink, write_bundle,
                      write_source)

APACHE = "Apache License\nVersion 2.0, January 2004\nhttp://www.apache.org/licenses/"
BSD3 = ("Redistribution and use in source and binary forms, with or without modification, "
        "are permitted provided that the following conditions are met:\n"
        "1. Redistributions of source code ...\n2. Redistributions in binary form ...\n"
        "3. Neither the name of the copyright holder ...")
BSD2 = ("Redistribution and use in source and binary forms, with or without modification, "
        "are permitted provided that the following conditions are met:\n"
        "1. Redistributions of source code ...\n2. Redistributions in binary form ...")
MIT = "Permission is hereby granted, free of charge, to any person obtaining a copy ..."


class TestScanCorpus:
    def test_two_by_two(self, small_corpus):
        records = scan_corpus(small_corpus)
        assert len(records) == 4
        assert {r.source_name for r in records} == {"alpha", "beta"}
        assert all(r.urdf_file.is_file() for r in records)

    def test_metadata_fields(self, small_corpus):
        records = scan_corpus(small_corpus)
        gripper = next(r for r in records if r.robot_name == "gripper")
        assert gripper.robot_type == "end effector"
        assert gripper.manufacturer == "Acme"
        assert gripper.id == "gripper_description"
        planar_beta = next(r for r in records
                           if r.robot_name == "planar" and r.source_name == "beta")
        assert planar_beta.xacro_generated_by_dataset is True

    def test_missing_metadata_becomes_notice(self, tmp_path):
        source = write_source(tmp_path / "corpus", "solo")
        stray = source / "loose"
        stray.mkdir()
        (stray / "thing.urdf").write_text(simple_urdf())
        records = scan_corpus(tmp_path / "corpus")
        assert len(records) == 1
        assert records[0].robot_name == ""
        assert records[0].notices

    @pytest.mark.parametrize("location, notice", [
        ("{tmp}/outside/robot.urdf",
         "URDF location '{location}' names no URDF listed in the source"),
        ("../../../outside/robot.urdf",
         "URDF location '{location}' names no URDF listed in the source"),
        ("../../s2/b/urdf/robot.urdf",
         "URDF location '{location}' names no URDF listed in the source"),
        (".", "metadata gives no URDF location"),
        ("urdf/..", "metadata gives no URDF location"),  # the bundle directory itself
    ], ids=["absolute", "out-of-root", "other-source", "dot", "bundle-dir"])
    def test_urdf_location_leads_into_the_source(self, tmp_path, location, notice):
        location = location.format(tmp=tmp_path)
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "robot.urdf").write_text(simple_urdf())
        root = tmp_path / "corpus"
        write_bundle(write_source(root, "s2"), "b", simple_urdf())
        bundle = write_source(root, "s1") / "b"
        (bundle / "urdf").mkdir(parents=True)
        (bundle / "meta-information.json").write_text(
            json.dumps({"name": "r", "urdf-location": location}))
        assert [(r.urdf_path, r.notices) for r in scan_corpus(root) if r.source_name == "s1"] == [
            (Path(), (notice.format(location=location),))]

    @pytest.mark.parametrize("location", [
        "linked/robot.urdf", ".hidden/robot.urdf", "urdf/../linked/robot.urdf",
        "linked/../urdf/robot.urdf",  # lands in urdf/ by its spelling, but the link goes elsewhere
    ])
    def test_urdf_location_through_a_hidden_or_linked_directory_is_not_read(
            self, tmp_path, location):
        (tmp_path / "outside" / "urdf").mkdir(parents=True)
        (tmp_path / "outside" / "urdf" / "robot.urdf").write_text(simple_urdf())
        bundle = write_source(tmp_path / "corpus", "s1") / "b"
        for folder in ("urdf", ".hidden"):
            (bundle / folder).mkdir(parents=True)
            (bundle / folder / "robot.urdf").write_text(simple_urdf())
        symlink(tmp_path / "outside" / "urdf", bundle / "linked")
        (bundle / "meta-information.json").write_text(
            json.dumps({"name": "r", "urdf-location": location}))
        records = scan_corpus(tmp_path / "corpus", [])
        assert [(r.urdf_path, r.notices) for r in records if r.robot_name] == [(Path(), (
            f"URDF location '{location}' names no URDF listed in the source",))]

    @pytest.mark.parametrize("location", ["urdf/robot.urdf", "./urdf/../urdf/robot.urdf"])
    def test_urdf_location_through_entered_directories_is_read(self, tmp_path, location):
        bundle = write_source(tmp_path / "corpus", "s1") / "b"
        (bundle / "urdf").mkdir(parents=True)
        (bundle / "urdf" / "robot.urdf").write_text(simple_urdf())
        (bundle / "meta-information.json").write_text(
            json.dumps({"name": "r", "urdf-location": location}))
        assert [(r.urdf_path, r.notices) for r in scan_corpus(tmp_path / "corpus")] == [
            (Path(location), ())]

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_described_path_that_is_not_a_file_is_one_record(self, small_corpus, kind):
        path = small_corpus / "alpha" / "planar_description" / "urdf" / "planar.urdf"
        path.unlink()
        if kind == "directory":
            path.mkdir()
        elif hasattr(os, "mkfifo"):
            os.mkfifo(path)
        else:
            pytest.skip("needs named pipes")
        records = [r for r in scan_corpus(small_corpus) if r.source_name == "alpha"]
        assert [(r.id, r.urdf_path.as_posix(), r.notices) for r in records] == [
            ("gripper_description", "urdf/gripper.urdf", ()),
            ("planar_description", "urdf/planar.urdf", ())]

    @pytest.mark.parametrize("target", ["planar.urdf", "gone.urdf"])  # a loop, a dangling link
    def test_described_unreadable_symlink_is_one_record(self, small_corpus, target):
        path = small_corpus / "alpha" / "planar_description" / "urdf" / "planar.urdf"
        path.unlink()
        symlink(target, path)
        records = [r for r in scan_corpus(small_corpus) if r.source_name == "alpha"]
        assert [(r.id, r.urdf_path.as_posix(), r.notices) for r in records] == [
            ("gripper_description", "urdf/gripper.urdf", ()),
            ("planar_description", "urdf/planar.urdf", ())]

    @pytest.mark.parametrize("target", ["x.urdf", "gone.urdf"])
    def test_orphan_unreadable_symlink_is_one_record(self, tmp_path, target):
        source = write_source(tmp_path / "corpus", "solo")
        symlink(target, source / "x.urdf")
        assert [(r.id, r.notices) for r in scan_corpus(tmp_path / "corpus")] == [
            ("x.urdf", ("no meta-information.json describes this file",))]

    def test_urdf_listed_under_two_names_is_one_orphan(self, tmp_path):
        source = write_source(tmp_path / "corpus", "solo")
        (source / "robot.urdf").write_text(simple_urdf())
        symlink("robot.urdf", source / "alias.urdf")  # the first listed name names it
        assert [(r.id, r.urdf_path, r.notices) for r in scan_corpus(tmp_path / "corpus")] == [
            ("alias.urdf", Path("alias.urdf"), ("no meta-information.json describes this file",))]

    @pytest.mark.parametrize("location", ["urdf/robot.urdf", "urdf/alias.urdf",
                                          "../b/urdf/robot.urdf", "urdf/../urdf/robot.urdf"])
    def test_a_urdf_goes_to_the_first_entry_that_names_it(self, tmp_path, location):
        bundle = write_bundle(write_source(tmp_path / "corpus", "solo"), "b", simple_urdf(),
                              robot_name="robot")
        symlink("robot.urdf", bundle / "urdf" / "alias.urdf")
        (bundle / "meta-information.json").write_text(json.dumps(
            [{"name": "first", "urdf-location": "urdf/robot.urdf"},
             {"name": "second", "urdf-location": location}]))
        records = scan_corpus(tmp_path / "corpus")
        assert [(r.robot_name, r.urdf_path, r.notices) for r in records] == [
            ("second", Path(), (f"URDF location '{location}' names a URDF an earlier entry "
                                "describes",)),
            ("first", Path("urdf/robot.urdf"), ())]
        assert [r.name for r in records] == ["b", "b/urdf/alias.urdf"]  # the first listed name

    @pytest.mark.parametrize("location", ["{bundle}/urdf/robot.urdf", "../b/urdf/robot.urdf",
                                          "linked/robot.urdf"])
    def test_a_described_urdf_is_named_by_its_listed_path(self, tmp_path, location):
        bundle = write_source(tmp_path / "corpus", "solo") / "b"
        (bundle / "urdf").mkdir(parents=True)
        (bundle / "urdf" / "robot.urdf").write_text(simple_urdf())
        symlink("urdf", bundle / "linked")  # a link into the source
        location = location.format(bundle=bundle)  # read, and still named by no absolute path
        (bundle / "meta-information.json").write_text(
            json.dumps({"name": "r", "urdf-location": location}))
        records = scan_corpus(tmp_path / "corpus", [])
        assert [(r.urdf_path, r.name, r.notices) for r in records] == [
            (Path(location), "b/urdf/robot.urdf", ())]

    def test_key_aliases_tolerated(self, tmp_path):
        source = write_source(tmp_path / "corpus", "solo")
        bundle = source / "thing_description"
        bundle.mkdir()
        (bundle / "a.urdf").write_text(simple_urdf())
        (bundle / "meta-information.json").write_text(json.dumps({
            "robot_name": "thing", "robot-type": "robotic arm",
            "vendor": "Acme", "urdf_file": "a.urdf", "ID": "t1",
            "url": "https://x", "xacro_generated": True,
        }))
        record = scan_corpus(tmp_path / "corpus")[0]
        assert record.robot_name == "thing"
        assert record.manufacturer == "Acme"
        assert record.id == "t1"
        assert record.xacro_generated_by_dataset is True

    def test_meta_list_yields_one_record_each(self, tmp_path):
        source = write_source(tmp_path / "corpus", "solo")
        bundle = source / "multi_description"
        bundle.mkdir()
        (bundle / "a.urdf").write_text(simple_urdf("a"))
        (bundle / "b.urdf").write_text(simple_urdf("b"))
        (bundle / "meta-information.json").write_text(json.dumps([
            {"name": "a", "urdf-location": "a.urdf", "id": "a"},
            {"name": "b", "urdf-location": "b.urdf", "id": "b"},
        ]))
        assert len(scan_corpus(tmp_path / "corpus")) == 2

    @pytest.mark.parametrize("value", [5, ["x"], None])
    def test_non_string_source_name_falls_back(self, tmp_path, value):
        root = tmp_path / "corpus"
        for name in ("odd", "plain"):
            (write_source(root, name) / "r.urdf").write_text(simple_urdf("r"))
        (root / "odd" / "source-information.json").write_text(
            json.dumps({"name": value, "url": value, "source-url": "https://odd"}))
        assert [(r.source_name, r.source_url) for r in scan_corpus(root)] == [
            ("odd", "https://odd"), ("plain", "https://example.org/plain")]

    @settings(suppress_health_check=[HealthCheck.too_slow])  # the first text draw is slow
    @given(st.dictionaries(
        st.sampled_from(["name", "type", "manufacturer", "id", "urdf-location", "url"]),
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.just("")
        | st.text(st.characters(codec="utf-8"), max_size=8) | st.lists(st.integers(), max_size=2)
        | st.dictionaries(st.just("k"), st.integers())))
    def test_only_non_empty_string_meta_values_count(self, tmp_path_factory, meta):
        root = tmp_path_factory.mktemp("corpus")
        bundle = write_source(root, "solo") / "b"
        bundle.mkdir()
        (bundle / "meta-information.json").write_text(json.dumps(meta))
        [record] = scan_corpus(root)

        def want(key, fallback):
            value = meta.get(key)
            return value if isinstance(value, str) and value else fallback

        assert (record.robot_name, record.robot_type, record.manufacturer, record.id,
                record.urdf_path, record.source_url) == (
            want("name", ""), want("type", ""), want("manufacturer", ""), want("id", ""),
            Path(), want("url", "https://example.org/solo"))  # the source lists no URDF

    def test_first_alias_holding_text_wins(self, tmp_path):
        bundle = write_source(tmp_path / "corpus", "solo") / "b"
        bundle.mkdir()
        (bundle / "meta-information.json").write_text(
            json.dumps({"name": None, "robot_name": "bot", "type": "", "category": "arm"}))
        [record] = scan_corpus(tmp_path / "corpus")
        assert (record.robot_name, record.robot_type) == ("bot", "arm")

    @pytest.mark.parametrize("flags, expected", [
        ({"xacro-generated": "false"}, False),
        ({"xacro-generated": None, "xacro": True}, True),
        ({"xacro-generated": False, "xacro": True}, False),
    ])
    def test_xacro_flag_is_first_alias_holding_a_boolean(self, tmp_path, flags, expected):
        bundle = write_source(tmp_path / "corpus", "solo") / "b"
        bundle.mkdir()
        (bundle / "meta-information.json").write_text(json.dumps({"name": "bot", **flags}))
        [record] = scan_corpus(tmp_path / "corpus")
        assert record.xacro_generated_by_dataset is expected

    @pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000,
                                      '{"name": %s}' % ("9" * 5_000)], ids=["too-deep", "long-int"])
    def test_unreadable_source_information_falls_back_to_the_directory(self, tmp_path, text):
        root = tmp_path / "corpus"
        (write_source(root, "odd") / "r.urdf").write_text(simple_urdf("r"))
        (root / "odd" / "source-information.json").write_text(text)
        assert [(r.source_name, r.source_url) for r in scan_corpus(root)] == [("odd", "")]

    def test_source_url_aliases_in_meta_order(self, tmp_path):
        source = tmp_path / "corpus" / "solo"
        (source / "b").mkdir(parents=True)
        (source / "source-information.json").write_text(
            json.dumps({"url": "https://example.org/plain", "source-url": "https://example.org/src"}))
        (source / "b" / "meta-information.json").write_text(json.dumps({"name": "bot"}))
        [record] = scan_corpus(tmp_path / "corpus")
        assert record.source_url == "https://example.org/src"

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "null", "5", "{",
                                      pytest.param("[" * 200_000 + "]" * 200_000, id="too-deep"),
                                      pytest.param('{"id": %s}' % ("9" * 5_000), id="long-int")])
    def test_meta_without_object_is_one_placeholder(self, tmp_path, text):
        bundle = write_source(tmp_path / "corpus", "solo") / "b"
        bundle.mkdir()
        (bundle / "meta-information.json").write_text(text)
        [record] = scan_corpus(tmp_path / "corpus")
        assert (record.id, record.source_url, record.notices) == (
            "b", "https://example.org/solo", ("unreadable meta-information.json",))

    def test_id_repeated_within_a_source_is_noted_on_each(self, tmp_path):
        source = write_source(tmp_path / "corpus", "solo")
        for dirname in ("a_description", "b_description"):
            write_bundle(source, dirname, simple_urdf(), bundle_id="twin")
        write_bundle(source, "c_description", simple_urdf())
        notices = {r.root_dir.name: r.notices for r in scan_corpus(tmp_path / "corpus")}
        assert notices == {"a_description": ("id 'twin' is not unique within source",),
                           "b_description": ("id 'twin' is not unique within source",),
                           "c_description": ()}

    def test_id_repeated_across_sources_is_not_noted(self, small_corpus):
        assert all(r.notices == () for r in scan_corpus(small_corpus))

    def test_rescan_is_idempotent(self, small_corpus):
        assert scan_corpus(small_corpus) == scan_corpus(small_corpus)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(OSError):
            scan_corpus(tmp_path / "nope")

    def test_urdf_files_wrapper_dir(self, tmp_path):
        root = tmp_path / "dataset"
        source = write_source(root / "urdf_files", "solo")
        write_bundle(source, "x_description", simple_urdf(), robot_name="x")
        assert len(scan_corpus(root)) == 1


def make_layout(tmp_path, root_name, urdf_folder="urdf", meshes=True, urdf_in_folder=True):
    bundle = tmp_path / root_name
    (bundle / urdf_folder).mkdir(parents=True)
    if meshes:
        (bundle / "meshes" / "visual").mkdir(parents=True)
        (bundle / "meshes" / "collision").mkdir(parents=True)
    if urdf_in_folder:
        (bundle / urdf_folder / "robot.urdf").write_text(simple_urdf())
    else:
        (bundle / "robot.urdf").write_text(simple_urdf())
    return bundle


class TestClassifyStructure:
    def test_class_a(self, tmp_path):
        assert classify_structure(make_layout(tmp_path, "abc_description")) is StructureClass.A

    def test_class_b(self, tmp_path):
        assert classify_structure(make_layout(tmp_path, "kuka_kr6_support")) is StructureClass.B

    def test_class_c(self, tmp_path):
        bundle = make_layout(tmp_path, "abc_description", urdf_folder="robots")
        assert classify_structure(bundle) is StructureClass.C

    def test_class_d(self, tmp_path):
        bundle = make_layout(tmp_path, "gripper_visualization")
        assert classify_structure(bundle) is StructureClass.D

    def test_c_beats_a_when_both_folders_exist(self, tmp_path):
        bundle = make_layout(tmp_path, "abc_description")
        (bundle / "robots").mkdir()
        (bundle / "robots" / "alt.urdf").write_text(simple_urdf())
        assert classify_structure(bundle) is StructureClass.C

    @pytest.mark.parametrize("name,kwargs", [
        ("abc_description", {"meshes": False}),
        ("abc_description", {"urdf_in_folder": False}),
        ("abc_suport", {}),
        ("plain_robot", {}),
        ("gripper_visualization", {"urdf_folder": "robots"}),
    ])
    def test_near_misses_are_other(self, tmp_path, name, kwargs):
        assert classify_structure(make_layout(tmp_path, name, **kwargs)) is StructureClass.OTHER

    def test_support_needs_two_name_parts(self, tmp_path):
        assert classify_structure(make_layout(tmp_path, "kr6_support")) is StructureClass.OTHER

    def test_urdf_beside_an_empty_layout_folder_is_other(self, tmp_path):
        bundle = make_layout(tmp_path, "abc_description", urdf_folder="urdf2")
        (bundle / "urdf").mkdir()  # its name is a prefix of the folder holding the URDF
        assert classify_structure(bundle) is StructureClass.OTHER

    def test_hidden_urdf_does_not_make_a_layout(self, tmp_path):
        bundle = make_layout(tmp_path, "abc_description", urdf_in_folder=False)
        (bundle / "urdf" / ".backup").mkdir()
        (bundle / "urdf" / ".backup" / "robot.urdf").write_text(simple_urdf())
        assert classify_structure(bundle) is StructureClass.OTHER


class TestXacroDetection:
    def test_banner_detected(self):
        assert detect_xacro_generated(XACRO_BANNER + LISTING1.split("\n", 1)[1])

    def test_listing1_not_generated(self, listing1):
        assert not detect_xacro_generated(listing1)

    def test_empty_file(self):
        assert not detect_xacro_generated("")

    def test_xmlns_attribute_does_not_count(self):
        text = '<robot name="r" xmlns:xacro="http://wiki.ros.org/xacro"><link name="a"/></robot>'
        assert not detect_xacro_generated(text)

    def test_banner_past_ten_lines_ignored(self):
        text = "\n" * 11 + "<!-- autogenerated by xacro -->"
        assert not detect_xacro_generated(text)

    def test_form_feed_does_not_end_a_line(self):
        text = '<?xml version="1.0"?>\n' + "a\fb\fc\n" * 3 + "<!-- autogenerated by xacro -->"
        assert detect_xacro_generated(text)

    def test_case_insensitive(self):
        assert detect_xacro_generated("<!-- Produced by XACRO 1.13 -->\n<robot/>")


class TestMeshInventory:
    def test_extension_casing(self):
        model = parse_urdf(simple_urdf(visual_mesh="arm.DAE", collision_mesh="arm.stl"))
        inventory = mesh_inventory(model)
        assert inventory.visual == {"dae": 1}
        assert inventory.collision == {"stl": 1}

    def test_mixed_visual_types(self):
        text = """<robot name="r"><link name="a">
            <visual><geometry><mesh filename="b.stl"/></geometry></visual>
            <visual><geometry><mesh filename="c.dae"/></geometry></visual>
        </link></robot>"""
        inventory = mesh_inventory(parse_urdf(text))
        assert inventory.visual == {"stl": 1, "dae": 1}
        assert inventory.has_visual_meshes

    def test_primitive_only_robot(self, listing1):
        inventory = mesh_inventory(parse_urdf(listing1))
        assert inventory.visual == {} and inventory.collision == {}
        assert not inventory.has_visual_meshes

    def test_unknown_extension_is_other(self):
        model = parse_urdf(simple_urdf(visual_mesh="weird.ply"))
        assert mesh_inventory(model).visual == {"other": 1}

    @pytest.mark.parametrize("uri", ["meshes/hull", "package://pkg.v2/meshes/hull", "hull."])
    def test_uri_without_extension_is_other(self, uri):
        model = parse_urdf(simple_urdf(visual_mesh=uri))
        assert mesh_inventory(model).visual == {"other": 1}

    def test_invariant_under_link_reordering(self):
        a = parse_urdf(simple_urdf(visual_mesh="x.stl"))
        text = """<robot name="robot">
          <link name="tip"/>
          <link name="base"><visual><geometry><mesh filename="x.stl"/></geometry></visual></link>
          <joint name="j1" type="fixed"><parent link="base"/><child link="tip"/></joint>
        </robot>"""
        assert mesh_inventory(a) == mesh_inventory(parse_urdf(text))

    def test_dangling_reference_still_counted(self):
        model = parse_urdf(simple_urdf(visual_mesh="package://pkg/nowhere.stl"))
        assert mesh_inventory(model).visual == {"stl": 1}


class TestLicenseDetection:
    @pytest.mark.parametrize("text,expected", [
        (APACHE, LicenseId.APACHE_2),
        (BSD3, LicenseId.BSD_3),
        (BSD2, LicenseId.BSD_2),
        (MIT, LicenseId.MIT),
    ])
    def test_fingerprints(self, tmp_path, text, expected):
        bundle = tmp_path / "x_description"
        bundle.mkdir()
        (bundle / "LICENSE").write_text(text)
        assert detect_license(bundle) is expected

    def test_no_license_file(self, tmp_path):
        bundle = tmp_path / "bare"
        bundle.mkdir()
        assert detect_license(bundle) is LicenseId.UNKNOWN

    def test_copying_file_and_nested(self, tmp_path):
        bundle = tmp_path / "x"
        (bundle / "deep").mkdir(parents=True)
        (bundle / "deep" / "COPYING.txt").write_text(MIT)
        assert detect_license(bundle) is LicenseId.MIT

    @pytest.mark.parametrize("kind", ["directory", "dangling link", "named pipe"])
    def test_unreadable_license_file_skipped_for_the_next(self, tmp_path, kind):
        bundle = tmp_path / "x"
        bundle.mkdir()
        first = bundle / "COPYING"  # before LICENSE in str order
        if kind == "directory":
            first.mkdir()
        elif kind == "dangling link":
            symlink("nowhere", first)
        elif hasattr(os, "mkfifo"):
            os.mkfifo(first)
        else:
            pytest.skip("needs named pipes")
        (bundle / "LICENSE").write_text(BSD3)
        assert detect_license(bundle) is LicenseId.BSD_3
        assert detect_license(bundle, _fs.walk(tmp_path)) is LicenseId.BSD_3

    def test_unrelated_text_is_unknown(self, tmp_path):
        bundle = tmp_path / "x"
        bundle.mkdir()
        (bundle / "LICENSE").write_text("All rights reserved. Ask us first.")
        assert detect_license(bundle) is LicenseId.UNKNOWN

    def test_deterministic(self, tmp_path):
        bundle = tmp_path / "x"
        bundle.mkdir()
        (bundle / "LICENSE").write_text(APACHE)
        (bundle / "LICENSE-MIT").write_text(MIT)
        assert detect_license(bundle) is detect_license(bundle)

    def test_linked_directory_not_entered_and_named(self, tmp_path, capsys):
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "LICENSE").write_text(MIT)
        bundle = tmp_path / "x"
        bundle.mkdir()
        symlink("../elsewhere", bundle / "legal")
        assert detect_license(bundle) is LicenseId.UNKNOWN  # a standalone call names the link
        assert capsys.readouterr().err.splitlines() == [
            f"warning: cannot list {bundle / 'legal'}: linked directory, not followed"]
        errors: list[OSError] = []
        listing = _fs.walk(bundle, "*", errors)  # a list collects it
        assert detect_license(bundle, listing) is LicenseId.UNKNOWN
        assert capsys.readouterr().err == ""
        assert [(e.filename, e.strerror) for e in errors] == [
            (str(bundle / "legal"), "linked directory, not followed")]


class TestContactMarkers:
    def test_full_comment(self):
        markers = contact_markers('<!-- author: jane@corp.com -->')
        assert (markers.author, markers.at_sign, markers.dot_com) == (True, True, True)

    def test_listing1(self, listing1):
        markers = contact_markers(listing1)
        assert (markers.author, markers.at_sign, markers.dot_com) == (False, False, False)

    def test_substring_semantics(self):
        markers = contact_markers("package.com.stl")
        assert (markers.author, markers.at_sign, markers.dot_com) == (False, False, True)

    @given(st.text(max_size=80))
    def test_concatenation_never_clears_flags(self, text):
        single = contact_markers(text)
        double = contact_markers(text + text)
        assert (not single.author) or double.author
        assert (not single.at_sign) or double.at_sign
        assert (not single.dot_com) or double.dot_com


class TestNameSubstringStats:
    def test_world_count(self):
        text = """<robot name="r">
          <link name="world"/><link name="base"/>
          <joint name="world_joint" type="fixed"><parent link="world"/><child link="base"/></joint>
        </robot>"""
        assert name_substring_stats(parse_urdf(text), ["world"]) == {"world": 2}

    def test_flange_in_link_name(self):
        model = parse_urdf('<robot name="r"><link name="tool_flange"/></robot>')
        assert name_substring_stats(model, ["flange"]) == {"flange": 1}

    def test_empty_terms(self, listing1):
        assert name_substring_stats(parse_urdf(listing1), []) == {}

    def test_case_insensitive(self):
        model = parse_urdf('<robot name="r"><link name="World_Frame"/></robot>')
        assert name_substring_stats(model, ["world"]) == {"world": 1}


class TestModelStats:
    def test_mean(self):
        assert model_stats([("robotic arm", 10, 9), ("robotic arm", 12, 11)]) == {
            "robotic arm": (11, 10)}

    def test_rounding_half_up(self):
        assert model_stats([("end effector", 2, 1), ("end effector", 3, 2)]) == {
            "end effector": (3, 2)}

    def test_groups_are_independent(self):
        rows = [("robotic arm", 4, 3), ("mobile robot", 8, 7)]
        assert model_stats(rows) == {"robotic arm": (4, 3), "mobile robot": (8, 7)}

    def test_untyped_bundle_counts_towards_no_mean(self):
        assert model_stats([("", 50, 49), ("arm", 2, 1)]) == {"arm": (2, 1)}

    def test_empty_input(self):
        assert model_stats([]) == {}
