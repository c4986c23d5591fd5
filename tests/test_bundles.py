import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    resolve_mesh_uri,
    scan_corpus,
)
from urdf_inspect.model import parse_urdf

from conftest import LISTING1, XACRO_BANNER, simple_urdf, write_bundle, write_source

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
            Path(want("urdf-location", "")), want("url", "https://example.org/solo"))

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

    def test_source_url_aliases_in_meta_order(self, tmp_path):
        source = tmp_path / "corpus" / "solo"
        (source / "b").mkdir(parents=True)
        (source / "source-information.json").write_text(
            json.dumps({"url": "https://example.org/plain", "source-url": "https://example.org/src"}))
        (source / "b" / "meta-information.json").write_text(json.dumps({"name": "bot"}))
        [record] = scan_corpus(tmp_path / "corpus")
        assert record.source_url == "https://example.org/src"

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", "null", "5", "{"])
    def test_meta_without_object_is_one_placeholder(self, tmp_path, text):
        bundle = write_source(tmp_path / "corpus", "solo") / "b"
        bundle.mkdir()
        (bundle / "meta-information.json").write_text(text)
        [record] = scan_corpus(tmp_path / "corpus")
        assert (record.id, record.source_url, record.notices) == (
            "b", "https://example.org/solo", ("unreadable meta-information.json",))

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

    def test_invariant_under_link_reordering(self):
        a = parse_urdf(simple_urdf(visual_mesh="x.stl"))
        text = """<robot name="robot">
          <link name="tip"/>
          <link name="base"><visual><geometry><mesh filename="x.stl"/></geometry></visual></link>
          <joint name="j1" type="fixed"><parent link="base"/><child link="tip"/></joint>
        </robot>"""
        assert mesh_inventory(a) == mesh_inventory(parse_urdf(text))


class TestResolveMeshUri:
    def test_package_uri(self, tmp_path):
        (tmp_path / "meshes").mkdir()
        target = tmp_path / "meshes" / "arm.stl"
        target.write_bytes(b"solid\n")
        assert resolve_mesh_uri(tmp_path, "package://my_robot/meshes/arm.stl") == target

    def test_relative_path(self, tmp_path):
        (tmp_path / "meshes").mkdir()
        target = tmp_path / "meshes" / "arm.dae"
        target.write_text("<COLLADA/>")
        assert resolve_mesh_uri(tmp_path, "meshes/arm.dae") == target

    def test_missing_file_is_none(self, tmp_path):
        assert resolve_mesh_uri(tmp_path, "package://pkg/meshes/gone.stl") is None

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
    def _record(self, robot_type):
        # only robot_type matters for grouping
        from urdf_inspect.bundles import BundleRecord
        from pathlib import Path
        return BundleRecord(id="x", robot_name="x", robot_type=robot_type,
                            manufacturer="m", source_name="s", source_url="",
                            urdf_path=Path("x.urdf"), xacro_generated_by_dataset=False,
                            root_dir=Path("."))

    def _model(self, links, joints):
        parts = [f'<link name="l{i}"/>' for i in range(links)]
        for i in range(joints):
            parts.append(f'<joint name="j{i}" type="fixed">'
                         f'<parent link="l{i}"/><child link="l{i+1}"/></joint>')
        return parse_urdf(f'<robot name="r">{"".join(parts)}</robot>')

    def test_mean(self):
        rows = [(self._record("robotic arm"), self._model(10, 9)),
                (self._record("robotic arm"), self._model(12, 11))]
        assert model_stats(rows) == {"robotic arm": (11, 10)}

    def test_rounding_half_up(self):
        rows = [(self._record("end effector"), self._model(2, 1)),
                (self._record("end effector"), self._model(3, 2))]
        assert model_stats(rows) == {"end effector": (3, 2)}

    def test_groups_are_independent(self):
        rows = [(self._record("robotic arm"), self._model(4, 3)),
                (self._record("mobile robot"), self._model(8, 7))]
        assert model_stats(rows) == {"robotic arm": (4, 3), "mobile robot": (8, 7)}

    def test_empty_input(self):
        assert model_stats([]) == {}
