import gc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from urdf_inspect.model import (
    Box,
    Cylinder,
    JointKind,
    JointLimit,
    Mesh,
    Sphere,
    ParseFailure,
    line_count,
    parse_urdf,
)

from oracles import oracle_line_count, oracle_parse_urdf


class TestParseListing1:
    def test_names_and_counts(self, listing1):
        model = parse_urdf(listing1)
        assert model.name == "2 DOF planar robot"
        assert model.link_names() == ["base link", "link 1", "link 2"]
        assert model.joint_names() == ["joint 1", "joint 2"]

    def test_base_link_visual(self, listing1):
        model = parse_urdf(listing1)
        visual = model.links[0].visuals[0]
        assert visual.geometry == Box(size=(0.5, 0.5, 0.5))
        assert visual.origin.xyz == (0.0, 0.0, 0.25)
        assert visual.origin.rpy == (0.0, 0.0, 0.0)

    def test_first_joint(self, listing1):
        model = parse_urdf(listing1)
        joint = model.joints[0]
        assert joint.kind is JointKind.CONTINUOUS
        assert joint.parent == "base link"
        assert joint.child == "link 1"
        assert joint.axis == (0.0, 1.0, 0.0)
        assert joint.origin.xyz == (0.0, 0.0, 0.5)
        assert joint.limit is None

    def test_no_notices(self, listing1):
        assert parse_urdf(listing1).notices == ()


def outcome(parse, text):
    """A model's repr, or a failure's message and position."""
    try:
        return repr(parse(text))
    except ParseFailure as failure:
        return failure.message, failure.line, failure.column


def test_parse_leaves_no_cyclic_garbage(listing1):
    gc.collect()
    parse_urdf(listing1)
    assert gc.collect() == 0  # the parser and its handlers were freed by reference counting


@pytest.mark.parametrize("text", [
    '<robot name="x"><link>',
    '<robot name="r"><link name="a"><visual><origin xyz="1 2"/>'
    '<geometry><sphere radius="1"/></geometry></visual></link></robot>',
    "<model><link name='a'/></model>",
], ids=["xml_error", "held_failure", "non_robot_root"])
def test_failed_parse_leaves_no_cyclic_garbage(text):
    gc.collect()
    assert isinstance(outcome(parse_urdf, text), tuple)  # a failure's message and position
    assert gc.collect() == 0


def test_minimal_robot():
    model = parse_urdf('<robot name="m"><link name="l"/></robot>')
    assert model.name == "m"
    assert len(model.links) == 1
    assert len(model.joints) == 0


def test_unclosed_tag_fails():
    with pytest.raises(ParseFailure) as info:
        parse_urdf('<robot name="x"><link>')
    assert info.value.line >= 1


def test_non_robot_root_fails():
    with pytest.raises(ParseFailure):
        parse_urdf("<model><link name='a'/></model>")


def test_document_order_preserved():
    text = '<robot name="r">{}</robot>'.format(
        "".join(f'<link name="l{i}"/>' for i in range(10)))
    model = parse_urdf(text)
    assert model.link_names() == [f"l{i}" for i in range(10)]


def test_defaults_for_absent_origin_and_axis():
    model = parse_urdf("""
        <robot name="r">
          <link name="a"/><link name="b"/>
          <joint name="j" type="continuous">
            <parent link="a"/><child link="b"/>
          </joint>
        </robot>""")
    joint = model.joints[0]
    assert joint.origin.xyz == (0.0, 0.0, 0.0)
    assert joint.origin.rpy == (0.0, 0.0, 0.0)
    assert joint.axis == (1.0, 0.0, 0.0)


def test_wrong_arity_is_fatal_with_position():
    text = '<robot name="r">\n  <link name="a">\n    <visual><origin xyz="1 2"/><geometry><sphere radius="1"/></geometry></visual>\n  </link>\n</robot>'
    with pytest.raises(ParseFailure) as info:
        parse_urdf(text)
    assert "xyz" in info.value.message
    assert info.value.line == 3


def test_non_numeric_attribute_is_fatal():
    with pytest.raises(ParseFailure):
        parse_urdf('<robot name="r"><link name="a"><visual>'
                   '<geometry><box size="a b c"/></geometry></visual></link></robot>')


@pytest.mark.parametrize("xyz", ["1_0 0 0", "\uff11 0 0", "\u0663 0 0", "1\xa00 0"])
def test_only_ascii_numbers_without_separators_are_numeric(xyz):
    """float() takes a ``_`` digit separator and non-ASCII digits, and
    split() splits on a no-break space; urdfdom takes none of them."""
    text = ('<robot name="r">\n<link name="a"/><link name="b"/>\n'
            '<joint name="j" type="fixed"><parent link="a"/><child link="b"/>\n'
            f'  <origin xyz="{xyz}"/></joint>\n</robot>')
    expected = (f"attribute 'xyz' of <origin> is not numeric: {xyz!r}", 4, 2)
    assert outcome(parse_urdf, text) == outcome(oracle_parse_urdf, text) == expected


def test_unknown_element_becomes_notice():
    model = parse_urdf('<robot name="r"><link name="a"/><frobnicator/></robot>')
    assert any("frobnicator" in n.message for n in model.notices)


def test_standard_extensions_are_silent():
    model = parse_urdf('<robot name="r"><link name="a"/>'
                       '<gazebo reference="a"><material>x</material></gazebo>'
                       '<transmission name="t"/></robot>')
    assert model.notices == ()


def test_unknown_joint_type_kept_with_notice():
    model = parse_urdf("""
        <robot name="r"><link name="a"/><link name="b"/>
          <joint name="j" type="helical">
            <parent link="a"/><child link="b"/>
          </joint>
        </robot>""")
    joint = model.joints[0]
    assert joint.kind is None
    assert joint.type_name == "helical"
    assert any("helical" in n.message for n in model.notices)


def test_mesh_geometry_and_scale():
    model = parse_urdf("""
        <robot name="r"><link name="a">
          <visual><geometry><mesh filename="package://pkg/meshes/arm.DAE" scale="1 2 3"/></geometry></visual>
          <collision><geometry><mesh filename="hull.stl"/></geometry></collision>
        </link></robot>""")
    visual = model.links[0].visuals[0]
    assert visual.geometry == Mesh(uri="package://pkg/meshes/arm.DAE", scale=(1.0, 2.0, 3.0))
    collision = model.links[0].collisions[0]
    assert collision.geometry == Mesh(uri="hull.stl")


def test_inertial_parsing():
    model = parse_urdf("""
        <robot name="r"><link name="a">
          <inertial>
            <origin xyz="0 0 0.1"/>
            <mass value="2.5"/>
            <inertia ixx="1" ixy="0" ixz="0" iyy="1" iyz="0" izz="1"/>
          </inertial>
        </link></robot>""")
    inertial = model.links[0].inertial
    assert inertial.mass == 2.5
    assert inertial.origin.xyz == (0.0, 0.0, 0.1)
    assert inertial.inertia == (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)


def test_limit_attributes_optional():
    model = parse_urdf("""
        <robot name="r"><link name="a"/><link name="b"/>
          <joint name="j" type="revolute">
            <parent link="a"/><child link="b"/>
            <limit lower="-1.5" upper="1.5" effort="30"/>
          </joint>
        </robot>""")
    limit = model.joints[0].limit
    assert limit.lower == -1.5 and limit.upper == 1.5
    assert limit.effort == 30.0
    assert limit.velocity is None


def test_inverted_limit_bounds_noticed():
    model = parse_urdf("""
        <robot name="r"><link name="a"/><link name="b"/>
          <joint name="j" type="revolute">
            <parent link="a"/><child link="b"/>
            <limit lower="2" upper="-2" effort="1" velocity="1"/>
          </joint>
        </robot>""")
    assert any("lower bound" in n.message for n in model.notices)


def test_materials_collected():
    model = parse_urdf("""
        <robot name="r">
          <material name="steel"><color rgba="0.8 0.8 0.8 1"/></material>
          <link name="a">
            <visual>
              <geometry><sphere radius="1"/></geometry>
              <material name="steel"/>
            </visual>
          </link>
        </robot>""")
    assert [m.name for m in model.materials] == ["steel"]
    assert model.links[0].visuals[0].material_name == "steel"


def test_cylinder_geometry():
    model = parse_urdf('<robot name="r"><link name="a"><visual>'
                       '<geometry><cylinder radius="0.2" length="0.6"/></geometry>'
                       '</visual></link></robot>')
    assert model.links[0].visuals[0].geometry == Cylinder(radius=0.2, length=0.6)


def test_visual_without_geometry_skipped_with_notice():
    model = parse_urdf('<robot name="r"><link name="a"><visual>'
                       '<origin xyz="0 0 1"/></visual></link></robot>')
    assert model.links[0].visuals == ()
    assert len(model.notices) == 1


@pytest.mark.parametrize("shapes,messages", [
    ("", ["<geometry> holds no recognized shape; skipped"]),
    ('<capsule radius="1" length="2"/>',
     ["unknown geometry shape <capsule>", "<geometry> holds no recognized shape; skipped"]),
])
def test_geometry_without_a_recognized_shape_skipped_with_notice(shapes, messages):
    model = parse_urdf('<robot name="r"><link name="a"><collision>'
                       f"<geometry>{shapes}</geometry></collision></link></robot>")
    assert model.links[0].collisions == ()
    assert [n.message for n in model.notices] == messages


def test_negative_mass_kept_with_notice():
    model = parse_urdf('<robot name="r"><link name="a"><inertial><mass value="-2.5"/>'
                       '<inertia ixx="1" ixy="0" ixz="0" iyy="1" iyz="0" izz="1"/>'
                       "</inertial></link></robot>")
    assert model.links[0].inertial.mass == -2.5
    assert [(n.subject, n.message) for n in model.notices] == [("mass", "negative mass")]


# Every numeric attribute the parser reads, one element a line.  A
# placeholder is the attribute's key in NUMERIC: (attribute, arity, value).
NUMERIC_DOC = """<robot name="r">
<material name="paint">
<color {rgba}/>
</material>
<link name="a">
<inertial>
<mass {mass}/>
<inertia {ixx} {ixy} {ixz} {iyy} {iyz} {izz}/>
</inertial>
<visual><geometry>
<box {size}/>
</geometry></visual>
<visual><geometry>
<cylinder {cylinder_radius} {length}/>
</geometry></visual>
<visual><geometry>
<sphere {sphere_radius}/>
</geometry></visual>
<collision><geometry>
<mesh filename="m.stl" {scale}/>
</geometry></collision>
</link>
<link name="b"/>
<joint name="j" type="revolute">
<parent link="a"/><child link="b"/>
<origin {xyz} {rpy}/>
<axis {axis}/>
<limit {lower} {upper} {effort} {velocity}/>
</joint>
</robot>"""

NUMERIC = {
    "rgba": ("rgba", 4, "1 0 0 1"), "mass": ("value", 1, "2"),
    **{m: (m, 1, "1") for m in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")},
    "size": ("size", 3, "1 1 1"), "cylinder_radius": ("radius", 1, "0.1"),
    "length": ("length", 1, "0.2"), "sphere_radius": ("radius", 1, "0.3"),
    "scale": ("scale", 3, "1 2 3"), "xyz": ("xyz", 3, "0 0 1"), "rpy": ("rpy", 3, "0 1 0"),
    "axis": ("xyz", 3, "0 0 1"), "lower": ("lower", 1, "-1"), "upper": ("upper", 1, "1"),
    "effort": ("effort", 1, "10"), "velocity": ("velocity", 1, "2"),
}


def numeric_doc(key: str = "", raw: str | None = None) -> str:
    """NUMERIC_DOC with ``key``'s attribute set to ``raw``, or absent when None."""
    attrs = {k: f'{attr}="{value}"' for k, (attr, _, value) in NUMERIC.items()}
    if key:
        attrs[key] = "" if raw is None else f'{NUMERIC[key][0]}="{raw}"'
    return NUMERIC_DOC.format(**attrs)


def shapes(model):
    return [type(v.geometry) for v in model.links[0].visuals]


# What an absent attribute gives: its default, or its element skipped.
ABSENT = {
    "rgba": lambda m: m.materials == (),
    "scale": lambda m: m.links[0].collisions[0].geometry.scale == (1.0, 1.0, 1.0),
    "xyz": lambda m: m.joints[0].origin.xyz == (0.0, 0.0, 0.0),
    "rpy": lambda m: m.joints[0].origin.rpy == (0.0, 0.0, 0.0),
    "axis": lambda m: m.joints[0].axis == (1.0, 0.0, 0.0),
    **{b: (lambda m, b=b: getattr(m.joints[0].limit, b) is None)
       for b in ("lower", "upper", "effort", "velocity")},
}
SKIPPED = {
    "size": lambda m: shapes(m) == [Cylinder, Sphere],
    "cylinder_radius": lambda m: shapes(m) == [Box, Sphere],
    "length": lambda m: shapes(m) == [Box, Sphere],
    "sphere_radius": lambda m: shapes(m) == [Box, Cylinder],
    **{k: (lambda m: m.links[0].inertial is None)
       for k in ("mass", "ixx", "ixy", "ixz", "iyy", "iyz", "izz")},
}


def test_numeric_doc_parses_cleanly():
    model = parse_urdf(numeric_doc())
    assert model.notices == ()
    assert shapes(model) == [Box, Cylinder, Sphere]
    assert model.links[0].inertial.inertia == (1.0,) * 6
    assert model.joints[0].limit == JointLimit(-1.0, 1.0, 10.0, 2.0)


@pytest.mark.parametrize("key", NUMERIC)
class TestNumericAttribute:
    def line(self, key):
        return next(i for i, text in enumerate(NUMERIC_DOC.splitlines(), 1)
                    if "{" + key + "}" in text)

    def test_absent_gives_default_or_skip(self, key):
        model = parse_urdf(numeric_doc(key, None))
        if key in ABSENT:
            assert ABSENT[key](model)
            assert model.notices == ()
        else:
            assert SKIPPED[key](model)
            assert [n.message for n in model.notices if "skipped" in n.message]

    @pytest.mark.parametrize("arity", ["short", "long"])
    def test_wrong_arity_fails_at_element(self, key, arity):
        _, count, _ = NUMERIC[key]
        raw = " ".join(["1"] * (count - 1 if arity == "short" else count + 1))
        with pytest.raises(ParseFailure) as info:
            parse_urdf(numeric_doc(key, raw))
        assert f"must hold {count} numbers" in info.value.message
        assert info.value.line == self.line(key)

    def test_non_number_fails_at_element(self, key):
        _, count, _ = NUMERIC[key]
        with pytest.raises(ParseFailure) as info:
            parse_urdf(numeric_doc(key, " ".join(["x"] * count)))
        assert "is not numeric" in info.value.message
        assert info.value.line == self.line(key)

    def test_inf_gives_notice(self, key):
        attr, count, _ = NUMERIC[key]
        model = parse_urdf(numeric_doc(key, " ".join(["inf"] * count)))
        assert [n.line for n in model.notices
                if n.message == f"attribute '{attr}' holds a non-finite value"] == [self.line(key)]


def test_non_finite_value_noticed_at_every_occurrence():
    text = numeric_doc("xyz", "inf 0 0").replace('<axis xyz="0 0 1"/>', '<axis xyz="inf 0 0"/>')
    assert [n.subject for n in parse_urdf(text).notices] == ["axis", "origin"]


def test_inertia_with_missing_moment_is_skipped_before_any_read():
    model = parse_urdf(numeric_doc("ixy", None).replace('ixx="1"', 'ixx="oops"'))
    assert model.links[0].inertial is None
    assert [n.message for n in model.notices] == ["<inertia> is missing ixy; skipped"]


@pytest.mark.parametrize("size", ["-1 1 1", "nan -1 1", "1 0 1"])
def test_non_positive_box_dimension_noticed(size):
    model = parse_urdf(numeric_doc("size", size))
    assert "<box> has a non-positive dimension" in [n.message for n in model.notices]


class TestEncoding:
    def test_utf8_bom_accepted(self, listing1):
        model = parse_urdf(b"\xef\xbb\xbf" + listing1.encode("utf-8"))
        assert model.name == "2 DOF planar robot"

    def test_utf16_rejected(self, listing1):
        with pytest.raises(ParseFailure):
            parse_urdf(listing1.encode("utf-16"))

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParseFailure):
            parse_urdf(b'<robot name="\xff\xfe\x9c"/>')


def test_parse_is_deterministic(listing1):
    assert parse_urdf(listing1) == parse_urdf(listing1)


@given(st.one_of(st.binary(max_size=300), st.text(max_size=300)))
def test_parse_never_aborts_on_arbitrary_input(data):
    try:
        parse_urdf(data)
    except ParseFailure:
        pass


class TestPrecedence:
    """An XML error anywhere wins over a URDF failure; of repeated children,
    the first is read."""

    def test_xml_error_after_bad_arity_wins(self):
        text = ('<robot name="r">\n<link name="a">\n<visual><origin xyz="1 2"/>'
                '<geometry><sphere radius="1"/></geometry></visual>\n</link>\n'
                '<link name="b">\n</robot>')
        assert outcome(parse_urdf, text) == ("mismatched tag: line 6, column 2", 6, 2)

    def test_xml_error_after_non_robot_root_wins(self):
        text = '<model>\n<link name="a"/>\n<link>\n</model>'
        assert outcome(parse_urdf, text) == ("mismatched tag: line 4, column 2", 4, 2)

    def test_first_failure_in_document_order_wins(self):
        text = ('<robot name="r">\n<joint name="j" type="fixed"><origin xyz="1"/></joint>\n'
                '<link name="a"><visual><geometry><box size="1"/></geometry></visual></link>\n'
                '</robot>')
        assert outcome(parse_urdf, text) == (
            "attribute 'xyz' of <origin> must hold 3 numbers, got 1", 2, 29)

    def visual(self, children):
        model = parse_urdf(f'<robot name="r"><link name="a"><visual>{children}</visual></link>'
                           '<material name="steel"><color rgba="1 1 1 1"/></material></robot>')
        return model, model.links[0].visuals[0]

    def test_second_origin_ignored(self):
        _, visual = self.visual('<origin xyz="0 0 1"/><origin xyz="1 2"/>'
                                '<geometry><sphere radius="1"/></geometry>')
        assert visual.origin.xyz == (0.0, 0.0, 1.0)

    def test_second_geometry_ignored(self):
        _, visual = self.visual('<geometry><sphere radius="1"/></geometry>'
                                '<geometry><box size="x"/></geometry>')
        assert visual.geometry == Sphere(1.0)

    def test_second_material_ignored(self):
        model, visual = self.visual('<geometry><sphere radius="1"/></geometry>'
                                    '<material name="paint"><color rgba="1 0 0 1"/></material>'
                                    '<material name="ink"><color rgba="x"/></material>')
        assert visual.material_name == "paint"
        assert [m.name for m in model.materials] == ["paint", "steel"]

    INERTIAL = '<inertial><mass value="{}"/><inertia {}/></inertial>'
    MOMENTS = 'ixx="1" ixy="0" ixz="0" iyy="1" iyz="0" izz="1"'

    def test_second_inertial_read_when_first_skipped(self):
        model = parse_urdf('<robot name="r"><link name="a">'
                           + self.INERTIAL.format(1, 'ixx="1"')
                           + self.INERTIAL.format(2, self.MOMENTS) + '</link></robot>')
        assert model.links[0].inertial.mass == 2.0
        assert [n.message for n in model.notices] == [
            "<inertia> is missing ixy, ixz, iyy, iyz, izz; skipped"]

    def test_second_inertial_noticed_when_first_read(self):
        model = parse_urdf('<robot name="r"><link name="a">'
                           + self.INERTIAL.format(1, self.MOMENTS)
                           + '\n' + self.INERTIAL.format("x", 'ixx="y"') + '</link></robot>')
        assert model.links[0].inertial.mass == 1.0
        assert [(n.message, n.line) for n in model.notices] == [("extra <inertial> ignored", 2)]


# The URDF vocabulary: the children an element holds, in the usual order,
# and the attributes it may carry.  Any element may also hold duplicates
# and elements that are unmodeled ("gazebo"), unknown ("vendor") or out of
# place ("link" in a <joint>), each with a subtree of its own.
CHILDREN = {
    "link": ["inertial", "visual", "collision"],
    "inertial": ["origin", "mass", "inertia"],
    "visual": ["origin", "geometry", "material"],
    "collision": ["origin", "geometry"],
    "material": ["color", "texture"],
    "joint": ["parent", "child", "origin", "axis", "limit"],
}
ROBOT_CHILDREN = ["link", "link", "joint", "joint", "material", "gazebo", "vendor"]
SHAPES = ["box", "cylinder", "sphere", "mesh", "vendor"]
ODD = ["vendor", "xacro:macro", "gazebo", "mimic", "link", "origin", "geometry", "material"]
NAMES = ["a", "b", "c", ""]
TEXT_ATTRS = {
    "name": st.sampled_from(NAMES), "link": st.sampled_from(NAMES),
    "type": st.sampled_from([k.value for k in JointKind] + ["helical", ""]),
    "filename": st.sampled_from(["m.stl", "package://p/m.DAE", ""]),
    "version": st.just("1.0"), "xmlns:xacro": st.just("http://ros.org/wiki/xacro"),
}
ARITIES = {"xyz": 3, "rpy": 3, "size": 3, "scale": 3, "rgba": 4,
           **dict.fromkeys(["radius", "length", "value", "ixx", "ixy", "ixz", "iyy", "iyz",
                            "izz", "lower", "upper", "effort", "velocity"], 1)}
ATTRIBUTES = {
    "robot": ["name", "version", "xmlns:xacro"], "link": ["name"],
    "joint": ["name", "type"], "material": ["name"], "texture": ["filename"],
    "mesh": ["filename", "scale"], "parent": ["link"], "child": ["link"],
    "origin": ["xyz", "rpy"], "axis": ["xyz"], "limit": ["lower", "upper", "effort", "velocity"],
    "box": ["size"], "cylinder": ["radius", "length"], "sphere": ["radius"], "mass": ["value"],
    "inertia": ["ixx", "ixy", "ixz", "iyy", "iyz", "izz"], "color": ["rgba"],
}
FINITE = st.sampled_from(["0", "1", "-1", "0.5", "2e-3", " 3 "])
ANY_NUMBER = st.sampled_from(["1", "-2", "nan", "inf", "-inf", "x", "1,2", "1_0", "\uff11",
                              "1\xa00"])


def numbers(count):
    """Mostly ``count`` finite numbers; else a wrong arity, a non-number,
    nan or inf."""
    good = st.lists(FINITE, min_size=count, max_size=count)
    odd = st.lists(ANY_NUMBER, min_size=max(count - 1, 0), max_size=count + 1)
    return st.integers(0, 15).flatmap(lambda roll: odd if roll == 0 else good).map(" ".join)


@st.composite
def urdf_documents(draw):
    """A URDF document, sometimes with a root other than <robot>, and
    sometimes truncated."""
    def element(tag, depth):
        attrs = "".join(
            f' {attr}="{draw(TEXT_ATTRS[attr] if attr in TEXT_ATTRS else numbers(ARITIES[attr]))}"'
            for attr in ATTRIBUTES.get(tag, []) if draw(st.integers(0, 9)))
        if tag == "robot":
            kids = draw(st.lists(st.sampled_from(ROBOT_CHILDREN), max_size=6))
        elif tag == "geometry":
            kids = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=2))
        else:  # each usual child, mostly
            kids = [kid for kid in CHILDREN.get(tag, []) if draw(st.integers(0, 4))]
        if depth < 5:
            for odd in draw(st.lists(st.sampled_from(CHILDREN.get(tag, []) + ODD), max_size=1)):
                kids.insert(draw(st.integers(0, len(kids))), odd)
        inner = "".join(element(kid, depth + 1) for kid in kids)
        sep = draw(st.sampled_from(["", "\n"]))
        return f"<{tag}{attrs}>{sep}{inner}</{tag}>{sep}" if inner else f"<{tag}{attrs}/>{sep}"

    text = element(draw(st.sampled_from(["robot"] * 9 + ["model"])), 0)
    if draw(st.integers(0, 7)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(urdf_documents())
def test_one_pass_matches_tree_walk(text):
    assert outcome(parse_urdf, text) == outcome(oracle_parse_urdf, text)


class TestLineCount:
    @pytest.mark.parametrize("text,expected", [
        ("", 0),
        ("a\nb\n", 2),
        ("a\nb", 2),
        ("\n", 1),
        ("a\r\nb\rc\nd", 4),
    ])
    def test_examples(self, text, expected):
        assert line_count(text) == expected

    @given(st.text(alphabet="ab\r\n\t ", max_size=120))
    def test_matches_oracle(self, text):
        assert line_count(text) == oracle_line_count(text)
