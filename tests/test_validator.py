from hypothesis import example, given, settings, strategies as st

from urdf_inspect.kinematics import TreeError, build_tree
from urdf_inspect.model import Joint, JointKind, Link, RobotModel, parse_urdf
from urdf_inspect.validator import kinematic_sanity, validate

from conftest import LISTING1
from oracles import oracle_graph_problems

TWO_LINKS = '<link name="a"/><link name="b"/>'


def joint(type_, name="j", parent="a", child="b", body=""):
    return (f'<joint name="{name}" type="{type_}">'
            f'<parent link="{parent}"/><child link="{child}"/>{body}</joint>')


def test_revolute_without_limit_is_error_a():
    result = validate(f'<robot name="r">{TWO_LINKS}{joint("revolute")}</robot>')
    assert result.error_codes() == ["A"]
    assert result.model is None


def test_limit_missing_effort_or_velocity_is_error_a():
    partial = '<limit lower="0" upper="1" effort="5"/>'
    result = validate(f'<robot name="r">{TWO_LINKS}{joint("prismatic", body=partial)}</robot>')
    assert result.error_codes() == ["A"]
    assert "velocity" in result.diagnostics[0].message


def test_continuous_exempt_from_limit_check():
    result = validate(f'<robot name="r">{TWO_LINKS}{joint("continuous")}</robot>')
    assert result.model is not None


def test_no_links_is_error_b():
    result = validate('<robot name="r"/>')
    assert result.error_codes() == ["B"]


def test_duplicate_link_is_error_c():
    result = validate('<robot name="r"><link name="a"/><link name="a"/></robot>')
    assert result.error_codes() == ["C"]
    assert result.diagnostics[0].subject == "a"


def test_missing_robot_name_is_error_d():
    result = validate('<robot><link name="a"/></robot>')
    assert result.error_codes() == ["D"]


def test_empty_robot_name_is_error_d():
    result = validate('<robot name=""><link name="a"/></robot>')
    assert result.error_codes() == ["D"]


def test_unknown_parent_is_error_e():
    result = validate(f'<robot name="r">{TWO_LINKS}{joint("fixed", parent="ghost")}</robot>')
    assert result.error_codes() == ["E"]
    assert "ghost" in result.diagnostics[0].message


def test_unknown_child_is_error_e():
    result = validate(f'<robot name="r">{TWO_LINKS}{joint("fixed", child="ghost")}</robot>')
    assert result.error_codes() == ["E"]


def test_malformed_xml_is_error_f():
    result = validate('<robot name="r"><link name="a">')
    assert result.error_codes() == ["F"]
    assert result.diagnostics[0].line >= 1


def test_f_preempts_other_checks():
    # the document also lacks links and a name, but there is no model to inspect
    result = validate("<robot ")
    assert result.error_codes() == ["F"]


def test_listing1_is_clean(listing1):
    result = validate(listing1)
    assert result.diagnostics == []
    assert result.model is not None


def test_multiple_codes_reported_together():
    text = f'<robot>{TWO_LINKS}<link name="a"/>{joint("revolute", parent="ghost")}</robot>'
    result = validate(text)
    assert sorted(set(result.error_codes())) == ["A", "C", "D", "E"]


def test_diagnostics_ordered_by_position():
    text = ('<robot name="r">\n'
            '  <link name="a"/>\n'
            '  <link name="a"/>\n'
            f'  {joint("revolute", parent="a", child="a")}\n'
            '</robot>')
    result = validate(text)
    lines = [d.line for d in result.diagnostics]
    assert lines == sorted(lines)


def test_removing_defect_removes_diagnostic():
    full_limit = "<limit effort='1' velocity='1'/>"
    bad = f'<robot name="r">{TWO_LINKS}{joint("revolute")}</robot>'
    fixed = f'<robot name="r">{TWO_LINKS}{joint("revolute", body=full_limit)}</robot>'
    assert validate(bad).error_codes() == ["A"]
    assert validate(fixed).error_codes() == []


def test_undefined_material_warning():
    text = ('<robot name="r"><link name="a"><visual>'
            '<geometry><sphere radius="1"/></geometry>'
            '<material name="mystery"/></visual></link></robot>')
    result = validate(text)
    assert [d.code for d in result.diagnostics] == ["W_UNDEFINED_MATERIAL"]
    assert result.model is not None


def test_material_defined_at_top_level_is_fine():
    text = ('<robot name="r">'
            '<material name="steel"><color rgba="1 1 1 1"/></material>'
            '<link name="a"><visual><geometry><sphere radius="1"/></geometry>'
            '<material name="steel"/></visual></link></robot>')
    assert validate(text).diagnostics == []


def test_material_defined_inline_elsewhere_is_fine():
    text = ('<robot name="r">'
            '<link name="a"><visual><geometry><sphere radius="1"/></geometry>'
            '<material name="steel"><color rgba="1 1 1 1"/></material></visual></link>'
            '<link name="b"><visual><geometry><sphere radius="1"/></geometry>'
            '<material name="steel"/></visual></link></robot>')
    assert validate(text).diagnostics == []


def test_unknown_joint_type_is_warning_only():
    result = validate(f'<robot name="r">{TWO_LINKS}{joint("helical")}</robot>')
    assert result.model is not None
    assert [d.code for d in result.diagnostics] == ["W_OTHER"]


def test_validate_is_reproducible(listing1):
    bad = f'<robot>{TWO_LINKS}<link name="a"/>{joint("revolute", parent="ghost")}</robot>'
    assert validate(bad).diagnostics == validate(bad).diagnostics
    assert validate(listing1).diagnostics == validate(listing1).diagnostics


class TestKinematicSanity:
    def test_serial_chain_is_quiet(self, listing1):
        model = validate(listing1).model
        assert kinematic_sanity(model) == []

    def test_cycle_warning(self):
        text = (f'<robot name="r">{TWO_LINKS}'
                + joint("fixed", name="j1", parent="a", child="b")
                + joint("fixed", name="j2", parent="b", child="a")
                + "</robot>")
        diags = kinematic_sanity(parse_urdf(text))
        assert any("cycle" in d.message for d in diags)
        assert all(d.severity == "warning" for d in diags)

    def test_two_roots_warning(self):
        model = parse_urdf(f'<robot name="r">{TWO_LINKS}</robot>')
        diags = kinematic_sanity(model)
        assert any("root" in d.message for d in diags)

    def test_unreachable_warning(self):
        text = ('<robot name="r"><link name="a"/><link name="b"/><link name="c"/>'
                + joint("fixed", name="j1", parent="b", child="c")
                + joint("fixed", name="j2", parent="c", child="b")
                + "</robot>")
        diags = kinematic_sanity(parse_urdf(text))
        assert any("cycle" in d.message for d in diags)

    def test_no_root_without_cycle_is_not_a_cycle(self):
        text = ('<robot name="r"><link name="a"/>'
                + joint("fixed", name="j", parent="ghost", child="a") + "</robot>")
        diags = kinematic_sanity(parse_urdf(text))
        assert [(d.code, d.subject, d.message) for d in diags] == [
            ("W_OTHER", "r", "joint graph has no root link")]

    def test_validated_model_never_aborts(self, listing1):
        result = validate(listing1)
        assert isinstance(kinematic_sanity(result.model), list)

    def test_link_with_two_parent_joints_warns(self):
        text = ('<robot name="r"><link name="a"/><link name="b"/><link name="c"/>'
                '<link name="d"/>'
                + joint("fixed", name="j1", parent="a", child="b")
                + joint("fixed", name="j2", parent="a", child="c")
                + joint("fixed", name="j3", parent="b", child="d")
                + joint("fixed", name="j4", parent="c", child="d")
                + "</robot>")
        diags = kinematic_sanity(validate(text).model)
        assert [(d.code, d.subject, d.message) for d in diags] == [
            ("W_OTHER", "d", "link 'd' is the child of several joints")]


def graph_urdf(links: int, edges: list[tuple[int, int, str]]) -> str:
    body = "".join(f'<link name="l{i}"/>' for i in range(links))
    body += "".join(joint(kind, name=f"j{n}", parent=f"l{p}", child=f"l{c}")
                    for n, (p, c, kind) in enumerate(edges))
    return f'<robot name="r">{body}</robot>'


@st.composite
def joint_graphs(draw):
    links = draw(st.integers(1, 6))
    index = st.integers(0, links - 1)
    edges = draw(st.lists(st.tuples(index, index, st.sampled_from(["fixed", "continuous"])),
                          max_size=8))
    return links, edges


@given(joint_graphs())
@example((4, [(0, 1, "fixed"), (0, 2, "fixed"), (1, 3, "fixed"), (2, 3, "fixed")]))
def test_build_tree_fails_iff_sanity_warns(graph):
    # fixed and continuous joints need no limit and default to a non-zero axis
    model = validate(graph_urdf(*graph)).model
    assert model is not None
    try:
        build_tree(model)
        reason = None
    except TreeError as error:
        reason = error.reason
    assert (reason is not None) == bool(kinematic_sanity(model))
    problems = oracle_graph_problems(model)
    assert reason == (problems[0][0] if problems else None)


@st.composite
def declaration_orders(draw):
    """A joint graph and an order of its link and joint declarations, as
    indices into links + joints."""
    links, edges = draw(joint_graphs())
    return links, edges, draw(st.permutations(range(links + len(edges))))


@given(declaration_orders())
@example((3, [(1, 2, "fixed")], [2, 1, 0, 3]))  # roots l0 and l1, l1 declared first
@example((4, [(0, 2, "fixed"), (1, 2, "fixed"), (0, 3, "fixed"), (1, 3, "fixed")],
          [3, 2, 1, 0, 4, 5, 6, 7]))  # l2 and l3 each the child of two joints, l3 declared first
def test_declaration_order_changes_no_w_other_row(graph):
    links, edges, order = graph
    declarations = [f'<link name="l{i}"/>' for i in range(links)]
    declarations += [joint(kind, name=f"j{n}", parent=f"l{p}", child=f"l{c}")
                     for n, (p, c, kind) in enumerate(edges)]

    def w_other_rows(body: list[str]) -> list[tuple[str, str]]:
        result = validate(f'<robot name="r">{"".join(body)}</robot>')
        diags = result.diagnostics + kinematic_sanity(result.model)
        return [(d.subject, d.message) for d in diags if d.code == "W_OTHER"]

    assert w_other_rows([declarations[i] for i in order]) == w_other_rows(declarations)


@st.composite
def raw_joint_graphs(draw):
    """Models no validation vetted: link names may repeat or be missing,
    and joints may name undeclared links ("e", "f")."""
    links = draw(st.lists(st.sampled_from("abcd"), max_size=5))
    ends = st.sampled_from("abcdef")
    joints = draw(st.lists(st.tuples(ends, ends), max_size=7))
    return RobotModel(draw(st.sampled_from(["r", ""])), tuple(Link(name) for name in links),
                      tuple(Joint(f"j{n}", JointKind.FIXED, "fixed", parent, child)
                            for n, (parent, child) in enumerate(joints)))


@given(raw_joint_graphs())
@example(RobotModel("r", (), ()))
@example(RobotModel("", (Link("a"),), (Joint("j", JointKind.FIXED, "fixed", "ghost", "a"),)))
def test_sanity_matches_brute_force_oracle(model):
    expected = oracle_graph_problems(model) if model.links else []
    assert [(d.severity, d.code, d.subject, d.message) for d in kinematic_sanity(model)] == [
        ("warning", "W_OTHER", subject, message) for _, subject, message in expected]


# --------------------------------------------------------------------------
# Parser fuzz and regression tests.
# --------------------------------------------------------------------------

LISTING1_BYTES = LISTING1.encode()


@st.composite
def mutated_listing1(draw):
    """LISTING1 with 1-8 bytes flipped, deleted, inserted or duplicated."""
    data = bytearray(LISTING1_BYTES)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["flip", "delete", "insert", "duplicate"]))
        at = draw(st.integers(0, len(data) - 1))
        if kind == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "delete":
            del data[at]
        elif kind == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        else:
            data[at:at] = data[at:at + draw(st.integers(1, 64))]
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(mutated_listing1())
def test_mutated_listing1_gives_a_model_or_an_error(data):
    result = validate(data)
    if result.model is None:
        assert any(d.severity == "error" for d in result.diagnostics)
    else:
        assert isinstance(kinematic_sanity(result.model), list)


def test_billion_laughs_is_f():
    lol = "".join(f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">' for i in range(1, 10))
    text = (f'<?xml version="1.0"?><!DOCTYPE r [<!ENTITY lol0 "lol">{lol}]>'
            '<robot name="&lol9;"><link name="a"/></robot>')
    result = validate(text)
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["F"]


def test_deeply_nested_unknown_elements_parse():
    depth = 200_000
    text = '<robot name="r"><link name="a"/>' + "<x>" * depth + "</x>" * depth + "</robot>"
    result = validate(text)
    assert result.model is not None and result.model.link_names() == ["a"]
