import random
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from urdf_inspect.bundles import BundleRecord
from urdf_inspect.compare import compare_group, find_multiply_defined, robot_key
from urdf_inspect.model import parse_urdf

from conftest import LISTING1
from oracles import oracle_discrepancy_flags


def record(source, name, manufacturer="Acme", rid=None):
    return BundleRecord(
        id=rid or f"{source}-{name}",
        robot_name=name,
        robot_type="robotic arm",
        manufacturer=manufacturer,
        source_name=source,
        source_url="",
        urdf_path=Path(f"{name}.urdf"),
        xacro_generated_by_dataset=False,
        root_dir=Path("."),
    )


def bundle(source, name, text, manufacturer="Acme", rid=None):
    rec = record(source, name, manufacturer, rid)
    try:
        model = parse_urdf(text) if text is not None else None  # None: the file was not read
    except Exception:
        model = None
    return rec, model, text


class TestFindMultiplyDefined:
    def test_same_robot_in_two_sources(self):
        records = [record("matlab", "UR5e", "Universal Robots"),
                   record("ros-industrial", "ur5e", "universal robots")]
        groups = find_multiply_defined(records)
        assert len(groups) == 1
        key = next(iter(groups))
        assert key == ("universalrobots", "ur5e")
        assert len(groups[key]) == 2

    def test_single_source_robot_excluded(self):
        records = [record("matlab", "solo"),
                   record("matlab", "solo", rid="variant-2")]
        assert find_multiply_defined(records) == {}

    def test_unnamed_records_ignored(self):
        records = [record("a", ""), record("b", "")]
        assert find_multiply_defined(records) == {}

    def test_key_normalization_strips_punctuation(self):
        assert robot_key(record("s", "KR 6 R700-2", "KUKA")) == ("kuka", "kr6r7002")

    def test_variants_stay_listed(self):
        records = [record("a", "bot"), record("a", "bot", rid="v2"), record("b", "bot")]
        groups = find_multiply_defined(records)
        assert len(groups[("acme", "bot")]) == 3


WORLD_EXTRA = ('<link name="world"/>'
               '<joint name="world_joint" type="fixed">'
               '<parent link="world"/><child link="base link"/></joint>')


def with_world(text: str) -> str:
    # rooted at a new "world" link; base link becomes its child
    return text.replace("</robot>", WORLD_EXTRA + "</robot>")


class TestCompareGroup:
    def test_identical_bundles_all_false(self):
        report = compare_group([bundle("a", "bot", LISTING1), bundle("b", "bot", LISTING1)])
        assert not report.any
        assert not report.any_excl_lines
        assert report.diff_fk is False

    def test_trailing_blank_lines_only_diff_lines(self):
        report = compare_group([bundle("a", "bot", LISTING1),
                                bundle("b", "bot", LISTING1 + "\n\n")])
        assert report.diff_lines
        assert report.any
        assert not report.any_excl_lines
        assert report.diff_fk is False

    def test_world_link_changes_counts(self):
        report = compare_group([bundle("a", "bot", LISTING1),
                                bundle("b", "bot", with_world(LISTING1))])
        assert report.diff_joints and report.diff_links
        assert report.any_excl_lines

    def test_origin_shift_changes_fk_only(self):
        shifted = LISTING1.replace('<origin xyz="0 0 0.5"/>', '<origin xyz="0 0 0.6"/>', 1)
        report = compare_group([bundle("a", "bot", LISTING1), bundle("b", "bot", shifted)])
        assert report.diff_fk is True
        assert not report.diff_joints and not report.diff_links

    def test_mesh_extension_sets_compared(self):
        stl = LISTING1.replace('<box size="0.5 0.5 0.5"/>', '<mesh filename="base.stl"/>')
        dae = LISTING1.replace('<box size="0.5 0.5 0.5"/>', '<mesh filename="base.dae"/>')
        report = compare_group([bundle("a", "bot", stl), bundle("b", "bot", dae)])
        assert report.diff_cad_types
        assert report.diff_fk is False

    def test_unparseable_member_incomparable(self):
        report = compare_group([bundle("a", "bot", LISTING1),
                                bundle("b", "bot", "<robot name='x'><link>")])
        assert report.diff_fk is None
        assert report.diff_lines  # raw text still comparable

    def test_unread_member_gives_no_line_count(self):
        report = compare_group([bundle("a", "bot", LISTING1), bundle("b", "bot", None)])
        assert not report.diff_lines and not report.any
        assert report.diff_fk is None

    def test_same_source_pairs_skipped(self):
        shifted = LISTING1.replace('<origin xyz="0 0 0.5"/>', '<origin xyz="0 0 0.9"/>', 1)
        report = compare_group([bundle("a", "bot", LISTING1),
                                bundle("a", "bot", shifted),
                                bundle("b", "bot", LISTING1)])
        # the only cross-source pairs are (a#1, b) and (a#2, b)
        assert report.diff_fk is True

    def test_permutation_invariance(self):
        bundles = [bundle("a", "bot", LISTING1),
                   bundle("b", "bot", with_world(LISTING1)),
                   bundle("c", "bot", LISTING1 + "\n")]
        forward = compare_group(bundles)
        shuffled = compare_group([bundles[2], bundles[0], bundles[1]])
        assert forward == shuffled

    def test_flag_identities_on_randomized_groups(self):
        rng = random.Random(424242)
        extensions = ["stl", "dae", "obj"]
        for trial in range(40):
            members = []
            for s in range(rng.randint(2, 4)):
                text = LISTING1
                if rng.random() < 0.4:
                    text = with_world(text)
                if rng.random() < 0.4:
                    ext = rng.choice(extensions)
                    text = text.replace('<box size="0.5 0.5 0.5"/>',
                                        f'<mesh filename="base.{ext}"/>')
                if rng.random() < 0.4:
                    z = rng.choice(["0.5", "0.6", "0.7"])
                    text = text.replace('<origin xyz="0 0 0.5"/>', f'<origin xyz="0 0 {z}"/>', 1)
                if rng.random() < 0.4:
                    text += "\n" * rng.randint(1, 3)
                members.append(bundle(f"s{s}", "bot", text))
            report = compare_group(members)
            flags = (report.diff_joints, report.diff_links, report.diff_cad_types,
                     report.diff_fk is True, report.diff_lines)
            assert report.any == any(flags)
            assert report.any_excl_lines == any(flags[:4])

    def test_adding_bundle_never_clears_flags(self):
        base = [bundle("a", "bot", LISTING1), bundle("b", "bot", with_world(LISTING1))]
        before = compare_group(base)
        after = compare_group(base + [bundle("c", "bot", LISTING1 + "\n\n")])
        for flag in ("diff_joints", "diff_links", "diff_cad_types", "diff_lines"):
            assert not getattr(before, flag) or getattr(after, flag)


UNPARSEABLE = "<robot name='x'><link>"
ISLAND = '<link name="island"/>'  # a second root: the model parses, the tree does not build


@st.composite
def listing1_variant(draw):
    text = LISTING1
    if draw(st.booleans()):
        text = with_world(text)
    ext = draw(st.sampled_from([None, "stl", "dae", "obj"]))
    if ext is not None:
        text = text.replace('<box size="0.5 0.5 0.5"/>', f'<mesh filename="base.{ext}"/>')
    z = draw(st.sampled_from(["0.5", "0.6"]))
    text = text.replace('<origin xyz="0 0 0.5"/>', f'<origin xyz="0 0 {z}"/>', 1)
    return text + "\n" * draw(st.integers(0, 2))


MEMBER_TEXT = st.one_of(listing1_variant(), st.just(UNPARSEABLE), st.none(),
                        listing1_variant().map(lambda t: t.replace("</robot>", ISLAND + "</robot>")))


@st.composite
def groups(draw):
    members = [bundle(f"s{s}", "bot", draw(MEMBER_TEXT), rid=f"s{s}-v{v}")
               for s in range(draw(st.integers(1, 4)))
               for v in range(draw(st.integers(1, 2)))]
    return draw(st.permutations(members))


SHIFTED = LISTING1.replace('<origin xyz="0 0 0.5"/>', '<origin xyz="0 0 0.6"/>', 1)


@given(groups())
@example([bundle("a", "bot", LISTING1, rid="a1"), bundle("a", "bot", SHIFTED, rid="a2"),
          bundle("b", "bot", UNPARSEABLE)])  # only a same-source pair differs in FK
@settings(deadline=None)
def test_flags_match_pairwise_oracle(members):
    report = compare_group(members)
    assert (report.diff_joints, report.diff_links, report.diff_cad_types, report.diff_fk,
            report.diff_lines) == oracle_discrepancy_flags(members)
