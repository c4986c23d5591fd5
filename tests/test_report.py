import io
import json

import pytest

from urdf_inspect.bundles import ContactMarkers, LicenseId, MeshInventory, StructureClass
from urdf_inspect.dedup import DuplicateGroup
from urdf_inspect.report import (
    ReportTable,
    contact_table,
    duplicates_cross_source_table,
    duplicates_table,
    emit,
    licenses_table,
    mesh_types_table,
    model_stats_table,
    name_stats_table,
    structures_table,
    xacro_table,
)


def render(table, format):
    sink = io.BytesIO()
    written = emit(table, format, sink)
    assert written == len(sink.getvalue())
    return sink.getvalue()


class TestEmit:
    def test_empty_table_is_header_only_csv(self):
        table = ReportTable("t", ("a", "b"), ())
        assert render(table, "csv") == b"a,b\r\n"

    def test_comma_value_is_quoted(self):
        table = ReportTable("t", ("a",), (("x,y",),))
        assert render(table, "csv") == b'a\r\n"x,y"\r\n'

    def test_deterministic_bytes(self):
        table = ReportTable("t", ("a", "b"), (("x", 1), ("y", 2)))
        assert render(table, "csv") == render(table, "csv")
        assert render(table, "json") == render(table, "json")

    def test_json_objects_keyed_by_columns(self):
        table = ReportTable("t", ("name", "n"), (("x", 3),))
        assert json.loads(render(table, "json")) == [{"name": "x", "n": 3}]

    def test_bools_and_none_rendering(self):
        table = ReportTable("t", ("a", "b", "c"), ((True, False, None),))
        assert render(table, "csv") == b"a,b,c\r\ntrue,false,\r\n"
        assert json.loads(render(table, "json")) == [{"a": True, "b": False, "c": None}]

    def test_float_cells_render_as_repr(self):
        table = ReportTable("t", ("a", "b", "c"), ((0.1, 2.0, 1e-07),))
        assert render(table, "csv") == b"a,b,c\r\n0.1,2.0,1e-07\r\n"
        assert json.loads(render(table, "json")) == [{"a": 0.1, "b": 2.0, "c": 1e-07}]

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReportTable("t", ("a", "b"), (("only",),))

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit(ReportTable("t", ("a",), ()), "yaml", io.BytesIO())


class TestBuilders:
    def test_structures_with_total(self):
        table = structures_table([("s1", StructureClass.A), ("s1", StructureClass.A),
                                  ("s2", StructureClass.OTHER)])
        assert table.columns == ("source", "A", "B", "C", "D", "Other")
        assert table.rows[0] == ("s1", 2, 0, 0, 0, 0)
        assert table.rows[-1] == ("total", 2, 0, 0, 0, 1)

    def test_xacro_crosstab(self):
        rows = [("s", True, True), ("s", False, True), ("s", False, False)]
        table = xacro_table(rows)
        assert table.rows[0] == ("s", 1, 1, 1)
        assert table.rows[-1] == ("total", 1, 1, 1)

    def test_mesh_types_any_rows(self):
        rows = [("s", MeshInventory({"stl": 2, "dae": 1}, {})),
                ("s", MeshInventory({"stl": 1}, {"stl": 4}))]
        table = mesh_types_table(rows)
        cells = {(r[0], r[1], r[2]): r[3] for r in table.rows}
        assert cells[("s", "visual", "stl")] == 2
        assert cells[("s", "visual", "any")] == 2
        assert cells[("s", "collision", "any")] == 1
        assert cells[("total", "collision", "stl")] == 1

    def test_licenses(self):
        table = licenses_table([("s", LicenseId.BSD_3), ("s", LicenseId.UNKNOWN)])
        assert table.columns[1] == "Apache-2.0"
        assert table.rows[0][2] == 1  # BSD-3-Clause column

    def test_contact_counts_files(self):
        table = contact_table([ContactMarkers(True, True, False),
                               ContactMarkers(False, True, False)])
        assert table.rows == (("author", 1), ("at_sign", 2), ("dot_com", 0))

    def test_name_stats_sums_per_source(self):
        table = name_stats_table([("s", {"world": 2, "flange": 0}),
                                  ("s", {"world": 1, "flange": 3})])
        assert table.rows[0] == ("s", 3, 3)

    def test_model_stats_sorted(self):
        table = model_stats_table({"b type": (2, 1), "a type": (5, 4)})
        assert [r[0] for r in table.rows] == ["a type", "b type"]

    def test_duplicates_tables(self, tmp_path):
        root = tmp_path
        for rel in ("s1/m/a.stl", "s2/m/a.stl", "s1/m/b.urdf", "s1/n/b.urdf"):
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x")
        groups = [
            DuplicateGroup((root / "s1/m/a.stl", root / "s2/m/a.stl"), 1, "d1"),
            DuplicateGroup((root / "s1/m/b.urdf", root / "s1/n/b.urdf"), 1, "d2"),
        ]
        flat = duplicates_table(root, groups)
        assert flat.rows[0] == (0, "s1", "s1/m/a.stl", "stl", 1, "d1")
        cross = duplicates_cross_source_table(root, groups)
        cells = {r[0]: r for r in cross.rows}
        # only the first group spans two sources
        assert cells["s1"][2] == 1  # stl column
        assert cells["s1"][1] == 0  # urdf column: same-source group excluded
        assert cells["s2"][2] == 1
