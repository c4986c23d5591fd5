import hashlib
import random
from pathlib import Path

from hypothesis import given, strategies as st

from urdf_inspect.dedup import find_duplicates, is_text_payload, normalize

from oracles import brute_force_duplicates, oracle_normalize


class TestNormalize:
    def test_spaces_tabs_and_newline(self):
        assert normalize(b"a b\tc\n", True) == b"abc\r\n"

    def test_line_ending_unification(self):
        assert normalize(b"x\r\ny", True) == normalize(b"x\ny", True)
        assert normalize(b"x\ry", True) == b"x\r\ny"

    def test_binary_passthrough(self):
        blob = bytes(range(256)) * 4
        assert normalize(blob, False) is blob

    def test_idempotent(self):
        once = normalize(b"a \t b\r\nc\rd\n", True)
        assert normalize(once, True) == once

    @given(st.binary(max_size=200))
    def test_matches_oracle(self, data):
        assert normalize(data, True) == oracle_normalize(data, True)

    @given(st.binary(max_size=200))
    def test_no_stray_whitespace_or_bare_breaks(self, data):
        out = normalize(data, True)
        assert b" " not in out and b"\t" not in out
        stripped = out.replace(b"\r\n", b"")
        assert b"\r" not in stripped and b"\n" not in stripped


class TestTextDetection:
    def test_known_text_extensions(self, tmp_path):
        for ext in ("urdf", "dae", "obj", "xml"):
            assert is_text_payload(Path(f"f.{ext}"), b"anything")

    def test_ascii_stl(self):
        assert is_text_payload(Path("part.stl"), b"solid part\nfacet normal 0 0 1")

    def test_binary_stl_with_nul(self):
        head = b"solid" + b"\x00" * 80
        assert not is_text_payload(Path("part.stl"), head)

    def test_binary_stl_without_token(self):
        assert not is_text_payload(Path("part.stl"), b"\x84\x02binary header")

    def test_other_extension_is_binary(self):
        assert not is_text_payload(Path("img.png"), b"solid looking but png")


def make_fixture_tree(root: Path, rng: random.Random, n_payloads: int = 40) -> list[Path]:
    """>=200 files: CRLF/LF twins, padded twins, near-misses, binary copies."""
    paths: list[Path] = []

    def put(rel: str, data: bytes) -> None:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        paths.append(path)

    for i in range(n_payloads):
        body = f'<robot name="r{i}">\n  <link name="l{i}"/>\n</robot>\n'
        put(f"src_a/r{i}/model.urdf", body.encode())
        put(f"src_b/r{i}/model.urdf", body.replace("\n", "\r\n").encode())  # CRLF twin
        put(f"src_c/r{i}/model.urdf", body.replace("<link", "   <link").encode())  # padded twin
        put(f"src_a/r{i}/readme.txt", f"notes for robot {i}\n".encode())
        # one-byte different pair (same length)
        put(f"src_a/r{i}/variant.xml", f"<x v='A{i}'/>".encode())
        put(f"src_b/r{i}/variant.xml", f"<x v='B{i}'/>".encode())

    for i in range(10):
        blob = bytes(rng.randrange(256) for _ in range(400)) + b"\x00"
        put(f"src_a/meshes/part{i}.stl", blob)
        put(f"src_b/meshes/part{i}.stl", blob)  # identical binary copy
        put(f"src_c/meshes/part{i}.stl", blob[:-1] + bytes([blob[-1] ^ 1]))  # last byte differs
    # ascii STL pair differing only in whitespace
    put("src_a/meshes/plate.stl", b"solid plate\n facet normal 0 0 1\nendsolid\n")
    put("src_b/meshes/plate.stl", b"solid plate\nfacet normal 0 0 1\r\nendsolid\n")
    put("src_a/empty.txt", b"")
    put("src_b/empty.txt", b"")
    return paths


class TestFindDuplicates:
    def test_identical_copies_grouped(self, tmp_path):
        a, b = tmp_path / "s1" / "x.urdf", tmp_path / "s2" / "x.urdf"
        for p in (a, b):
            p.parent.mkdir()
            p.write_text('<robot name="x"/>')
        groups = find_duplicates([a, b])
        assert len(groups) == 1
        assert groups[0].members == (a, b)

    def test_line_ending_twins_grouped(self, tmp_path):
        a = tmp_path / "a.urdf"
        b = tmp_path / "b.urdf"
        a.write_bytes(b"<robot>\n</robot>\n")
        b.write_bytes(b"<robot>\r\n</robot>\r\n")
        assert len(find_duplicates([a, b])) == 1

    def test_one_payload_byte_apart_not_grouped(self, tmp_path):
        a = tmp_path / "a.urdf"
        b = tmp_path / "b.urdf"
        a.write_bytes(b"<robot name='a'/>")
        b.write_bytes(b"<robot name='b'/>")
        assert find_duplicates([a, b]) == []

    def test_digest_matches_normalized_content(self, tmp_path):
        a = tmp_path / "a.urdf"
        b = tmp_path / "b.urdf"
        a.write_bytes(b"a b\n")
        b.write_bytes(b"ab\r\n")
        group = find_duplicates([a, b])[0]
        assert group.digest == hashlib.md5(b"ab\r\n").hexdigest()
        assert group.size == 4

    def test_binary_read_in_chunks_hashes_whole_file(self, tmp_path):
        blob = bytes(random.Random(3).getrandbits(8) for _ in range(1 << 12)) * 600  # 2.3 MiB
        near_miss = blob[:-1] + bytes([blob[-1] ^ 1])
        for name, data in (("a.bin", blob), ("b.bin", blob), ("c.bin", near_miss)):
            (tmp_path / name).write_bytes(data)
        groups = find_duplicates(sorted(tmp_path.iterdir()))
        assert [g.members for g in groups] == [(tmp_path / "a.bin", tmp_path / "b.bin")]
        assert groups[0].size == len(blob)
        assert groups[0].digest == hashlib.md5(blob).hexdigest()

    def test_permutation_invariance(self, tmp_path):
        paths = make_fixture_tree(tmp_path, random.Random(5), n_payloads=8)
        forward = find_duplicates(paths)
        backward = find_duplicates(list(reversed(paths)))
        assert forward == backward

    def test_matches_brute_force_oracle(self, tmp_path):
        paths = make_fixture_tree(tmp_path, random.Random(11), n_payloads=12)
        got = {frozenset(g.members) for g in find_duplicates(paths)}
        assert got == brute_force_duplicates(paths)

    def test_unreadable_file_collected_not_fatal(self, tmp_path):
        a = tmp_path / "a.urdf"
        a.write_text("<robot/>")
        missing = tmp_path / "gone.urdf"
        errors: list = []
        groups = find_duplicates([a, missing], errors=errors)
        assert groups == []
        assert len(errors) == 1 and errors[0][0] == missing

    def test_groups_sorted_by_size_desc(self, tmp_path):
        big = b"x" * 500 + b"\n"
        small = b"y\n"
        for name, data in (("b1.txt", big), ("b2.txt", big), ("s1.txt", small), ("s2.txt", small)):
            (tmp_path / name).write_bytes(data)
        groups = find_duplicates(list(tmp_path.iterdir()))
        assert [g.size for g in groups] == sorted([g.size for g in groups], reverse=True)

