import hashlib
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import urdf_inspect
from urdf_inspect import _fs, dedup
from urdf_inspect.dedup import find_duplicates, is_text_payload, normalize

from conftest import symlink
from oracles import brute_force_duplicates, oracle_content, oracle_normalize


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
    @example(b"\r\t\n")
    @example(b"a\r \r\n")
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


@pytest.fixture
def served(monkeypatch) -> dict[Path, int]:
    """Bytes served per path by ``_fs.read``, through which dedup makes every read."""
    served: dict[Path, int] = {}
    real_read = _fs.read

    def counting(path, *args):
        st, data = real_read(path, *args)
        served[path] = served.get(path, 0) + len(data)
        return st, data

    monkeypatch.setattr(_fs, "read", counting)
    return served


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
        near_miss = blob[:-1] + bytes([blob[-1] ^ 1])  # differs in the last 1 MiB chunk only
        first_miss = bytes([blob[0] ^ 1]) + blob[1:]  # differs in the first chunk only
        for name, data in (("a.bin", blob), ("b.bin", blob), ("c.bin", near_miss),
                           ("d.bin", first_miss)):
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

    @pytest.mark.parametrize("hard", [False, True])
    def test_linked_file_is_not_its_own_duplicate(self, tmp_path, hard):
        mesh, linked, copy = tmp_path / "m.stl", tmp_path / "link.stl", tmp_path / "n.stl"
        mesh.write_bytes(b"\x01mesh" * 300)
        if hard:
            os.link(mesh, linked)
        else:
            symlink(mesh.name, linked)
        assert find_duplicates([mesh, linked]) == []
        copy.write_bytes(mesh.read_bytes())  # a real copy groups with the first path in order
        assert [g.members for g in find_duplicates([mesh, linked, copy])] == [(linked, copy)]

    def test_groups_sorted_by_size_desc(self, tmp_path):
        big = b"x" * 500 + b"\n"
        small = b"y\n"
        for name, data in (("b1.txt", big), ("b2.txt", big), ("s1.txt", small), ("s2.txt", small)):
            (tmp_path / name).write_bytes(data)
        groups = find_duplicates(list(tmp_path.iterdir()))
        assert [g.size for g in groups] == sorted([g.size for g in groups], reverse=True)

    def test_missing_unique_size_binary_collected(self, tmp_path):
        present = tmp_path / "a.stl"
        present.write_bytes(b"\x00" * 100)
        missing = tmp_path / "gone.stl"
        errors: list = []
        assert find_duplicates([present, missing], errors=errors) == []
        assert [path for path, _ in errors] == [missing]

    def test_unique_size_binary_read_no_further_than_its_head(self, tmp_path, served):
        unique = tmp_path / "unique.bin"
        unique.write_bytes(bytes(range(256)) * 12_000)  # 3 MB
        twin = bytes(range(255, -1, -1)) * 5_000
        for name in ("a.bin", "b.bin"):
            (tmp_path / name).write_bytes(twin)
        groups = find_duplicates([unique, tmp_path / "a.bin", tmp_path / "b.bin"])
        assert [g.members for g in groups] == [(tmp_path / "a.bin", tmp_path / "b.bin")]
        assert served[unique] <= 1024
        assert served[tmp_path / "a.bin"] >= len(twin)

    def test_unique_head_text_read_no_further_than_its_head(self, tmp_path, served):
        unique = tmp_path / "unique.dae"
        unique.write_bytes(b"".join(b"<p> %d %d %d </p>\n" % (i, i + 1, i + 2)
                                    for i in range(150_000)))  # 3 MB
        twin = b"<robot name='r'>\n  <link name='l'/>\n</robot>\n" * 3_000
        (tmp_path / "a.urdf").write_bytes(twin)
        (tmp_path / "b.urdf").write_bytes(twin.replace(b"\n", b"\r\n").replace(b"  ", b"\t"))
        groups = find_duplicates([unique, tmp_path / "a.urdf", tmp_path / "b.urdf"])
        assert [g.members for g in groups] == [(tmp_path / "a.urdf", tmp_path / "b.urdf")]
        assert groups[0].size == len(normalize(twin, True))
        assert served[unique] <= 4096
        assert served[tmp_path / "a.urdf"] >= len(twin)

    def test_text_twins_confirmed_in_bounded_memory(self, tmp_path):
        line = b"  <float_array> 0.1250 -3.5000\t7.0625 </float_array>\n"
        body = line * ((8 << 20) // len(line) + 1)  # 8 MiB
        a, b = tmp_path / "a.dae", tmp_path / "b.dae"
        a.write_bytes(body)
        b.write_bytes(body.replace(b"\n", b"\r\n").replace(b" ", b"\t"))
        del body
        tracemalloc.start()
        try:
            groups = find_duplicates([a, b])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [g.members for g in groups] == [(a, b)]
        assert peak < 16 << 20

    def test_member_vanishing_before_confirmation_reported_once(self, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in ("a.bin", "b.bin", "c.bin")]
        for path in paths:
            path.write_bytes(b"\x01mesh" * 300)
        keyed = dedup._head_key

        def key_then_vanish(path):
            key = keyed(path)
            if path.name == "b.bin":
                path.unlink()
            return key

        monkeypatch.setattr(dedup, "_head_key", key_then_vanish)
        errors: list = []
        groups = find_duplicates(paths, errors=errors)
        assert [g.members for g in groups] == [(paths[0], paths[2])]
        assert [path for path, _ in errors] == [paths[1]]

    def test_text_normalized_once_per_copy_class(self, tmp_path, monkeypatch):
        body = b"<robot name='r'>\n  <link name='l'/>\n</robot>\n" * 50
        copies = [tmp_path / f"copy{i}.urdf" for i in range(4)]
        for path in copies:
            path.write_bytes(body)
        variant = tmp_path / "crlf.urdf"
        variant.write_bytes(body.replace(b"\n", b"\r\n"))
        normalized, real = [], dedup._normalized_chunks
        monkeypatch.setattr(dedup, "_normalized_chunks",
                            lambda path: normalized.append(path) or real(path))
        groups = find_duplicates([*copies, variant])
        assert [g.members for g in groups] == [(*copies, variant)]
        assert (groups[0].size, groups[0].digest) == (
            len(normalize(body, True)), hashlib.md5(normalize(body, True)).hexdigest())
        assert sorted(normalized) == [copies[0], variant]

    @pytest.mark.parametrize("after", [0, 1])
    def test_representative_vanishing_between_passes_reported_once(self, tmp_path, monkeypatch,
                                                                    after):
        """The first copy goes away before pass 2 reads it, or after its first
        chunk; the next copy takes over and the class still groups."""
        body = b"<p>  1 2 3  </p>\n" * 40  # several 64-byte chunks
        copies = [tmp_path / f"copy{i}.dae" for i in range(3)]
        for path in copies:
            path.write_bytes(body)
        variant = tmp_path / "tabs.dae"
        variant.write_bytes(body.replace(b" ", b"\t"))
        real = dedup._normalized_chunks

        def vanishing(path):
            for index, chunk in enumerate(real(path)):
                if path == copies[0] and index == after:
                    path.unlink()
                yield chunk

        monkeypatch.setattr(dedup, "_normalized_chunks", vanishing)
        monkeypatch.setattr(dedup, "_CHUNK", 64)
        errors: list = []
        groups = find_duplicates([*copies, variant], errors=errors)
        assert [g.members for g in groups] == [(*copies[1:], variant)]
        assert (groups[0].size, groups[0].digest) == (
            len(normalize(body, True)), hashlib.md5(normalize(body, True)).hexdigest())
        assert [path for path, _ in errors] == [copies[0]]

    def test_binary_read_once_during_confirmation(self, tmp_path, monkeypatch):
        """Two copies and a near miss sharing their first KiB, each several
        chunks long: confirmation reads no binary past its size."""
        blob = bytes(range(256)) * 6
        paths = [tmp_path / name for name in ("a.bin", "b.bin", "tail.bin")]
        paths[0].write_bytes(blob)
        paths[1].write_bytes(blob)
        paths[2].write_bytes(blob[:-1] + b"x")
        yielded, real = {}, dedup._raw_chunks

        def counting(path):
            for chunk in real(path):
                yielded[path] = yielded.get(path, 0) + len(chunk)
                yield chunk

        monkeypatch.setattr(dedup, "_raw_chunks", counting)
        monkeypatch.setattr(dedup, "_CHUNK", 64)
        groups = find_duplicates(paths)
        assert [g.members for g in groups] == [tuple(paths[:2])]
        assert (groups[0].size, groups[0].digest) == (len(blob), hashlib.md5(blob).hexdigest())
        assert set(yielded) == set(paths)
        assert all(yielded[path] <= path.stat().st_size for path in paths)

    def test_binary_never_normalized(self, tmp_path, monkeypatch):
        """A text file, a binary holding its normalized bytes and two binary
        copies share one bucket; only the text file is normalized."""
        text = b"<robot name='r'>\n  <link name='l'/>\n</robot>\n" * 40
        content = normalize(text, True)
        paths = [tmp_path / name for name in ("a.bin", "b.bin", "n.bin", "t.urdf")]
        paths[0].write_bytes(content[:-1] + b"x")
        paths[1].write_bytes(content[:-1] + b"x")
        paths[2].write_bytes(content)
        paths[3].write_bytes(text)
        monkeypatch.setattr(dedup, "_CHUNK", 64)
        with mock.patch.object(dedup, "_normalized_chunks",
                               wraps=dedup._normalized_chunks) as normalized:
            groups = find_duplicates(paths)
        assert [g.members for g in groups] == [tuple(paths[:2]), tuple(paths[2:])]
        assert groups[1].digest == hashlib.md5(content).hexdigest()
        assert [call.args for call in normalized.call_args_list] == [(paths[3],)]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_pipe_is_an_error_not_a_block(tmp_path):
    """Run in a child with a timeout, so a blocking open fails the test
    rather than hanging the suite."""
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("same\n")
    os.mkfifo(tmp_path / "fifo")
    script = ("import sys\n"
              "from urdf_inspect.dedup import find_duplicates\n"
              "errors = []\n"
              "groups = find_duplicates(sys.argv[1:], errors)\n"
              "print([[p.name for p in g.members] for g in groups])\n"
              "print([(p.name, str(e)) for p, e in errors])")
    env = dict(os.environ, PYTHONPATH=str(Path(urdf_inspect.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script,
                          *(str(tmp_path / n) for n in ("a.txt", "b.txt", "fifo"))],
                         env=env, capture_output=True, text=True, check=True, timeout=30)
    assert run.stdout.splitlines() == ["[['a.txt', 'b.txt']]",
                                       "[('fifo', 'not a regular file')]"]


SMALL_CHUNK = 64  # confirmation chunk in the property below, so small files span several


@st.composite
def colliding_files(draw) -> dict[str, bytes | str]:
    """Files whose normalized sizes collide on purpose: binaries that differ
    only in their first or last chunk, empty files, whitespace and CRLF
    text twins, a binary holding a text's normalized bytes and one holding
    its raw bytes, and an ASCII and a binary STL of equal normalized size;
    then byte-identical copies and hard links (named by a ``str`` value:
    the file they link to) of some of them."""
    files: dict[str, bytes | str] = {"empty.txt": b"", "empty.bin": b"", "empty.stl": b""}
    for i in range(draw(st.integers(1, 3))):
        # a shared first KiB puts near misses in one bucket, so only confirmation splits them
        pad = draw(st.sampled_from([b"", b"x" * 1100]))
        blob = pad + draw(st.binary(min_size=1, max_size=3 * SMALL_CHUNK))
        files[f"b{i}.bin"] = files[f"b{i}_copy.stl"] = blob
        files[f"b{i}_first.bin"] = bytes([blob[0] ^ 1]) + blob[1:]
        files[f"b{i}_last.bin"] = blob[:-1] + bytes([blob[-1] ^ 1])
        text = pad + draw(st.text(alphabet="ab<>/ \t\r\n", max_size=3 * SMALL_CHUNK)).encode()
        files[f"t{i}.urdf"] = text
        files[f"t{i}_crlf.dae"] = text.replace(b"\n", b"\r\n")
        files[f"t{i}_padded.txt"] = text.replace(b"<", b" \t<")
        files[f"t{i}_normalized.bin"] = oracle_normalize(text, True)
        files[f"t{i}_raw.bin"] = text  # same bytes as t{i}.urdf, normalized differently
        ascii_stl = b"solid " + text
        files[f"t{i}_ascii.stl"] = ascii_stl
        files[f"t{i}_binary.stl"] = (b"\x00" + blob * len(ascii_stl))[
            :len(oracle_normalize(ascii_stl, True))]
    originals = sorted(files)
    for name in draw(st.lists(st.sampled_from(originals), max_size=8)):
        files[f"c{len(files)}_{name}"] = files[name]  # the prefix keeps the extension
    for name in draw(st.lists(st.sampled_from(originals), max_size=3)):
        files[f"l{len(files)}_{name}"] = name
    return files


@settings(max_examples=80, deadline=None)
@given(colliding_files(), st.sampled_from([7, SMALL_CHUNK]))
def test_size_collisions_match_oracle(files, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dedup, "_CHUNK", chunk), \
            mock.patch.object(dedup, "is_text_payload", wraps=is_text_payload) as decide:
        for name, data in files.items():
            if isinstance(data, str):
                os.link(Path(tmp) / data, Path(tmp) / name)
            else:
                (Path(tmp) / name).write_bytes(data)
        paths = sorted(Path(tmp).iterdir(), key=str)
        inodes: dict[int, Path] = {}  # the first path in order names each file
        for path in paths:
            inodes.setdefault(path.stat().st_ino, path)
        errors: list = []
        groups = find_duplicates(paths, errors=errors)
        # each path's text/binary kind is decided once, in the head stage
        assert sorted((call.args[0] for call in decide.call_args_list), key=str) == paths
        assert errors == []
        assert {frozenset(g.members) for g in groups} == brute_force_duplicates(inodes.values())
        assert groups == sorted(groups, key=lambda g: (-g.size, str(g.members[0])))
        for group in groups:
            assert list(group.members) == sorted(group.members, key=str)
            content = oracle_content(group.members[0])
            assert (group.size, group.digest) == (len(content), hashlib.md5(content).hexdigest())


LINE_BYTES = st.sampled_from([b" ", b"\t", b"\r", b"\n"])


@st.composite
def text_across_pieces(draw) -> tuple[int, bytes]:
    """A piece size and text whose blanks and line breaks straddle the
    boundaries of raw reads of that size."""
    chunk = draw(st.sampled_from([7, 64]))
    data = b""
    for _ in range(draw(st.integers(0, 8))):
        # filler up to a few bytes before a boundary, then a run of blanks and breaks
        before = draw(st.integers(1, 4))
        filler = (-len(data) - before) % chunk + chunk * draw(st.integers(0, 1))
        data += draw(st.binary(min_size=filler, max_size=filler))
        data += b"".join(draw(st.lists(LINE_BYTES, min_size=1, max_size=3 * chunk)))
    return chunk, data


@settings(max_examples=200, deadline=None)
@given(text_across_pieces())
@example((7, b"abcdef\r\nxyz"))
@example((7, b"abcdef\r" + b" \t" * 7 + b"\nq"))
@example((7, b"abcdef\r"))
@example((64, b""))
def test_streamed_normalization_matches_whole(case):
    chunk, data = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dedup, "_CHUNK", chunk):
        path = Path(tmp) / "t.urdf"
        path.write_bytes(data)
        pieces = list(dedup._normalized_chunks(path))
    assert b"".join(pieces) == normalize(data, True)
    assert all(len(piece) == chunk for piece in pieces[:-1])
    assert all(pieces)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([7, 64]), st.integers(0, 4), st.sampled_from([-1, 0, 1]), st.randoms())
def test_raw_pieces_are_full_chunks_then_a_short_last_one(chunk, whole, delta, rng):
    """Sizes 0, k chunks and k chunks plus or minus one byte: no piece is
    empty, each but the last is a chunk, and together they are the file."""
    data = rng.randbytes(max(0, whole * chunk + delta))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dedup, "_CHUNK", chunk):
        path = Path(tmp) / "m.bin"
        path.write_bytes(data)
        pieces = list(dedup._raw_chunks(path))
    assert b"".join(pieces) == data
    assert all(pieces)
    assert all(len(piece) == chunk for piece in pieces[:-1])


@settings(max_examples=100, deadline=None)
@given(lead=st.sampled_from([b"", b" " * 5000, b"\t \t" * 1500, b"\n" * 5000, b" \r \t\n" * 1200]),
       body=st.binary(max_size=3000))
def test_text_key_is_crc_of_normalized_head(lead, body):
    data = lead + body
    content = normalize(data, True)
    twins = {"t.urdf": data, "padded.xml": data.replace(b"<", b" \t<"),
             "normalized.txt": content, "lf.dae": content.replace(b"\r\n", b"\n")}
    with tempfile.TemporaryDirectory() as tmp:
        keys = set()
        for name, twin in twins.items():
            (Path(tmp) / name).write_bytes(twin)
            keys.add(dedup._head_key(Path(tmp) / name)[0])
    assert keys == {zlib.crc32(content[:1024])}

