import ast
import fnmatch
import io
import os
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st

from urdf_inspect import _fs

from conftest import symlink

SRC = Path(_fs.__file__).parent
OS_CALLS = {"open", "walk", "scandir", "listdir"}
PATH_CALLS = {"open", "iterdir", "read_bytes", "read_text", "glob", "rglob"}
WRITES_OUTPUT = {("report.py", "write_tables")}  # path.open("wb") of the table files


class _DiskCalls(ast.NodeVisitor):
    """Every call that opens a file or lists a directory, with the function it is in."""

    def __init__(self) -> None:
        self.function: str | None = None
        self.found: list[tuple[str | None, int, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if ((isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute) and func.attr in PATH_CALLS)
                or (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "os" and func.attr in OS_CALLS)):
            self.found.append((self.function, node.lineno, ast.unparse(func)))
        self.generic_visit(node)


def disk_calls(module: Path) -> list[tuple[str | None, int, str]]:
    visitor = _DiskCalls()
    visitor.visit(ast.parse(module.read_text(encoding="utf-8")))
    return visitor.found


def test_only_fs_opens_or_lists():
    found = {module.name: disk_calls(module) for module in sorted(SRC.glob("*.py"))}
    outside = [(name, *call) for name, calls in found.items() if name != "_fs.py"
               for call in calls if (name, call[0]) not in WRITES_OUTPUT]
    assert outside == []
    assert {call for _, _, call in found["_fs.py"]} >= {"open", "os.open", "os.walk", "os.listdir"}


NAMES = ("a", "a-x", "a0", ".h")  # '-' sorts below os.sep and '0' just above it


@st.composite
def trees(draw, depth=0):
    """A directory as {name: subtree}, a file as None."""
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3 if depth < 3 else 0))
    return {name: draw(trees(depth + 1)) if draw(st.booleans()) else None for name in names}


def build(base: Path, tree: dict) -> tuple[list[Path], list[Path]]:
    """Write ``tree`` below ``base``; its directories and files."""
    dirs, files = [], []
    for name, sub in tree.items():
        if sub is None:
            (base / name).write_bytes(b"")
            files.append(base / name)
        else:
            (base / name).mkdir()
            dirs.append(base / name)
            more_dirs, more_files = build(base / name, sub)
            dirs += more_dirs
            files += more_files
    return dirs, files


def visible(base: str, path: str) -> bool:
    return not any(part.startswith(".") for part in Path(os.path.relpath(path, base)).parts)


@settings(max_examples=60, deadline=None)
@given(tree=trees(), data=st.data(), pattern=st.sampled_from(["*", "a*", "*0"]))
def test_walk_is_the_unpruned_walk_filtered(tree, data, pattern):
    with tempfile.TemporaryDirectory() as tmp:
        dirs, files = build(Path(tmp), tree)
        dirs.insert(0, Path(tmp))
        # one link to a directory and one to a file, each in any directory
        dir_link = data.draw(st.sampled_from(dirs)) / "dl"
        symlink(os.path.relpath(data.draw(st.sampled_from(dirs)), dir_link.parent), dir_link)
        if files:
            file_link = data.draw(st.sampled_from(dirs)) / "fl"
            symlink(os.path.relpath(data.draw(st.sampled_from(files)), file_link.parent),
                    file_link)

        errors: list[OSError] = []
        listing = _fs.walk(tmp, pattern, errors)

        # os.walk follows no link by default, so only the hidden rule is left to apply
        found, found_dirs = [], set()
        for top, names, others in os.walk(tmp):
            found += [os.path.join(top, n) for n in names + others if fnmatch.fnmatch(n, pattern)]
            found_dirs.update(os.path.join(top, n) for n in names)
        assert listing.paths == sorted(p for p in found if visible(tmp, p))
        assert listing.dirs == {d for d in found_dirs if visible(tmp, d)}
        assert [(e.filename, e.strerror) for e in errors] == (
            [(str(dir_link), "linked directory, not followed")] if visible(tmp, str(dir_link))
            else [])

        everything = _fs.walk(tmp, "*", [])
        for directory in {tmp, *everything.dirs, *(os.path.join(d, n) for d in everything.dirs
                                                    for n in NAMES)}:
            assert everything.below(directory) == [
                p for p in everything.paths if p.startswith(directory + os.sep)]


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=3000), offset=st.integers(0, 4000), size=st.integers(-2, 4000))
def test_read_is_the_piece_and_the_stat(data, offset, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(data)
        st, piece = _fs.read(path, offset, size)
        assert piece == (data[offset:] if size < 0 else data[offset:offset + size])
        assert (st.st_size, st.st_ino) == (len(data), os.stat(path).st_ino)
        assert _fs.read(str(path))[1] == data


def test_read_asks_for_no_more_than_the_file_holds(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"x" * 100)
    tracemalloc.start()
    try:
        assert _fs.read(path, 10, 64 << 20)[1] == b"x" * 90
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class _Dribbling(io.FileIO):
    """A file each read of which returns at most 7 bytes, as reads of a
    network file system may."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:7])

    def read(self, size=-1):
        return super().read(7 if size < 0 else min(size, 7))


def test_read_goes_on_past_a_short_read(tmp_path, monkeypatch):
    path = tmp_path / "f"
    path.write_bytes(bytes(range(100)))
    monkeypatch.setattr(_fs, "open", lambda file, mode, opener: io.BufferedReader(
        _Dribbling(file, "r", opener=opener)), raising=False)
    assert _fs.read(path, 5, 50)[1] == bytes(range(5, 55))
    assert _fs.read(path)[1] == bytes(range(100))
