"""Traced run of one CLI corpus command, instrumented from outside ``src/``.

Before the command runs, the public functions the CLI reaches through
module attributes are replaced by wrappers that record a span (name,
start, end, parent id) and counts at each call:

- every public function of ``bundles``, ``compare``, ``dedup`` and
  ``report``, on its own module, which is how ``cli`` calls them;
- ``validate`` and ``kinematic_sanity`` as ``cli`` holds them;
- ``parse_urdf`` as ``validator`` holds it, so each parse is a child
  span of the ``validate`` call that made it;
- ``build_tree`` and ``fk_equivalent`` as ``compare`` holds them.

Directory walks (``Path.rglob``, ``Path.glob``, ``os.walk``) are counted
wherever the program makes them.  A walk or a ``Path.read_bytes`` call
that the CLI makes itself, outside any module call, gets its own span: a
walk's span lasts until its iterator is exhausted.  Spans are recorded
on the main thread only; the dedup worker threads run untraced inside
the ``find_duplicates`` span.  Then ``urdf_inspect.cli.run_cli`` runs
the command, and the tables it writes are the CLI's own.

    PYTHONPATH=src python bench/trace_cli.py scan CORPUS OUT_DIR TRACE.json
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer

MIB = float(1 << 20)
ROOT = "cli.command"
OWN_MODULES = ("bundles", "compare", "dedup", "report")
HELD = {"cli": ("validate", "kinematic_sanity"), "validator": ("parse_urdf",),
        "compare": ("build_tree", "fk_equivalent")}
WALKS = ((Path, "rglob"), (Path, "glob"), (os, "walk"))


class Trace(Tracer):
    """A Tracer that also keeps what the counters need after the run."""

    def __init__(self) -> None:
        super().__init__()
        self.main = threading.get_ident()
        self.robot: str | None = None  # the robot compare_group last compared
        self.fk_samples_by_robot: dict[str, int] = {}
        self.dedup_paths: list[Path] = []
        self.dedup_groups: list = []

    def on_main(self) -> bool:
        return threading.get_ident() == self.main

    def at_root(self) -> bool:
        """The CLI itself is running, outside every module call."""
        return self.on_main() and len(self._open) == 1


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _count_diagnostics(t: Trace, diagnostics) -> None:
    for d in diagnostics:
        t.count("validator.errors" if d.severity == "error" else "validator.warnings")


def _validate(t: Trace, args, kwargs, result) -> None:
    t.count("model.files")
    t.count("model.bytes", len(args[0]))
    _count_diagnostics(t, result.diagnostics)


def _sanity(t: Trace, args, kwargs, result) -> None:
    _count_diagnostics(t, result)


def _fk(t: Trace, args, kwargs, result) -> None:
    t.count("kinematics.fk_comparable")
    t.count("kinematics.fk_samples", len(result.samples))
    by_robot = t.fk_samples_by_robot
    by_robot[t.robot] = by_robot.get(t.robot, 0) + len(result.samples)


def _write_tables(t: Trace, args, kwargs, result) -> None:
    t.count("report.tables", len(result))
    t.count("report.bytes_out", sum(p.stat().st_size for p in result))


def _find_duplicates(t: Trace, args, kwargs, result) -> None:
    t.dedup_groups.extend(result)


# Work done before the call: it may replace the arguments.
def _before_fk(t: Trace, args, kwargs):
    t.count("kinematics.fk_pairs")
    return args


def _before_compare_group(t: Trace, args, kwargs):
    members = args[0] if args else kwargs["bundles"]
    records = [m[0] for m in members]
    t.count("compare.groups")
    t.count("compare.pairs", sum(1 for i, a in enumerate(records) for b in records[i + 1:]
                                 if a.source_name != b.source_name))
    t.robot = records[0].robot_name if records else None
    t.fk_samples_by_robot.setdefault(t.robot, 0)
    return args


def _before_find_duplicates(t: Trace, args, kwargs):
    paths = [Path(p) for p in args[0]]
    t.dedup_paths.extend(paths)
    return (paths, *args[1:])


AFTER = {"validator.validate": _validate, "validator.kinematic_sanity": _sanity,
         "kinematics.fk_equivalent": _fk, "report.write_tables": _write_tables,
         "dedup.find_duplicates": _find_duplicates}
BEFORE = {"kinematics.fk_equivalent": _before_fk, "compare.compare_group": _before_compare_group,
          "dedup.find_duplicates": _before_find_duplicates}


def traced(t: Trace, fn):
    name = span_name(fn)
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not t.on_main():
            return fn(*args, **kwargs)
        if before is not None:
            args = before(t, args, kwargs)
        with t.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(t, args, kwargs, result)
        return result
    return call


def traced_walk(t: Trace, fn):
    @functools.wraps(fn)
    def walk(*args, **kwargs):
        if not t.on_main():
            return fn(*args, **kwargs)
        t.count("bundles.walks")
        start = time.perf_counter()
        found = fn(*args, **kwargs)
        return _timed(t, found, start) if t.at_root() else found
    return walk


def _timed(t: Trace, found, start: float):
    try:
        yield from found
    finally:
        t.record("cli.walk", start, time.perf_counter())


def traced_read(t: Trace, fn):
    @functools.wraps(fn)
    def read(path):
        if not t.at_root():
            return fn(path)
        with t.span("cli.read"):
            return fn(path)
    return read


def instrument(t: Trace) -> list[tuple[object, str, object]]:
    """Install the wrappers; returns (owner, name, original) to restore."""
    targets: list[tuple[object, str]] = []
    for layer in OWN_MODULES:
        module = importlib.import_module(f"urdf_inspect.{layer}")
        targets += [(module, name) for name, fn in vars(module).items()
                    if not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__]
    for layer, names in HELD.items():
        module = importlib.import_module(f"urdf_inspect.{layer}")
        targets += [(module, name) for name in names if hasattr(module, name)]
    saved = []
    for owner, name in targets:
        fn = getattr(owner, name)
        saved.append((owner, name, fn))
        setattr(owner, name, traced(t, fn))
    for owner, name in WALKS:
        if hasattr(owner, name):
            fn = getattr(owner, name)
            saved.append((owner, name, fn))
            setattr(owner, name, traced_walk(t, fn))
    saved.append((Path, "read_bytes", Path.read_bytes))
    Path.read_bytes = traced_read(t, Path.read_bytes)
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, name, fn in reversed(saved):
        setattr(owner, name, fn)


def dedup_counts(t: Trace) -> None:
    """Counts about the files the CLI handed to find_duplicates, read after
    the run with the program's own text rule and normalization."""
    from urdf_inspect import dedup
    keys: dict[int, int] = {}
    binary_sizes = []
    for path in sorted(set(t.dedup_paths)):
        data = path.read_bytes()
        t.count("dedup.files")
        t.count("dedup.bytes", len(data))
        if dedup.is_text_payload(path, data[:1024]):
            t.count("dedup.text_bytes", len(data))
            key = len(dedup.normalize(data, True))
        else:
            key = len(data)
            binary_sizes.append(key)
        keys[key] = keys.get(key, 0) + 1
    groups = t.dedup_groups
    t.count("dedup.unique_size_files", sum(1 for size in binary_sizes if keys[size] == 1))
    t.count("dedup.dup_files", sum(len(g.members) for g in groups))
    t.count("dedup.max_bucket_mb", max((g.size * len(g.members) for g in groups), default=0) / MIB)


def main(argv: list[str]) -> int:
    command, root, out, trace_path = argv[0], argv[1], argv[2], Path(argv[3])
    from urdf_inspect import cli
    t = Trace()
    saved = instrument(t)
    try:
        with t.span(ROOT):
            code = cli.run_cli(["--out", out, command, root])
    finally:
        restore(saved)
    if code != 0:
        print(f"error: the traced command exited {code}", file=sys.stderr)
        return code
    post_start = time.perf_counter()
    dedup_counts(t)
    trace = {"spans": [[s.id, s.parent, s.name, s.start, s.end] for s in t.spans],
             "counts": t.counts, "fk_samples_by_robot": t.fk_samples_by_robot, "post_s": 0.0}
    trace["post_s"] = time.perf_counter() - post_start
    trace_path.write_text(json.dumps(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
