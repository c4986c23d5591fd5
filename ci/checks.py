"""The repository's checks beyond its test suites: ``python3 ci/checks.py``, no arguments.
Each runs even after one fails, on benchmark corpora written into a temporary directory, and
prints one result line; the exit code is 1 if any failed.  README says what each asserts."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from urdf_inspect import _fs, bundles, cli, compare, dedup, kinematics, model, report  # noqa: E402

CORPORA = [(w, s) for s in (1, 2) for w in ("scan_mixed", "compare_fk")] + [("dupes_meshes", 2)]
COMMANDS = ("scan", "compare", "dupes", "stats")
WORK = Path()  # the temporary directory, while main runs


def corpus(workload, seed):
    return WORK / f"{workload}_{seed}" / "corpus"


def run(command, root):
    """One command in this process: its exit code, stdout, stderr lines and tables."""
    out, stdout, stderr = Path(tempfile.mkdtemp(dir=WORK)), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(["--out", str(out), command, str(root)])
    tables = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout.getvalue(), stderr.getvalue().splitlines(), tables


@contextlib.contextmanager
def spying(*targets):
    """Log each call of each ``(owner, attribute)`` of ``targets`` under its attribute as
    ``(its arguments by name, the (attribute, arguments) of the logged call it is in or None)``."""
    log, active = defaultdict(list), []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            (bound := inspect.signature(real).bind(*args, **kwargs)).apply_defaults()
            log[name].append((bound.arguments, active[-1] if active else None))
            active.append((name, bound.arguments))
            try:
                return real(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    with contextlib.ExitStack() as stack:
        for owner, name in targets:
            stack.enter_context(mock.patch.object(owner, name, spy(name, getattr(owner, name))))
        yield log


def peak_memory(command, workload, limit_mb):
    """One command on the seed-2 corpus in a fresh interpreter, which reads its own peak RSS;
    run before this process grows, as a child inherits its parent's peak across fork and exec."""
    code = ("import resource, sys\nfrom urdf_inspect.cli import run_cli\ncode = run_cli("
            "sys.argv[1:])\nprint(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
    done = subprocess.run([sys.executable, "-c", code, "--out", tempfile.mkdtemp(dir=WORK),
                           command, str(corpus(workload, 2))], stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})  # stderr passes
    exit_code, peak = done.stdout.split()[-2:]
    return ([] if exit_code == "0" and float(peak) <= limit_mb else [command],
            f"{command} exit {exit_code}, peak RSS {float(peak):.1f} MB (limit {limit_mb} MB)")


@cache
def command_runs(seed):
    """The scan_mixed corpus of ``seed``, its records and each command's run, with its calls and
    walk limit: 2 per source, and 1 for the root unless the command reads only the groups."""
    root, runs = corpus("scan_mixed", seed), {}
    for command in COMMANDS:
        with spying((os, "walk"), (Path, "is_file"), (cli, "_load_entry")) as log:
            runs[command] = run(command, root), log, 2 * len(
                _fs.sources(_fs.corpus_root(root), [])) + (command != "compare")
    return root, bundles.scan_corpus(root), runs


def corpus_commands():
    bad = []
    for seed in (1, 2):
        _, records, runs = command_runs(seed)
        members = [r for group in compare.find_multiply_defined(records).values() for r in group]
        for command, ((code, _, _, tables), log, limit) in runs.items():
            want = Counter(map(repr, members if command == "compare" else records))
            loads = Counter(repr(args["record"]) for args, _ in log["_load_entry"])
            walks = len(log["walk"])
            differ = [name for name, data in tables.items() if data != runs["scan"][0][3][name]]
            if code or loads != want or not tables or differ or walks > limit:
                bad.append(f"seed {seed} {command}: exit {code}, each of {sum(want.values())} "
                           f"bundles loaded once: {loads == want}, {walks} walks, differ: {differ}")
    return bad, f"{', '.join(COMMANDS)} on seeds 1 and 2"


def one_listing():
    bad = []
    for seed in (1, 2):
        _, records, runs = command_runs(seed)
        ((code, _, _, tables), log, limit), differ = runs["scan"], []
        for table, analyse in ((report.structures_table, bundles.classify_structure),
                               (report.licenses_table, bundles.detect_license)):
            report.emit(table := table([(r.source_name, analyse(r.root_dir)) for r in records]),
                        "csv", sink := io.BytesIO())
            differ += [table.name] if sink.getvalue() != tables[f"{table.name}.csv"] else []
        walks, is_file = len(log["walk"]), len(log["is_file"])
        bad += [f"seed {seed}: exit {code}, {walks} walks (at most {limit}), {is_file} "
                f"Path.is_file calls, differ from the rebuild: {differ}"
                ] if code or walks > limit or is_file or differ else []
    return bad, "scan on seeds 1 and 2"


def linked_and_renamed():
    root, _, runs = command_runs(1)
    plains = {command: result for command, (result, _, _) in runs.items()}
    link = root / "zz_linked_source"
    os.symlink(min(p.name for p in root.iterdir() if p.is_dir() and p.name[0] != "."), link)
    try:
        linked = {command: run(command, root) for command in COMMANDS}
    finally:
        link.unlink()
    warning = f"warning: cannot list {link}: linked directory, not followed"
    bad = [f"{command} linked" for command, (code, out, err, tables) in linked.items()
           if not tables or (code, out, sorted(err), tables) != (
               *plains[command][:2], sorted(plains[command][2] + [warning]), plains[command][3])]
    infos = {p: p.read_bytes() for p in root.glob("*/source-information.json")}
    try:  # a source is its directory, whatever its source-information.json calls it
        for info, data in infos.items():
            info.write_text(json.dumps({**json.loads(data), "name": f"renamed-{info.parent.name}"}))
        bad += [f"{command} renamed" for command, plain in plains.items()
                if (renamed := run(command, root))[0] != plain[0] or renamed[3] != plain[3]]
    finally:
        for info, data in infos.items():
            info.write_bytes(data)
    return bad + ([] if infos else ["nothing renamed"]), f"{len(infos)} sources renamed"


def parser_differential():
    from oracles import oracle_parse_urdf  # with numpy, as late as may be

    def outcome(parse, path):
        try:
            return repr(parse(path.read_bytes()))
        except model.ParseFailure as failure:
            return failure.message, failure.line, failure.column
    paths = [p for workload, seed in CORPORA[:4] for p in corpus(workload, seed).rglob("*.urdf")]
    differ = [f"parsed differently: {p}" for p in paths
              if outcome(model.parse_urdf, p) != outcome(oracle_parse_urdf, p)]
    return differ + ([] if paths else ["no URDF"]), f"{len(paths)} URDF files, {len(differ)} differ"


def fk_differential():
    from oracles import oracle_fk_deviation

    def agrees(ta, tb):  # fk_equivalent against the oracle at the configurations it sampled
        result = kinematics.fk_equivalent(ta, tb)
        worst = oracle_fk_deviation(ta, tb, result.samples)
        got = (result.worst_deviation, result.worst_rotation)
        return len(result.samples) == 16 and result.equal == all(w <= 1e-6 for w in worst) \
            and all(abs(g - w) <= 1e-9 or math.isnan(g) and math.isnan(w)
                    for g, w in zip(got, worst))

    def turned(urdf, tree):  # its first actuated joint's origin turned 0.1 rad in roll
        joint = tree.actuated[0]
        roll, pitch, yaw = joint.origin.rpy
        turn = joint._replace(origin=joint.origin._replace(rpy=(roll + 0.1, pitch, yaw)))
        return kinematics.build_tree(
            urdf._replace(joints=tuple(turn if j is joint else j for j in urdf.joints)))

    pairs, differ = 0, []
    for workload, seed in CORPORA[:4]:
        for group in compare.find_multiply_defined(
                bundles.scan_corpus(corpus(workload, seed))).values():
            trees = []
            for record in group:
                with contextlib.suppress(OSError, model.ParseFailure, kinematics.TreeError):
                    urdf = model.parse_urdf(record.urdf_file.read_bytes())
                    trees.append((record.source_name, urdf, kinematics.build_tree(urdf)))
            for (a, urdf, ta), (b, _, tb) in combinations(trees, 2):
                if a == b:
                    continue
                with contextlib.suppress(kinematics.Incomparable, kinematics.UnsupportedJoint):
                    same = agrees(ta, tb)
                    pairs += 1
                    if not same:
                        differ.append(f"compared differently: {workload}_{seed} {urdf.name} {a}/{b}")
                    # every pair of the corpora deviates by a constant; a turned copy deviates
                    # from its tree by an amount that varies with the joint values
                    if ta.actuated and not agrees(ta, turned(urdf, ta)):
                        differ.append(f"compared differently: {workload}_{seed} {urdf.name} {a}/turned")
    return differ + ([] if pairs else ["no pair"]), f"{pairs} pairs compared, {len(differ)} differ"


def dedup_differential():
    from oracles import brute_force_duplicates, oracle_content
    groups, bad = 0, []
    for workload, seed in (("scan_mixed", 1), ("scan_mixed", 2), ("dupes_meshes", 2)):
        files = sorted(p for p in corpus(workload, seed).rglob("*") if p.is_file())
        with spying((dedup, "is_text_payload"), (dedup, "_head_key"), (_fs, "read")) as log:
            found = {frozenset(g.members): g for g in dedup.find_duplicates(files)}
        kinds = [args for args, _ in log["is_text_payload"]]
        text = {args["path"]: dedup.is_text_payload(**args) for args in kinds}
        read, asked = Counter(), {args["path"]: [] for args, _ in log["_head_key"]}
        for args, outer in log["read"]:
            if outer is not None:  # in the head stage, which is the only logged caller
                asked[outer[1]["path"]].append(args["size"])
            else:  # in confirmation
                left = max(0, args["path"].stat().st_size - args["offset"])
                read[args["path"]] += left if args["size"] < 0 else min(args["size"], left)
        bad += [f"kind decided {n} times: {p}" for p, n in Counter(a["path"] for a in kinds).items()
                if n > 1]
        bad += [f"binary read {n} bytes of {p.stat().st_size}: {p}" for p, n in read.items()
                if not text[p] and n > p.stat().st_size]
        bad += [f"head stage asked a binary for {sizes} bytes: {p}" for p, sizes in asked.items()
                if not text.get(p, True) and (len(sizes) != 1 or not 0 <= sizes[0] <= 1024)]
        wanted, groups = brute_force_duplicates(files), groups + len(found)
        bad += [f"grouped differently: {sorted(map(str, m))}" for m in set(found) ^ wanted]
        for members in set(found) & wanted:
            group, content = found[members], oracle_content(found[members].members[0])
            if (group.size, group.digest) != (len(content), hashlib.md5(content).hexdigest()):
                bad.append(f"size or digest differ: {sorted(map(str, members))}")
    return bad + ([] if groups else ["no group"]), f"{groups} groups found, {len(bad)} problems"


def gate():
    bad = []  # run.py exits 0 even when units fail, so each JSON result line is checked
    for workload, seed in (("all", 1), ("dupes_meshes", 2), ("scan_mixed", 2), ("compare_fk", 2)):
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                               str(seed), "--seconds", "1", "--trace", "1"],
                              cwd=REPO, capture_output=True, text=True)
        lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
        bad += [f"{workload} seed {seed}: exit {done.returncode}, correct {r.get('correct')}, "
                f"failed {r.get('failed')} {done.stderr[-200:]}" for r in lines or [{}]
                if done.returncode or r.get("correct") is not True or r.get("failed") != 0]
    return bad, "all workloads on seed 1, and dupes_meshes, scan_mixed, compare_fk on seed 2"


CHECKS = {  # each gives its problems and a summary; the memory checks come first
    "Scan peak memory": lambda: peak_memory("scan", "scan_mixed", 35),
    "Dupes peak memory": lambda: peak_memory("dupes", "dupes_meshes", 50),
    "Corpus commands load what their tables read": corpus_commands,
    "One listing": one_listing,
    "Linked and renamed sources": linked_and_renamed,
    "Parser differential": parser_differential,
    "FK differential": fk_differential,
    "Dedup differential": dedup_differential,
    "Benchmark correctness gate": gate,
}


def main():
    global WORK
    with tempfile.TemporaryDirectory() as work:
        WORK = Path(work)
        for workload, seed in CORPORA:
            subprocess.run([sys.executable, str(REPO / "bench" / "corpus.py"), workload,
                            str(seed), str(WORK / f"{workload}_{seed}")], check=True)
        failed = 0
        for name, function in CHECKS.items():
            try:
                bad, summary = function()
            except Exception as exc:  # a crash fails its check and no other
                traceback.print_exc()
                bad, summary = [f"{type(exc).__name__}: {exc}"], "crashed"
            failed += bool(bad)
            print(f"{'FAILED' if bad else 'ok'}: {name}: {summary}"
                  + "".join(f"; {problem}" for problem in bad[:3]), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
