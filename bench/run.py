"""Corpus benchmark for urdf-inspect.

Generates the corpus of one workload from ``--seed``, then runs its CLI
command, ``python -m urdf_inspect.cli --out DIR COMMAND CORPUS``, in a
fresh process again and again for ``--seconds`` seconds: a closed loop
with one client, each run starting after the previous one exits.  One
unrecorded run first warms the page cache.  Every run's tables must be
byte-identical and are checked against the corpus manifest.

With ``--trace 0`` it reports the end-to-end metrics (wall_s,
peak_rss_mb, setup_s); with ``--trace 1`` it runs the command once more
with spans and counts around the calls into each module
(``bench/trace_cli.py``) and reports the per-layer metrics.  Run from the
repository root:

    python3 bench/run.py --workload scan_mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Attempted counts the units
of the corpus (bundles, robots or files, see ``bench/check.py``) and
failed those whose facts came out wrong, judged over all measured runs
together, so both depend on the seed and not on how many runs fit in
``--seconds``; failed/attempted is the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import corpus
import tracer

REPO = Path.cwd()
SETUP_SAMPLES = 9
MIN_RUNS = 3
CHILD_TIMEOUT_S = 30  # a hung child is killed, so a run still ends within 180 s
MIB = float(1 << 20)

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("model.parse_s", "s", "lower"), ("model.files", "count", "lower"),
    ("model.bytes", "B", "lower"), ("model.parse_ms.p50", "ms", "lower"),
    ("model.parse_ms.p99", "ms", "lower"),
    ("validator.self_s", "s", "lower"), ("validator.sanity_s", "s", "lower"),
    ("validator.errors", "count", "lower"), ("validator.warnings", "count", "lower"),
    ("kinematics.build_tree_s", "s", "lower"), ("kinematics.fk_s", "s", "lower"),
    ("kinematics.fk_pairs", "count", "lower"), ("kinematics.fk_samples", "count", "lower"),
    ("kinematics.fk_comparable_ratio", "ratio", "higher"),
    ("kinematics.fk_pair_ms.p50", "ms", "lower"), ("kinematics.fk_pair_ms.p99", "ms", "lower"),
    ("compare.group_s", "s", "lower"), ("compare.self_s", "s", "lower"),
    ("compare.groups", "count", "lower"), ("compare.pairs", "count", "lower"),
    ("bundles.scan_corpus_s", "s", "lower"), ("bundles.structure_s", "s", "lower"),
    ("bundles.license_s", "s", "lower"), ("bundles.analyses_s", "s", "lower"),
    ("bundles.walks", "count", "lower"),
    ("dedup.enumerate_s", "s", "lower"), ("dedup.find_s", "s", "lower"),
    ("dedup.files", "count", "lower"), ("dedup.bytes", "B", "lower"),
    ("dedup.text_bytes", "B", "lower"), ("dedup.unique_size_files", "count", "lower"),
    ("dedup.dup_files", "count", "lower"), ("dedup.useful_ratio", "ratio", "higher"),
    ("dedup.max_bucket_mb", "MB", "lower"),
    ("report.build_s", "s", "lower"), ("report.emit_s", "s", "lower"),
    ("report.tables", "count", "lower"), ("report.bytes_out", "B", "lower"),
    ("cli.read_s", "s", "lower"), ("cli.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Layer times that are self times, for the largest-self-time line.
SELF_TIMES = ("model.parse_s", "validator.self_s", "validator.sanity_s",
              "kinematics.build_tree_s", "kinematics.fk_s", "compare.self_s",
              "bundles.scan_corpus_s", "bundles.structure_s", "bundles.license_s",
              "bundles.analyses_s", "dedup.enumerate_s", "dedup.find_s",
              "report.build_s", "report.emit_s", "cli.read_s")


class Setup(Exception):
    """The checkout cannot run the benchmark."""


# --------------------------------------------------------------------------
# Child processes.
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("URDF_INSPECT_JOBS", None)  # the dedup pool uses every core
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int, float, float]:
    """Run one child to completion: (wall s, exit code, peak RSS MB, CPU s)."""
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=REPO, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def cli_argv(out: Path, workload: str, root: Path) -> list[str]:
    return [sys.executable, "-m", "urdf_inspect.cli", "--out", str(out),
            check.COMMANDS[workload], str(root)]


class Runs:
    """Measured CLI runs of one workload and their table checks."""

    def __init__(self, workload: str, work: Path, manifest: dict):
        self.workload = workload
        self.work = work
        self.manifest = manifest
        self.units = check.unit_count(manifest)
        self.root = work / "corpus"
        self.walls: list[float] = []
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.cpu: list[float] = []
        self.problems: list[str] = []
        self.runs = 0
        self.bad_runs = 0  # exited non-zero or wrote other tables than the first run
        self.reference: dict[str, bytes] | None = None
        self.check: check.CheckResult | None = None

    def invoke(self, argv: list[str], out: Path, record: bool) -> None:
        shutil.rmtree(out, ignore_errors=True)
        wall, code, rss, cpu = spawn(argv, self.work / "stderr.log")
        tables = check.read_tables(out) if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        if self.reference is None and code == 0:
            self.reference = tables
            self.check = check.check_tables(self.manifest, tables)
        if not record:
            return
        self.runs += 1
        self.walls.append(wall)
        self.rss.append(rss)
        self.cpu.append(cpu)
        if code != 0:
            log = (self.work / "stderr.log").read_text(errors="replace").strip()[-500:]
            self.problems.append(f"run {self.runs} exited {code}: {log}")
        elif tables != self.reference:
            self.problems.append(f"run {self.runs}: tables differ from the first run's")
        else:
            return
        self.bad_runs += 1

    @property
    def failed_units(self) -> int:
        """Units whose facts are wrong: all of them if a run exited
        non-zero or wrote other tables than the first, else those the
        manifest check failed on the tables every run wrote."""
        if self.bad_runs or self.check is None:
            return self.units
        return self.check.failed_count

    @property
    def correct(self) -> bool:
        """Every run exited 0 and wrote every table, byte-identical across runs."""
        return (self.runs > 0 and self.reference is not None
                and not check.missing_tables(self.workload, self.reference)
                and not self.bad_runs)

    def measure(self, seconds: float, setup_samples: int = 0) -> None:
        """CLI runs for ``seconds``; with ``setup_samples``, a set-up
        measurement after each run (and more at the end if too few), so
        both medians span the same stretch of time."""
        out = self.work / "out"
        argv = cli_argv(out, self.workload, self.root)
        self.invoke(argv, out, record=False)  # warm the page cache
        if setup_samples:
            self.setup_time()  # unrecorded, like the CLI warm-up
        start = time.perf_counter()
        while self.runs < MIN_RUNS or time.perf_counter() - start < seconds:
            self.invoke(argv, out, record=True)
            if setup_samples:
                self.setups.append(self.setup_time())
        while len(self.setups) < setup_samples:
            self.setups.append(self.setup_time())

    def setup_time(self) -> float:
        """Fresh interpreter to urdf_inspect.cli imported, in a child that
        runs no command."""
        log = self.work / "stderr.log"
        wall, code, _, _ = spawn([sys.executable, "-c", "import urdf_inspect.cli"], log)
        if code != 0:
            raise Setup("importing urdf_inspect.cli failed: "
                        + log.read_text(errors="replace")[-500:])
        return wall


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------------
# Workload runs.
# --------------------------------------------------------------------------


def machine_info() -> str:
    import numpy
    import pyexpat
    jobs = os.environ.get("URDF_INSPECT_JOBS")
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} expat={pyexpat.EXPAT_VERSION} "
            f"URDF_INSPECT_JOBS={'unset' if jobs is None else jobs} (unset for the CLI runs)")


def prepare(workload: str, seed: int, work: Path) -> Runs:
    """Write the workload's corpus under ``work`` and return its Runs."""
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    manifest = corpus.make_corpus(workload, seed, work / "corpus")
    elapsed = time.perf_counter() - start
    files = manifest["files"]
    print(f"workload {workload} seed {seed}: {len(manifest['bundles'])} bundles, "
          f"{len(manifest['robots'])} multiply defined robots, {len(files)} files, "
          f"{sum(f['size'] for f in files.values()) / MIB:.1f} MB, generated in {elapsed:.2f} s")
    return Runs(workload, work, manifest)


def work_dir(workload: str, seed: int) -> Path:
    return REPO / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"


def report_check(runs: Runs) -> None:
    result = runs.check
    share = runs.failed_units / runs.units if runs.units else 1.0
    print(f"failed_share {share:.4f} ratio ({runs.failed_units} of {runs.units} units, judged "
          f"over {runs.runs} runs; a unit is a {UNIT_NAMES[runs.workload]})")
    for line in runs.problems[:10]:
        print(f"  run problem: {line}")
    if result is not None:
        for line in result.problems[:25]:
            print(f"  manifest check: {line}")
        if len(result.problems) > 25:
            print(f"  manifest check: ... {len(result.problems) - 25} more")


UNIT_NAMES = {"scan_mixed": "bundle", "compare_fk": "multiply defined robot",
              "dupes_meshes": "file"}


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    work = work_dir(workload, seed)
    try:
        runs = prepare(workload, seed, work)
        runs.measure(seconds, SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = runs.setups
    q1, wall, q3 = quartiles(runs.walls)
    print(machine_info())
    print(f"wall_s {wall:.4f} s (median of {runs.runs} runs; quartiles {q1:.4f} .. {q3:.4f})")
    print(f"  every run: {' '.join(f'{w:.3f}' for w in runs.walls)}")
    print(f"peak_rss_mb {statistics.median(runs.rss):.2f} MB (median; max {max(runs.rss):.2f})")
    s1, setup, s3 = quartiles(setups)
    print(f"setup_s {setup:.4f} s (median of {len(setups)}; quartiles {s1:.4f} .. {s3:.4f})")
    print(f"cli.cpu_s {statistics.median(runs.cpu):.4f} s (median user+sys of the command)")
    report_check(runs)
    metrics = {"wall_s": wall, "peak_rss_mb": statistics.median(runs.rss), "setup_s": setup}
    return {"correct": runs.correct, "attempted": runs.units, "failed": runs.failed_units,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}}


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(trace: dict, untraced_wall: float, traced_wall: float,
                  cpu: float) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced run.

    Spans are named ``<layer>.<function>`` after the module that defines
    the function called, plus ``cli.read`` and ``cli.walk`` for the reads
    and walks the CLI makes outside every module call."""
    spans = [tracer.Span(*row) for row in trace["spans"]]
    counts = trace["counts"]
    own = tracer.self_times(spans)
    names = {span.id: span.name for span in spans}

    def self_time(match) -> float:
        return sum(own[span.id] for span in spans if match(span.name))

    def total(match) -> float:
        """Duration of the outermost matching spans."""
        return sum(span.duration for span in spans
                   if match(span.name) and not match(names.get(span.parent, "")))

    def layer(prefix: str, *exclude: str):
        return lambda name: name.startswith(prefix) and name not in exclude

    def named(*wanted: str):
        return lambda name: name in wanted

    parse_ms = [d * 1e3 for d in tracer.durations(spans, "model.parse_urdf")]
    fk_ms = [d * 1e3 for d in tracer.durations(spans, "kinematics.fk_equivalent")]
    fk_pairs = counts.get("kinematics.fk_pairs", 0)
    files = counts.get("dedup.files", 0)
    bundle_own = ("bundles.scan_corpus", "bundles.classify_structure", "bundles.detect_license")
    emit = ("report.write_tables", "report.emit")
    return {
        "model.parse_s": total(named("model.parse_urdf")),
        "model.files": counts.get("model.files", 0),
        "model.bytes": counts.get("model.bytes", 0),
        "model.parse_ms.p50": percentile(parse_ms, 0.5),
        "model.parse_ms.p99": percentile(parse_ms, 0.99),
        "validator.self_s": self_time(named("validator.validate")),
        "validator.sanity_s": total(named("validator.kinematic_sanity")),
        "validator.errors": counts.get("validator.errors", 0),
        "validator.warnings": counts.get("validator.warnings", 0),
        "kinematics.build_tree_s": total(named("kinematics.build_tree")),
        "kinematics.fk_s": total(layer("kinematics.", "kinematics.build_tree")),
        "kinematics.fk_pairs": fk_pairs,
        "kinematics.fk_samples": counts.get("kinematics.fk_samples", 0),
        "kinematics.fk_comparable_ratio":
            counts.get("kinematics.fk_comparable", 0) / fk_pairs if fk_pairs else 0.0,
        "kinematics.fk_pair_ms.p50": percentile(fk_ms, 0.5),
        "kinematics.fk_pair_ms.p99": percentile(fk_ms, 0.99),
        "compare.group_s": total(layer("compare.")),
        "compare.self_s": self_time(layer("compare.")),
        "compare.groups": counts.get("compare.groups", 0),
        "compare.pairs": counts.get("compare.pairs", 0),
        "bundles.scan_corpus_s": self_time(named("bundles.scan_corpus")),
        "bundles.structure_s": self_time(named("bundles.classify_structure")),
        "bundles.license_s": self_time(named("bundles.detect_license")),
        "bundles.analyses_s": self_time(layer("bundles.", *bundle_own)),
        "bundles.walks": counts.get("bundles.walks", 0),
        "dedup.enumerate_s": total(named("cli.walk")),
        "dedup.find_s": self_time(layer("dedup.")),
        "dedup.files": files,
        "dedup.bytes": counts.get("dedup.bytes", 0),
        "dedup.text_bytes": counts.get("dedup.text_bytes", 0),
        "dedup.unique_size_files": counts.get("dedup.unique_size_files", 0),
        "dedup.dup_files": counts.get("dedup.dup_files", 0),
        "dedup.useful_ratio": counts.get("dedup.dup_files", 0) / files if files else 0.0,
        "dedup.max_bucket_mb": counts.get("dedup.max_bucket_mb", 0.0),
        "report.build_s": self_time(layer("report.", *emit)),
        "report.emit_s": self_time(named(*emit)),
        "report.tables": counts.get("report.tables", 0),
        "report.bytes_out": counts.get("report.bytes_out", 0),
        "cli.read_s": total(named("cli.read")),
        "cli.cpu_s": cpu,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def cross_check(manifest: dict, metrics: dict[str, float]) -> list[str]:
    """Traced counts that differ from the counts the manifest implies."""
    out = []
    for name, want in check.expected_counters(manifest).items():
        got = metrics[name]
        ok = abs(got - want) <= 1e-9 * max(1.0, abs(want))
        print(f"  cross-check {name}: manifest {want:g}, traced {got:g}"
              f"{'' if ok else '  MISMATCH'}")
        if not ok:
            out.append(name)
    return out


def fk_sample_failures(manifest: dict, traced: dict[str, int]) -> set[str]:
    """Units of the robots whose traced FK samples differ from the
    manifest's.  Such a difference is a wrong answer about the robot (a
    comparable pair left unsampled), so it fails units, not the run."""
    expected = check.expected_fk_samples(manifest)
    wrong = {name for name in expected.keys() | traced.keys()
             if expected.get(name, 0) != traced.get(name, 0)}
    print(f"  cross-check kinematics.fk_samples: manifest {sum(expected.values())}, traced "
          f"{sum(traced.values())}; {len(wrong)} of {len(expected)} robots differ"
          f"{': ' + ', '.join(sorted(wrong)) if wrong else ''}")
    return check.robot_units(manifest, wrong)


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    work = work_dir(workload, seed)
    try:
        runs = prepare(workload, seed, work)
        runs.measure(seconds / 2)
        out, trace_path = work / "traced", work / "trace.json"
        argv = [sys.executable, str(REPO / "bench" / "trace_cli.py"), check.COMMANDS[workload],
                str(runs.root), str(out), str(trace_path)]
        wall, code, _, _ = spawn(argv, work / "stderr.log")
        if code != 0:
            raise Setup("traced run failed: "
                        + (work / "stderr.log").read_text(errors="replace")[-2000:])
        tables = check.read_tables(out)
        trace = json.loads(trace_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = layer_metrics(trace, statistics.median(runs.walls), wall - trace["post_s"],
                            statistics.median(runs.cpu))
    print(machine_info())
    print(f"untraced wall_s {statistics.median(runs.walls):.4f} s (median of {runs.runs}), "
          f"traced {wall - trace['post_s']:.4f} s")
    for name, unit, _ in PER_LAYER:
        print(f"{name} {metrics[name]:.6g} {unit}")
    own = {name: metrics[name] for name in SELF_TIMES}
    largest = max(own, key=own.get)
    print(f"largest self time: {largest} {own[largest]:.4f} s")
    mismatches = cross_check(runs.manifest, metrics)
    fk_failed = fk_sample_failures(runs.manifest, trace["fk_samples_by_robot"])
    same = tables == runs.reference
    if not same:
        print("traced run tables differ from the untraced runs'")
    report_check(runs)
    if same and not runs.bad_runs and runs.check:
        failed_units = runs.check.failed | fk_failed
        failed = min(runs.units, len(failed_units) + runs.check.extra_failed)
    else:
        failed = runs.units
    print(f"traced run: {failed} of {runs.units} units failed on the tables or FK samples")
    return {"correct": runs.correct and same and not mismatches,
            "attempted": runs.units, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in PER_LAYER}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "urdf_inspect" / "cli.py").is_file():
        print("error: run from the repository root; src/urdf_inspect is missing", file=sys.stderr)
        return 2
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            run = run_traced if args.trace else run_end_to_end
            result = run(workload, args.seed, args.seconds)
        except Setup as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
