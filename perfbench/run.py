"""The arnold benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it builds nothing and imports `arnold` from the
`src/` directory next to this one.  Every measured operation runs in a
fresh child interpreter (`child.py`), one at a time, so the package's
`lru_cache`s are cold as in every real `arnold` invocation.  Children get
PYTHONHASHSEED=0, no other PYTHON* or ARNOLD_* variables, and `src/` plus
this directory on their path.  A discarded warm-up child compiles the
bytecode first.

Workloads (the reasons are in BENCHMARK.json):
  verify-all-n4   `arnold verify --all --max-n 4 --format jsonl`
  enumerate-n4    `arnold enumerate --family vs-b --n 4 --with-stats`, then cud-b
  flip-n4         enumerate_family("fl-b", 4) and ("fl-d", 4) in one process
  triangle-calls  one closed-loop caller issuing the seeded triangle call stream

Only triangle-calls reads the seed.  A run repeats its operation until the
next one would overrun --seconds.  Each operation is timed in parts (a
check, a family, a (function, n) call) and `wall_s` is the sum over parts
of each part's fastest time in the run.  The sizes keep every part under
about 20 ms: on a 2-vCPU host whose speed swings by up to half for tens of
seconds at a time, the fastest of many such short intervals moved by 2-4%
between 15-second runs, parts of 30-120 ms (n=5) by 10-15%, and whole
n=7 operations of 12-15 s by 15-30%.

With --trace 0 the run prints the end-to-end metrics.  With --trace 1 it
runs the same untraced operations, then one traced operation, and prints
the per-layer metrics; metrics of a layer the workload never calls are 0.
The last line of standard output is the JSON result; the lines before it
say what ran, on which interpreter, machine and commit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 5  # extra set-up-only children per run, for the setup_s median
TRACE_BLOCKS = 10  # triangle-calls blocks in the traced operation
EXPECTED = json.loads((HERE / "expected.json").read_text())

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import oracles  # noqa: E402


class ChildError(RuntimeError):
    pass


@dataclass
class Op:
    """One operation: its timed units (each a dict part -> seconds), the
    children that ran it, and what its oracle found."""

    units: list[dict[str, float]] = field(default_factory=list)
    peak_rss_kb: int = 0
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0
    layers: list[dict] = field(default_factory=list)
    self_test: tuple | None = None  # (oracle kind, real output)

    def add_child(self, result: dict) -> None:
        self.peak_rss_kb = max(self.peak_rss_kb, result["peak_rss_kb"])
        self.setups.append(result["setup_s"])
        if "layers" in result:
            self.layers.append(result["layers"])


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "ARNOLD_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SRC)])
    return env


class Runner:
    """Starts one child at a time and reads back its result file."""

    def __init__(self, workdir: Path, workload: str, seed: int, deadline: float):
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.started = 0

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def child(self, task: dict, traced: bool = False) -> dict:
        self.started += 1
        run_id = f"{self.workload}:{self.seed}:{self.started}"
        task = dict(task, src=str(SRC), result=self.path(f"result-{self.started}.json"), run_id=run_id)
        if traced:
            task["trace"] = str(WORK / "traces" / f"{self.workload}-{self.started}.spans")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError("out of time for this run")
        task["t0_ns"] = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "child", json.dumps(task)],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildError(f"{task['kind']} child killed after {remaining:.0f} s") from None
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            raise ChildError(f"{task['kind']} child exited {proc.returncode}: {' | '.join(tail)}")
        with open(task["result"]) as f:
            return json.load(f)


# ---------------------------------------------------------------------------
# workloads: each operation returns an Op with its outputs already checked


def op_verify(runner: Runner, traced: bool, seconds: int) -> Op:
    out = runner.path("verify.jsonl")
    r = runner.child({"kind": "verify", "n": oracles.N, "out": out}, traced)
    op = Op()
    op.add_child(r)
    text = Path(out).read_text()
    op.bytes_out = len(text.encode())
    try:
        rows = [json.loads(line) for line in text.splitlines()]
    except ValueError:
        rows = []  # every check then counts as failed
    op.attempted, op.failures = oracles.verify_failures(rows, EXPECTED["verify"])
    if r["error"]:
        op.failures.append(f"verify raised {r['error']}")
    checks = {row["check"]: row["elapsed"] for row in rows}
    op.units = [dict(checks, cli=r["wall"] - sum(checks.values()))]
    op.self_test = ("verify", rows)
    return op


def op_enumerate(runner: Runner, traced: bool, seconds: int) -> Op:
    op = Op(units=[{}], attempted=2)
    for family in ("vs-b", "cud-b"):
        out = runner.path(f"{family}.jsonl")
        r = runner.child({"kind": "enumerate", "family": family, "n": oracles.N, "out": out}, traced)
        op.add_child(r)
        op.units[0][family] = r["wall"]
        text = Path(out).read_text()
        op.bytes_out += len(text.encode())
        try:
            members = oracles.parse_members(text, family)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            op.failures.append(f"{family}: unreadable output ({exc!r})")
            continue
        failures = oracles.enumerate_failures(members, family, EXPECTED["enumerate"])
        if r["error"] or r["rc"] != 0:
            failures.append(f"{family}: exit {r['rc']}, {r['error']}")
        op.failures += failures[:1]
        op.self_test = ("enumerate", (members, family))
    return op


def op_flip(runner: Runner, traced: bool, seconds: int) -> Op:
    r = runner.child({"kind": "flip", "n": oracles.N}, traced)
    op = Op(units=[{"flip": r["wall"]}], attempted=2)
    op.add_child(r)
    for family in ("fl-b", "fl-d"):
        op.failures += oracles.flip_failures(r["families"], family, EXPECTED["flip"])[:1]
    op.self_test = ("flip", r["families"])
    return op


def op_triangles(runner: Runner, traced: bool, seconds: int) -> Op:
    task = {"kind": "triangles", "seed": runner.seed}
    task.update({"blocks": TRACE_BLOCKS} if traced else {"seconds": seconds})
    r = runner.child(task, traced)
    op = Op(units=r["blocks"])
    op.add_child(r)
    op.attempted, op.failures = oracles.triangle_failures(r["digests"], EXPECTED["triangles"])
    op.self_test = ("triangles", r["digests"])
    return op


# name -> (operation, child kind, operations a failed child takes with it)
WORKLOADS = {
    "verify-all-n4": (op_verify, "verify", len(EXPECTED["verify"])),
    "enumerate-n4": (op_enumerate, "enumerate", 2),
    "flip-n4": (op_flip, "flip", 2),
    "triangle-calls": (op_triangles, "triangles", 1),
}


# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def fastest(units: list[dict[str, float]]) -> dict[str, float]:
    """Each part's fastest time over the units."""
    best: dict[str, float] = {}
    for unit in units:
        for part, seconds in unit.items():
            best[part] = min(seconds, best.get(part, seconds))
    return best


def wall(ops: list[Op]) -> float:
    return sum(fastest([u for op in ops for u in op.units]).values())


def run_ops(name: str, runner: Runner, seconds: int, traced: bool) -> list[Op]:
    """Operations until the next one would overrun `seconds` (one when
    traced); a failed child counts its operations as failed."""
    fn, _kind, per_child = WORKLOADS[name]
    ops: list[Op] = []
    start = time.monotonic()
    while True:
        try:
            ops.append(fn(runner, traced, seconds))
        except ChildError as exc:
            ops.append(Op(attempted=per_child, failures=[str(exc)] * per_child))
        spent = time.monotonic() - start
        if traced or spent * (1 + 1 / len(ops)) > seconds:
            return ops


def end_to_end(ops: list[Op], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": wall(ops),
        "setup_s": median(setups + [s for op in ops for s in op.setups]),
        "peak_rss_mb": median([op.peak_rss_kb for op in ops if op.units]) / 1024,
    }


def per_layer(ops: list[Op], traced: Op) -> dict[str, float]:
    out = layers.metrics(traced.layers)
    units = [u for op in ops for u in op.units]
    # The traced operation against the typical untraced one, not the fastest.
    out["trace.overhead_frac"] = (
        median([sum(u.values()) for u in traced.units]) / median([sum(u.values()) for u in units]) - 1
    )
    out["cli.bytes_out"] = traced.bytes_out
    best = fastest(units)
    for check_id in EXPECTED["verify"]:
        out[f"harness.check_s.{check_id}"] = best.get(check_id, 0.0)
    calls = sorted(s for u in units for part, s in u.items() if "/" in part)
    out["triangles.call_p50_us"] = median(calls) * 1e6
    out["triangles.call_p99_us"] = calls[int(0.99 * len(calls))] * 1e6 if calls else 0.0
    out["triangles.calls_per_s"] = len(calls) / sum(calls) if calls else 0.0
    for pair, metric in (("arnold_numbers/5", "arnold_numbers5_us"), ("arnold_hoffman/5", "arnold_hoffman5_us")):
        out[f"triangles.{metric}"] = median([u[pair] for u in units if pair in u]) * 1e6
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "arnold").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    _fn, kind, _per_child = WORKLOADS[name]
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    if trace:
        for old in (WORK / "traces").glob(f"{name}-*.spans"):
            old.unlink()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(Path(tmp), name, seed, deadline)
        probe = {"kind": kind, "probe": True}
        runner.child(probe)  # warm-up: compiles bytecode, result discarded
        setups = [runner.child(probe)["setup_s"] for _ in range(SETUP_PROBES)]
        ops = run_ops(name, runner, seconds, traced=False)
        traced = run_ops(name, runner, seconds, traced=True)[0] if trace else None
    everything = ops + ([traced] if traced else [])
    if not any(op.units for op in ops) or (traced is not None and not traced.units):
        raise ChildError("no operation completed: " + "; ".join(everything[-1].failures[:3]))
    attempted = sum(op.attempted for op in everything)
    failures = [f for op in everything for f in op.failures]
    # The self-test needs a correct output to corrupt; wrong outputs already fail the run.
    first = next((op for op in everything if op.self_test), None)
    self_test_ok = bool(failures) or oracles.self_test(*first.self_test, EXPECTED)
    values = per_layer(ops, traced) if trace else end_to_end(ops, setups)
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(listed):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(listed))}")

    print(f"# workload {name}, seed {seed}, {seconds} s, trace {int(trace)}")
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"commit {commit()}, src sha256 {source_digest()}"
    )
    print(f"# {len(ops)} operations, {sum(len(op.units) for op in ops)} timed units")
    for metric, value in values.items():
        print(f"# {metric} = {value:.6g} {listed[metric]}")
    print(f"# ops_failed_frac = {len(failures) / attempted:.6g} of bench.ops_attempted = {attempted}")
    for failure in list(dict.fromkeys(failures))[:10]:
        print(f"# FAILED {failure}")
    if not failures:
        print(f"# oracle self-test: {'corruption caught' if self_test_ok else 'CORRUPTION MISSED'}")
    return {
        "correct": not failures and self_test_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": listed[m]} for m, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "arnold" / "__init__.py").is_file():
        print(f"error: no arnold package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        except ChildError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(dict(result, workload=name) if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
