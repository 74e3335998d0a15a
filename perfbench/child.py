"""One fresh interpreter per measured operation: `python -m child '<task json>'`.

The parent passes the task as JSON: which workload step to run, the
parent's CLOCK_MONOTONIC reading taken just before it started this
process (`t0_ns`), and where to write the result.  Set-up time runs from
that reading until `arnold` is imported and the inputs are built.  The
timed interval starts at the first call into `arnold` and ends with the
verdict or the last output byte.  Everything the oracles need is
extracted after the interval closes.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# Each function and the last n before its 64-bit arithmetic overflows.
TRIANGLE_CALLS = (
    ("arnold_numbers", 19),
    ("arnold_hoffman", 20),
    ("hoffman_pq", 19),
    ("check_hoffman_identities", 19),
    ("entringer", 24),
)
TRIANGLE_PAIRS = tuple((f, n) for f, top in TRIANGLE_CALLS for n in range(1, top + 1))


def triangle_blocks(seed: int):
    """The seeded call stream, one block at a time.  Every block holds each
    (function, n) pair once, so n is uniform per function and every seed
    asks for the same work in a different order."""
    rng = random.Random(seed)
    while True:
        block = list(TRIANGLE_PAIRS)
        rng.shuffle(block)
        yield block


def _plain(value):
    return value.to_json_map() if hasattr(value, "to_json_map") else value


def canonical(function: str, result) -> str:
    """Digest of a triangle function's result in canonical JSON form."""
    if function in ("arnold_numbers", "arnold_hoffman"):
        obj = [
            {"n": r.n, "neg": [_plain(v) for v in r.neg], "pos": [_plain(v) for v in r.pos]}
            for r in result
        ]
    elif function == "hoffman_pq":
        obj = [[p.to_json_map(), q.to_json_map()] for p, q in result]
    elif function == "check_hoffman_identities":
        obj = [[r.n, r.q_side_ok, r.p_side_ok] for r in result]
    else:
        obj = [list(row) for row in result]
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss would also count the
    parent's pages when the child was started with vfork."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _run_cli(cli, argv: list[str], out_path: str) -> dict:
    error = None
    rc = None
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            error = repr(exc)
        out.flush()
        wall = time.perf_counter() - start
    return {"wall": wall, "peak_rss_kb": peak_rss_kb(), "rc": rc, "error": error}


def run_verify(arnold, task: dict) -> dict:
    argv = ["verify", "--all", "--max-n", str(task["n"]), "--format", "jsonl"]
    return _run_cli(arnold.cli, argv, task["out"])


def run_enumerate(arnold, task: dict) -> dict:
    argv = ["enumerate", "--family", task["family"], "--n", str(task["n"]), "--with-stats"]
    return _run_cli(arnold.cli, argv, task["out"])


def run_flip(arnold, task: dict) -> dict:
    fam = arnold.families
    start = time.perf_counter()
    found = {family: fam.enumerate_family(family, task["n"]) for family in ("fl-b", "fl-d")}
    wall = time.perf_counter() - start
    out = {"wall": wall, "peak_rss_kb": peak_rss_kb(), "families": {}}
    for family, classes in found.items():
        dist = Counter(f"{1 if c.smax > 0 else -1},{abs(c.smax)},{c.spk}" for c in classes)
        out["families"][family] = {
            "classes": len(classes),
            "members": sum(len(c.members) for c in classes),
            "canon_sorted": all(a.canon < b.canon for a, b in zip(classes, classes[1:])),
            "dist": dict(dist),
        }
    return out


def run_triangles(arnold, task: dict) -> dict:
    """Latencies go into one flat array in stream order, so that keeping them
    barely grows peak RSS with the number of blocks run; the blocks are
    regenerated from the seed afterwards."""
    tri = arnold.triangles
    deadline = time.perf_counter() + task["seconds"] if task.get("seconds") else None
    latencies = array("d")
    digests: dict[str, Counter] = defaultdict(Counter)
    for i, block in enumerate(triangle_blocks(task["seed"])):
        if deadline is None and i == task["blocks"]:
            break
        if deadline is not None and i and time.perf_counter() >= deadline:
            break
        for function, n in block:
            fn = getattr(tri, function)
            start = time.perf_counter()
            try:
                result = fn(n)
            except Exception as exc:
                result = exc
            dt = time.perf_counter() - start
            key = f"{function}/{n}"
            digest = f"raised {result!r}" if isinstance(result, Exception) else canonical(function, result)
            digests[key][digest] += 1
            latencies.append(dt)
    peak = peak_rss_kb()
    stream = iter(latencies)
    blocks = triangle_blocks(task["seed"])
    return {
        "blocks": [
            {f"{f}/{n}": next(stream) for f, n in next(blocks)}
            for _ in range(len(latencies) // len(TRIANGLE_PAIRS))
        ],
        "peak_rss_kb": peak,
        "digests": {k: dict(v) for k, v in digests.items()},
    }


RUNS = {
    "verify": run_verify,
    "enumerate": run_enumerate,
    "flip": run_flip,
    "triangles": run_triangles,
}


def main() -> int:
    task = json.loads(sys.argv[1])
    src = Path(task["src"]).resolve()
    import arnold
    import arnold.cli

    if src not in Path(arnold.__file__).resolve().parents:
        print(f"arnold imported from {arnold.__file__}, not from {src}", file=sys.stderr)
        return 3
    run = RUNS[task["kind"]]
    result = {"setup_s": (time.monotonic_ns() - task["t0_ns"]) / 1e9}
    if not task.get("probe"):
        tracer = probe = None
        if task.get("trace"):
            import layers
            import spans

            tracer = spans.Tracer(task["run_id"])
            probe = layers.Probe(tracer, arnold)
        try:
            result.update(run(arnold, task))
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            result["layers"] = probe.raw()
            tracer.dump(task["trace"])
    with open(task["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
