"""Benchmark of cycleiso: three workloads, checked outputs, per-layer trace.

Run from the repository root; the package is imported from ``src``
(no install needed):

    python3 bench/run.py --workload enumerate --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it repeats passes of the named workload, each a fresh
interpreter running ``jobs.py`` once, while another pass still fits in
``--seconds``, and prints the end-to-end metrics as medians over passes.
With ``--trace 1`` it runs every workload once plain and once traced and
prints the per-layer metrics, because each layer is driven by a
different workload.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# src/cycleiso as it was at the seed commit, run in turn with the program
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"
WORKLOADS = ("enumerate", "greens", "queries")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

# end-to-end metric -> (unit, its sample in one pass record); setup_s is
# sampled by setup_seconds and peak_rss_mb is not scaled by the reference
END_TO_END = {
    "setup_s": ("s", None),
    "wall_s": ("s", lambda p: p["wall_s"]),
    "cpu_s": ("s", lambda p: p["cpu_s"]),
    "elements_per_s": ("1/s", lambda p: p["elements"] / p["wall_s"]),
    "query_p50_us": ("us", lambda p: p["op_p50_s"] * 1e6),
    "query_p99_us": ("us", lambda p: p["op_p99_s"] * 1e6),
    "peak_rss_mb": ("MB", lambda p: p["peak_rss_mb"]),
}


def _env(src: Path) -> dict:
    """The package under ``src`` on the path, with bytecode caching on for
    both trees, so that imports cost what an installed package's do."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    return env


def _commit() -> str:
    """HEAD's commit id read from ``.git`` itself, or "unknown" outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(src: Path) -> float:
    """Time from spawning an interpreter to ``cycleiso.cli`` imported.  The
    child reports ``perf_counter`` once imported; on Linux both processes
    read the same monotonic clock."""
    code = "import cycleiso.cli, time; print(repr(time.perf_counter()))"
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=_env(src), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


def one_pass(workload: str, seed: int, scale: str, traced: bool, src: Path = SRC) -> dict | None:
    """Run ``jobs.py`` once on the package under ``src``; None when it
    dies or prints no record."""
    argv = [sys.executable, str(BENCH / "jobs.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced)), "--scale", scale, "--out", str(OUT)]
    try:
        done = subprocess.run(argv, env=_env(src), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: pass failed with code {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _tally(passes) -> tuple[int, int]:
    """Operations attempted and failed; a pass that died counts as one
    failed operation."""
    attempted = sum(p["ops"] if p else 1 for p in passes)
    failed = sum(p["failed"] if p else 1 for p in passes)
    for p in passes:
        for error in (p or {}).get("errors", ()):
            print(f"FAILED {error}", file=sys.stderr)
    return attempted, failed


def _repeat(seconds: float, step) -> list:
    """Call ``step`` once, then again while a call as long as the last one
    still ends within ``seconds`` of the start."""
    results, start, last = [], perf_counter(), 0.0
    while not results or perf_counter() - start + last <= seconds:
        began = perf_counter()
        results.append(step())
        last = perf_counter() - began
    return results


def _paired(measure):
    """``measure`` on the program and on the reference, as a (program,
    reference) pair; the side that goes first alternates between calls."""
    turn = itertools.count()

    def pair():
        order = (SRC, REFERENCE) if next(turn) % 2 == 0 else (REFERENCE, SRC)
        got = {src: measure(src) for src in order}
        return got[SRC], got[REFERENCE]

    return pair


def end_to_end(workload: str, seed: int, seconds: float, scale: str):
    """Pairs of passes, program and reference, while another pair fits in
    ``seconds``.  Each timing is the seed-commit figure times the median
    over pairs of program ÷ reference, which cancels the machine's drift
    in speed; see README.md."""
    probe = _paired(setup_seconds)
    setup = [probe() for _ in range(SETUP_PROBES)]
    pairs = _repeat(seconds, _paired(lambda src: one_pass(workload, seed, scale, False, src)))
    good = [(p, r) for p, r in pairs if p and r]
    if not good:
        return None
    scale_of = json.loads((BENCH / "baseline.json").read_text())["scale"][workload]
    values = {}
    for name, (unit, sample) in END_TO_END.items():
        if name == "peak_rss_mb":
            values[name] = statistics.median(sample(p) for p, _ in good)
            print(f"{name:16s} {values[name]:14.6g} {unit:4s} median of {len(good)} passes")
            continue
        samples = setup if sample is None else [(sample(p), sample(r)) for p, r in good]
        ratio = statistics.median(a / b for a, b in samples)
        values[name] = scale_of[name] * ratio
        count = f"{len(samples)} probes" if sample is None else f"{len(samples)} passes"
        if name.startswith("query_"):
            count += f" of {good[0][0]['ops']} operations"
        print(f"{name:16s} {values[name]:14.6g} {unit:4s} = {scale_of[name]:.6g} x {ratio:.4f} "
              f"(median program/reference ratio over {count}; program "
              f"{' '.join(f'{a:.6g}' for a, _ in samples)}; reference {' '.join(f'{b:.6g}' for _, b in samples)})")
    return values, [x for pair in pairs for x in pair]


def _round(seed: int, scale: str):
    """Each workload once plain and once traced."""
    return [(w, one_pass(w, seed, scale, traced=False), one_pass(w, seed, scale, traced=True))
            for w in WORKLOADS]


def per_layer(seed: int, seconds: float, scale: str):
    """Rounds of every workload plain and traced; the last round is reported."""
    rounds = _repeat(seconds, lambda: _round(seed, scale))
    passes = [p for r in rounds for _, plain, traced in r for p in (plain, traced)]
    accounts = rounds[-1]
    if not all(passes):
        return None
    layers = {}
    for workload, plain, traced in accounts:
        layers.update(traced["layers"])
        layers[f"trace_overhead_frac.{workload}"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
        for modules in traced["job_layers"].values():
            for module, t in modules.items():
                name = f"{module}.self_s"
                layers[name] = (layers.get(name, (0.0,))[0] + t, "s")
    for workload, plain, traced in accounts:
        for job, untraced_s in sorted(plain["jobs"].items()):
            modules = traced["job_layers"].get(job, {})
            spans = " ".join(f"{m}={t:.4f}" for m, t in sorted(modules.items()))
            print(f"{workload}/{job}: untraced {untraced_s:.4f} s, traced {traced['jobs'][job]:.4f} s,"
                  f" layer self times (s) {spans}, outside spans {traced['jobs'][job] - sum(modules.values()):.4f}")
    for name, (value, unit) in sorted(layers.items()):
        print(f"{name:44s} {value:14.6g} {unit}")
    values = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    return values, units, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cycleiso benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small monoids and few queries, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if not (SRC / "cycleiso" / "cli.py").is_file():
        print(f"error: no cycleiso sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"scale={args.scale} commit={_commit()} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    if args.trace:
        result = per_layer(args.seed, args.seconds, args.scale)
        if result is None:
            print("error: a traced pass failed", file=sys.stderr)
            return 1
        values, units, passes = result
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, args.scale)
        if result is None:
            print("error: every pass failed", file=sys.stderr)
            return 1
        values, passes = result
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    attempted, failed = _tally(passes)
    print(f"failed_frac      {failed / attempted:14.6g}      {failed} of {attempted} operations failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
