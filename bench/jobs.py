"""One pass of one workload, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python3 bench/jobs.py --workload queries --seed 1 --trace 0 --out .bench_out

Prints one JSON record as its last line of output: times of the job
list, per-operation latencies, failures with their reasons and, with
``--trace 1``, the per-layer metrics.  Every output is checked after its
operation's timed span ends.  Spans are written to
``<out>/spans_<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from cycleiso import KINDS, MembershipError, PartialPerm, card
from cycleiso.brute_force import kind_elements
from cycleiso.generators import GeneratorSet

from spans import Tracer

cli = importlib.import_module("cycleiso.cli")
engine = importlib.import_module("cycleiso.engine")
dihedral = importlib.import_module("cycleiso.dihedral")
factorize_mod = importlib.import_module("cycleiso.factorize")
generators = importlib.import_module("cycleiso.generators")
geometry = importlib.import_module("cycleiso.geometry")

WORKLOADS = ("enumerate", "greens", "queries")
QUERY_SIZES = (8, 16, 24, 32)
# (members, refusals, non-isometries) per query size
QUERY_MIX = {"full": (510, 60, 30), "tiny": (8, 1, 1)}
# size of the monoids whose every element is factorized for word_letters
WORD_LETTERS_N = {"full": 8, "tiny": 5}
MICRO_SAMPLE = 1000

# sha256 of each export's uncompressed bytes, pinned at the seed commit and
# checked equal to the export of brute_force.kind_elements (test_bench.py).
# The payload is pinned rather than the gzip stream, whose bytes may change
# with the zlib build while the export does not.
EXPORT_SHA256 = {
    ("opdi", 11, "txt"): "3925e845001eda0374c8514b0093874c3387a6fb2d5a74d041ae47e9f663eafa",
    ("odi", 12, "jsonl"): "52869ce5301b84b7f90fe604e5f4f29ebc1264db04992ce2f4de39a2cae1ea3f",
    ("mdi", 10, "txt"): "f471698e627628e94e32ab761ccc3ef8f74d5feb069da36d100fa09cc15fa40b",
    ("opdi", 5, "txt"): "f0230b1a2641d0a20a9a09458726944cc85e041cb954e4fda0f40d444a422f62",
    ("odi", 6, "jsonl"): "eb5da489793b4325bfa49ec495bdf8db80f303deaa39488c2bc144e2391a8ced",
    ("mdi", 5, "txt"): "ef60c28f48a25a95c6c3e6af2362047f3a9f4f5014baba3a88a505eeda6bf8a0",
}

# class count and (class size, number of classes) histogram, pinned at the
# seed commit, where the structural and distance-sequence partitions agree
GREENS = {
    ("odi", 9, "J"): (253, ((1, 128), (4, 63), (9, 31), (16, 15), (25, 7), (36, 3), (49, 1), (81, 5))),
    ("mdi", 9, "J"): (148, ((1, 1), (2, 15), (4, 56), (8, 7), (16, 28), (18, 7), (32, 3), (36, 12),
                            (50, 3), (64, 6), (72, 1), (81, 1), (98, 1), (100, 2), (144, 1), (162, 4))),
    ("opdi", 9, "J"): (60, ((1, 1), (9, 1), (27, 2), (81, 52), (162, 4))),
    ("opdi", 10, "L"): (1024, ((1, 1), (10, 983), (20, 40))),
    ("odi", 5, "J"): (15, ((1, 8), (4, 3), (9, 1), (25, 3))),
    ("mdi", 5, "J"): (12, ((1, 1), (2, 3), (4, 2), (8, 1), (16, 1), (18, 1), (25, 1), (50, 2))),
    ("opdi", 5, "J"): (8, ((1, 1), (5, 1), (25, 4), (50, 2))),
    ("opdi", 6, "L"): (64, ((1, 1), (6, 51), (12, 12))),
}


@dataclass(frozen=True)
class Job:
    """One ``cycleiso`` command line.  ``label`` names the job in metric
    names and is the same at every scale, so that a tiny run prints the
    names a full run prints."""

    label: str
    command: str
    kind: str
    n: int
    flags: tuple[str, ...] = ()

    def argv(self, out: Path) -> list[str]:
        argv = [self.command, self.kind, str(self.n), *self.flags]
        return argv + ["--out", str(out)] if self.command == "enumerate" else argv

    @property
    def relation(self) -> str:
        return self.flags[self.flags.index("--relation") + 1] if "--relation" in self.flags else "J"


def jobs(workload: str, scale: str) -> tuple[Job, ...]:
    tiny = scale == "tiny"
    if workload == "enumerate":
        return (
            Job("opdi11", "enumerate", "opdi", 5 if tiny else 11),
            Job("odi12", "enumerate", "odi", 6 if tiny else 12,
                ("--format", "jsonl", "--gzip", "--workers", "1")),
            Job("mdi10", "enumerate", "mdi", 5 if tiny else 10, ("--workers", "1")),
        )
    return (
        Job("odi9", "greens", "odi", 5 if tiny else 9),
        Job("mdi9", "greens", "mdi", 5 if tiny else 9),
        Job("opdi9", "greens", "opdi", 5 if tiny else 9),
        Job("opdi10L", "greens", "opdi", 6 if tiny else 10, ("--relation", "L")),
    )


def check_export(job: Job, data: bytes) -> str | None:
    """Why an export is wrong, or None when it holds exactly the monoid."""
    if "--gzip" in job.flags:
        if data[:2] != b"\x1f\x8b" or data[4:8] != bytes(4):
            return "not a gzip stream with a zero timestamp"
        data = gzip.decompress(data)
    fmt = "jsonl" if "jsonl" in job.flags else "txt"
    lines = data.count(b"\n")
    if lines != card(job.kind, job.n):
        return f"{lines} lines, expected card={card(job.kind, job.n)}"
    if hashlib.sha256(data).hexdigest() != EXPORT_SHA256[(job.kind, job.n, fmt)]:
        return "sha256 differs from the pinned export"
    return None


def check_greens(job: Job, text: str) -> str | None:
    """Why a ``greens`` output is wrong, or None when it matches the pins."""
    classes, histogram = GREENS[(job.kind, job.n, job.relation)]
    head = f"kind={job.kind} n={job.n} relation={job.relation} classes={classes}"
    if job.relation == "J":
        head += " crosscheck=PASS"
    expected = [head, "class_size,num_classes"] + [f"{s},{c}" for s, c in histogram]
    if text.splitlines() != expected:
        return "summary or class histogram differs from the pinned values"
    return None


def _elements(job: Job) -> int:
    if job.command == "enumerate":
        return card(job.kind, job.n)
    return sum(size * count for size, count in GREENS[(job.kind, job.n, job.relation)][1])


def run_cli_jobs(table, work: Path, main, tracer=None) -> list[dict]:
    """Run each job through ``main`` and check its output afterwards."""
    ops = []
    for job in table:
        if tracer:
            tracer.job = job.label
        out = work / f"{job.label}.out"
        buf = io.StringIO()
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(job.argv(out))
        except Exception as exc:  # a traceback is a failed operation
            code = repr(exc)
        wall, cpu = perf_counter() - t0, process_time() - c0
        if code != 0:
            error = f"exit code {code}"
        elif job.command == "enumerate":
            error = check_export(job, out.read_bytes())
        else:
            error = check_greens(job, buf.getvalue())
        head = buf.getvalue().partition("\n")[0]
        ops.append({
            "label": job.label, "wall": wall, "cpu": cpu, "error": error,
            "elements": 0 if error else _elements(job),
            "bytes": out.stat().st_size if out.exists() else 0,
            "classes": int(head.split("classes=")[1].split()[0]) if "classes=" in head else 0,
        })
    return ops


# --- query inputs, made without the library -------------------------------

@dataclass(frozen=True)
class Query:
    n: int
    kind: str
    text: str
    expect: str  # "member", "refused" or "non_isometry"
    symmetry: tuple[int, int] | None  # (j, k) of the h^j g^k the map was cut from


def _image(n: int, j: int, k: int, i: int) -> int:
    """Point i under h^j g^k: reflect i -> n - i + 1 when j = 1, then rotate by k."""
    if j:
        i = n - i + 1
    return (i - 1 + k) % n + 1


def _text(n: int, pairs) -> str:
    return f"n={n};" + ",".join(f"{a}>{b}" for a, b in pairs)


def _kinds_of(values) -> set[str]:
    """Kinds an isometry with these images along its ascending domain is in."""
    t = len(values)
    up = all(values[i] < values[i + 1] for i in range(t - 1))
    down = all(values[i] > values[i + 1] for i in range(t - 1))
    descents = sum(values[i] > values[(i + 1) % t] for i in range(t))
    return {kind for kind, ok in (("odi", up), ("mdi", up or down), ("opdi", descents <= 1)) if ok}


def _distance(n: int, x: int, y: int) -> int:
    return min(abs(x - y), n - abs(x - y))


def _cut(rng, n: int):
    """A random symmetry restricted to a random domain; half the domains lie
    inside one arc on which the symmetry is monotone."""
    j, k = rng.randrange(2), rng.randrange(n)
    if rng.random() < 0.5:
        pool = range(1, n + 1)
    else:
        cut = k if j else n - k
        pool = rng.choice((range(1, cut + 1), range(cut + 1, n + 1)))
    domain = sorted(rng.sample(pool, rng.randint(0, len(pool))))
    return (j, k), [(a, _image(n, j, k, a)) for a in domain]


def _query(rng, n: int, expect: str) -> Query:
    while True:
        if expect == "non_isometry":
            domain = sorted(rng.sample(range(1, n + 1), rng.randint(3, n)))
            pairs = list(zip(domain, rng.sample(range(1, n + 1), len(domain))))
            if any(_distance(n, a, b) != _distance(n, fa, fb)
                   for a, fa in pairs for b, fb in pairs):
                return Query(n, rng.choice(KINDS), _text(n, pairs), expect, None)
            continue
        symmetry, pairs = _cut(rng, n)
        kinds = _kinds_of([b for _, b in pairs])
        choices = sorted(kinds) if expect == "member" else sorted(set(KINDS) - kinds)
        if choices:
            return Query(n, rng.choice(choices), _text(n, pairs), expect, symmetry)


def make_queries(seed: int, scale: str) -> list[Query]:
    rng = random.Random(seed)
    members, refusals, strangers = QUERY_MIX[scale]
    out = [
        _query(rng, n, expect)
        for n in QUERY_SIZES
        for expect, count in (("member", members), ("refused", refusals), ("non_isometry", strangers))
        for _ in range(count)
    ]
    rng.shuffle(out)
    return out


def _answer(q: Query, api):
    """The public calls ``cycleiso classify`` and ``cycleiso factorize`` make."""
    p = api.parse(q.text)
    report = api.classify(p)
    try:
        word = api.factorize(p, q.kind)
    except MembershipError:
        return p, report, None, None, api.text(p)
    back = api.evaluate(api.generators(q.kind, p.n), word)
    return p, report, word, back, api.text(p)


def check_answer(q: Query, answer) -> str | None:
    """Why a query's answer is wrong, or None."""
    if isinstance(answer, Exception):
        return f"raised {answer!r}"
    p, report, word, back, text = answer
    if text != q.text:
        return f"printed {text!r}"
    if q.expect == "non_isometry":
        ok = not report.in_di and not report.extensions and word is None
        return None if ok else "a non-isometry was accepted"
    if not report.in_di or q.symmetry not in {(s.j, s.k) for s in report.extensions}:
        return f"h^{q.symmetry[0]} g^{q.symmetry[1]} missing from the extensions"
    member = getattr(report, "in_" + q.kind)
    if q.expect == "refused":
        return None if not member and word is None else f"not refused for {q.kind}"
    if not member or word is None or back != p:
        return f"no exact factorization over {q.kind}"
    return None


def run_queries(queries, api, tracer=None) -> tuple[list[dict], float, float]:
    answers, latencies = [], []
    t0, c0 = perf_counter(), process_time()
    for i, q in enumerate(queries):
        if tracer:
            tracer.job = (i, q.n)
        start = perf_counter()
        try:
            answers.append(_answer(q, api))
        except Exception as exc:  # an unexpected error is a failed operation
            answers.append(exc)
        latencies.append(perf_counter() - start)
    wall, cpu = perf_counter() - t0, process_time() - c0
    ops = [
        {"label": f"n{q.n}", "wall": t, "error": check_answer(q, a), "elements": 1}
        for q, a, t in zip(queries, answers, latencies)
    ]
    return ops, wall, cpu


# --- per-layer metrics -----------------------------------------------------

def _timed(loop, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        loop()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def _per_call_us(loop, calls: int) -> float:
    return _timed(loop) / calls * 1e6


@contextlib.contextmanager
def _keeping(owner, attr: str, into: dict, key):
    """Keep each result of ``owner.attr`` in ``into[key()]``."""
    fn = getattr(owner, attr)

    def kept(*args, **kwargs):
        result = fn(*args, **kwargs)
        into[key()] = result
        return result

    setattr(owner, attr, kept)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def _enumerate_layers(rng, table, ops, closed, tracer) -> dict:
    layers = {}
    spans = tracer.totals(lambda name, job: (name, job))
    own = tracer.totals(lambda name, job: (name, job), self_time=True)
    size = {op["label"]: op["bytes"] for op in ops}
    for job in table:
        m, label = closed[job.label], job.label
        products = m.size * len(m.generators)
        depths = Counter(len(w) for w in m.words.values())
        close_s = spans[("engine.close", label)][0]
        layers.update({
            f"engine.close_s.{label}": (close_s, "s"),
            f"engine.close_products_per_s.{label}": (products / close_s, "1/s"),
            f"engine.close_products.{label}": (products, "count"),
            f"engine.close_new_frac.{label}": ((m.size - 1) / products, "ratio"),
            f"engine.close_depth.{label}": (max(depths), "count"),
            f"engine.close_max_frontier.{label}": (max(depths.values()), "count"),
            f"engine.export_s.{label}": (spans[("engine.export_bytes", label)][0], "s"),
            f"engine.export_bytes.{label}": (size[label], "B"),
            f"cli.self_s.{label}": (own[("cli.main", label)][0], "s"),
        })
    pairs = [(rng.choice(closed[job.label].elements), rng.choice(closed[job.label].generators))
             for job in table for _ in range(MICRO_SAMPLE)]
    elems = [a for a, _ in pairs]
    texts = [str(a) for a in elems]
    largest = list(max(closed.values(), key=len).elements)
    rng.shuffle(largest)
    first = table[0]
    serial = _timed(lambda: engine.close(first.n, closed[first.label].generators, workers=1), 1)
    layers.update({
        "partial_perm.compose_us": (_per_call_us(lambda: [a * g for a, g in pairs], len(pairs)), "us"),
        "partial_perm.hash_us": (_per_call_us(lambda: [hash(a) for a in elems], len(elems)), "us"),
        "partial_perm.str_us": (_per_call_us(lambda: [str(a) for a in elems], len(elems)), "us"),
        "partial_perm.parse_us": (
            _per_call_us(lambda: [PartialPerm.parse(t) for t in texts], len(texts)), "us"),
        "partial_perm.sort_s": (_timed(lambda: sorted(largest), 3), "s"),
        "engine.close_workers_ratio": (spans[("engine.close", first.label)][0] / serial, "ratio"),
    })
    return layers


def _greens_layers(rng, table, ops, tracer) -> dict:
    layers = {}
    classes = {op["label"]: op["classes"] for op in ops}
    spans = tracer.totals(lambda name, job: (name, job))
    own = tracer.totals(lambda name, job: (name, job), self_time=True)
    for job in table:
        label = job.label
        layers[f"brute_force.kind_monoid_s.{label}"] = (spans[("brute_force.kind_monoid", label)][0], "s")
        layers[f"engine.green_structural_s.{label}"] = (
            spans[("engine.green_structural", label)][0], "s")
        layers[f"cli.self_s.{label}"] = (own[("cli.main", label)][0], "s")
        if job.relation == "J":
            layers[f"engine.j_partition_s.{label}"] = (spans[("engine.j_partition", label)][0], "s")
            layers[f"engine.cross_check_s.{label}"] = (own[("engine.cross_check_green", label)][0], "s")
            layers[f"engine.j_classes.{label}"] = (classes[label], "count")
    elems = [rng.choice(kind_elements(job.kind, job.n)) for job in table for _ in range(MICRO_SAMPLE)]
    domains = [(p.n, p.domain) for p in elems if p.rank >= 2]
    layers["partial_perm.inverse_us"] = (
        _per_call_us(lambda: [p.inverse() for p in elems], len(elems)), "us")
    layers["geometry.distance_sequence_us"] = (
        _per_call_us(lambda: [geometry.distance_sequence(n, d) for n, d in domains], len(domains)), "us")
    return layers


def _queries_layers(scale, tracer) -> dict:
    layers = {}
    by_n = tracer.totals(lambda name, job: (name, job[1]))
    for n in QUERY_SIZES:
        for name, metric in (("dihedral.extensions", "dihedral.extensions_us"),
                             ("dihedral.classify", "dihedral.classify_us"),
                             ("factorize.factorize", "factorize.factorize_us")):
            total, calls = by_n[(name, n)]
            layers[f"{metric}.n{n}"] = (total / calls * 1e6, "us")
    total, calls = tracer.totals(lambda name, job: name if name == "generators.evaluate" else None)[
        "generators.evaluate"]
    layers["generators.evaluate_us"] = (total / calls * 1e6, "us")
    n = WORD_LETTERS_N[scale]
    words = [factorize_mod.factorize(p, kind) for kind in KINDS for p in kind_elements(kind, n)]
    layers["factorize.word_letters"] = (sum(map(len, words)) / len(words), "letters")
    return layers


# --- one pass --------------------------------------------------------------

def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


_CLI_TARGETS = (
    (cli, "standard_generators", "generators.standard_generators"),
    (cli, "close", "engine.close"),
    (cli, "export_bytes", "engine.export_bytes"),
    (cli, "kind_monoid", "brute_force.kind_monoid"),
    (cli, "green_structural", "engine.green_structural"),
    (cli, "cross_check_green", "engine.cross_check_green"),
    (engine, "green_structural", "engine.green_structural"),
    (engine, "j_partition", "engine.j_partition"),
)
_QUERY_TARGETS = (
    (dihedral, "extensions", "dihedral.extensions"),
    (factorize_mod, "classify", "dihedral.classify"),
    (factorize_mod, "extensions", "dihedral.extensions"),
)
_QUERY_API = (
    ("parse", PartialPerm.parse, "partial_perm.parse"),
    ("classify", dihedral.classify, "dihedral.classify"),
    ("factorize", factorize_mod.factorize, "factorize.factorize"),
    ("generators", generators.standard_generators, "generators.standard_generators"),
    ("evaluate", GeneratorSet.evaluate, "generators.evaluate"),
    ("text", PartialPerm.__str__, "partial_perm.str"),
)


def _cli_pass(workload, rng, scale, out, tracer):
    table = jobs(workload, scale)
    closed = {}
    with contextlib.ExitStack() as stack:
        work = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=out)))
        if tracer:
            stack.enter_context(tracer.patched(_CLI_TARGETS))
            stack.enter_context(_keeping(cli, "close", closed, lambda: tracer.job))
            ops = run_cli_jobs(table, work, tracer.wrap("cli.main", cli.main), tracer)
        else:
            ops = run_cli_jobs(table, work, cli.main)
    wall = sum(op["wall"] for op in ops)
    cpu = sum(op["cpu"] for op in ops)
    if not tracer:
        return ops, wall, cpu, {}
    if workload == "enumerate":
        return ops, wall, cpu, _enumerate_layers(rng, table, ops, closed, tracer)
    return ops, wall, cpu, _greens_layers(rng, table, ops, tracer)


def _queries_pass(seed, scale, tracer):
    queries = make_queries(seed, scale)
    if not tracer:
        api = SimpleNamespace(**{attr: fn for attr, fn, _ in _QUERY_API})
        return (*run_queries(queries, api), {})
    api = SimpleNamespace(**{attr: tracer.wrap(name, fn) for attr, fn, name in _QUERY_API})
    with tracer.patched(_QUERY_TARGETS):
        ops, wall, cpu = run_queries(queries, api, tracer)
    return ops, wall, cpu, _queries_layers(scale, tracer)


def run(workload: str, seed: int, scale: str, out: Path, traced: bool) -> dict:
    """One pass of the workload's job list, checked; traced when asked."""
    tracer = Tracer() if traced else None
    if workload == "queries":
        ops, wall, cpu, layers = _queries_pass(seed, scale, tracer)
    else:
        ops, wall, cpu, layers = _cli_pass(workload, random.Random(seed), scale, out, tracer)
    latencies = [op["wall"] for op in ops]
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "elements": sum(op["elements"] for op in ops),
        "op_p50_s": statistics.median(latencies),
        "op_p99_s": _percentile(latencies, 0.99),
        "ops": len(ops),
        "failed": sum(op["error"] is not None for op in ops),
        "errors": sorted({f'{op["label"]}: {op["error"]}' for op in ops if op["error"]})[:10],
        "jobs": {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for op in ops:
        record["jobs"][op["label"]] = record["jobs"].get(op["label"], 0.0) + op["wall"]
    if tracer:
        # queries are grouped by size; a CLI job is its own group
        group = (lambda job: f"n{job[1]}") if workload == "queries" else (lambda job: job)
        job_layers = {}
        for (job, module), (t, _) in tracer.totals(
            lambda name, job: (group(job), name.split(".")[0]), self_time=True
        ).items():
            job_layers.setdefault(job, {})[module] = t
        record["layers"] = layers
        record["job_layers"] = job_layers
        tracer.write(out / f"spans_{workload}.json")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    record = run(args.workload, args.seed, args.scale, args.out, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
