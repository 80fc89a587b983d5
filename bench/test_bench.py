"""The benchmark's own tests; not part of tier-1.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import gzip
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import jobs
import run
from cycleiso.brute_force import kind_elements
from cycleiso.engine import EnumeratedMonoid, export_bytes

ROOT = Path(__file__).resolve().parent.parent


def _bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _declared(section):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_run_is_correct_and_prints_the_declared_end_to_end_metrics(workload):
    result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_run_prints_the_declared_per_layer_metrics():
    result = _bench("enumerate", 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _declared("per_layer")


def test_pinned_exports_match_the_brute_force_monoids():
    for (kind, n, fmt), digest in jobs.EXPORT_SHA256.items():
        data = export_bytes(EnumeratedMonoid(n, kind_elements(kind, n)), fmt)
        assert hashlib.sha256(data).hexdigest() == digest, (kind, n, fmt)


def _corrupting(edit):
    """``cli.main`` followed by ``edit(argv, stdout_text)``, whose return
    value is printed in place of the real standard output."""
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = jobs.cli.main(argv)
        print(edit(argv, buf.getvalue()), end="")
        return code
    return main


def _drop_last_export_line(argv, text):
    path = Path(argv[argv.index("--out") + 1])
    data = path.read_bytes()
    if "--gzip" in argv:
        path.write_bytes(gzip.compress(b"".join(gzip.decompress(data).splitlines(True)[:-1]), mtime=0))
    else:
        path.write_bytes(b"".join(data.splitlines(True)[:-1]))
    return text


def _wrong_class_count(argv, text):
    head, rest = text.split("\n", 1)
    count = int(head.split("classes=")[1].split()[0])
    return head.replace(f"classes={count}", f"classes={count + 1}") + "\n" + rest


@pytest.mark.parametrize("workload, edit", [
    ("enumerate", _drop_last_export_line),
    ("greens", _wrong_class_count),
])
def test_a_corrupted_output_counts_as_a_failure(tmp_path, workload, edit):
    table = jobs.jobs(workload, "tiny")
    assert all(op["error"] is None for op in jobs.run_cli_jobs(table, tmp_path, jobs.cli.main))
    ops = jobs.run_cli_jobs(table, tmp_path, _corrupting(edit))
    assert all(op["error"] is not None and op["elements"] == 0 for op in ops)
    record = {"ops": len(ops), "failed": sum(op["error"] is not None for op in ops), "errors": []}
    assert run._tally([record]) == (len(ops), len(ops))


def test_a_wrong_query_answer_counts_as_a_failure():
    queries = jobs.make_queries(5, "tiny")
    api = SimpleNamespace(**{attr: fn for attr, fn, _ in jobs._QUERY_API})
    ops, _, _ = jobs.run_queries(queries, api)
    assert all(op["error"] is None for op in ops)
    api.text = lambda p: str(p) + "1"
    ops, _, _ = jobs.run_queries(queries, api)
    assert all(op["error"] is not None for op in ops)


def test_queries_mix_members_refusals_and_non_isometries():
    queries = jobs.make_queries(7, "full")
    assert len(queries) == 2400
    count = {e: sum(q.expect == e for q in queries) for e in ("member", "refused", "non_isometry")}
    assert count == {"member": 2040, "refused": 240, "non_isometry": 120}
    assert jobs.make_queries(7, "full") == queries
