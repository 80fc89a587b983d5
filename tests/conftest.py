"""Shared strategies: random partial permutations on small cycles; and a
capped child process for calls that must not run in the test process."""

import os
import subprocess
import sys
from operator import itemgetter

from hypothesis import strategies as st

import cycleiso
from cycleiso import PartialPerm

_CAP = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
"""


def capped_child_lines(code: str) -> list[str]:
    """Run ``code`` in a child with its address space capped at 400 MB and
    a 60 s timeout; return its stdout lines.  The package and the tests
    directory are importable there.  A call that tries to build something
    enormous fails in the child, which prints a traceback instead of the
    lines a test expects, and never exhausts this process's memory."""
    src = os.path.dirname(os.path.dirname(cycleiso.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    child = subprocess.run(
        [sys.executable, "-c", _CAP + code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


class Five(int):
    """An int subclass, equal to 5 and hashed like it, but refused like bool."""


def perm_on(n: int):
    """Strategy for one partial permutation of 1..n."""

    def build(data):
        dom, img, k = data
        return PartialPerm(n, tuple(zip(sorted(dom[:k]), img[:k])))

    return st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.permutations(list(range(1, n + 1))),
        st.integers(0, n),
    ).map(build)


def sparse_perm_on(n: int, max_pairs: int = 6):
    """Strategy for a partial permutation of 1..n with at most ``max_pairs``
    pairs, n itself drawn as a point as often as all the others together."""
    point = st.integers(1, n) | st.just(n)
    pairs = st.lists(
        st.tuples(point, point), max_size=max_pairs, unique_by=(itemgetter(0), itemgetter(1))
    )
    return pairs.map(lambda pairs: PartialPerm.from_map(n, pairs))


@st.composite
def perms(draw, min_n=3, max_n=8):
    return draw(perm_on(draw(st.integers(min_n, max_n))))


@st.composite
def perm_pairs(draw, min_n=3, max_n=8):
    n = draw(st.integers(min_n, max_n))
    return draw(perm_on(n)), draw(perm_on(n))


@st.composite
def perm_triples(draw, min_n=3, max_n=8):
    n = draw(st.integers(min_n, max_n))
    return draw(perm_on(n)), draw(perm_on(n)), draw(perm_on(n))
