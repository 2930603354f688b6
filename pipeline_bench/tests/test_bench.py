"""Tests of the benchmark's own parts: generator, line oracle, checks, tracer.

Run from the root of a checkout:  python3 -m pytest pipeline_bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_OF, Tracer  # noqa: E402

# Hand-checked (loc, sloc, cloc, startLine, endLine) per report row, and
# file (loc, sloc, cloc), for the four fixtures.
FIXTURE_LINES = {
    "QuickSort.mod": (
        [
            (32, 30, 3, 15, 46),
            (15, 15, 1, 24, 38),
            (3, 3, 0, 25, 27),
            (3, 3, 0, 28, 30),
            (7, 7, 1, 31, 37),
            (6, 6, 1, 31, 36),
            (3, 3, 0, 40, 42),
            (2, 2, 0, 40, 41),
            (3, 3, 0, 43, 45),
            (2, 2, 0, 43, 44),
        ],
        (48, 39, 4),
    ),
    "QuickSort.java": (
        [
            (27, 21, 3, 4, 30),
            (15, 12, 1, 9, 23),
            (2, 2, 0, 10, 11),
            (2, 2, 0, 12, 13),
            (7, 6, 1, 15, 21),
            (7, 6, 1, 15, 21),
            (2, 2, 0, 26, 27),
            (2, 2, 0, 26, 27),
            (2, 2, 0, 28, 29),
            (2, 2, 0, 28, 29),
        ],
        (31, 23, 4),
    ),
    "Features.mod": (
        [
            (15, 15, 0, 11, 25),
            (9, 9, 0, 15, 23),
            (2, 2, 0, 15, 16),
            (2, 2, 0, 17, 18),
            (2, 2, 0, 19, 20),
            (2, 2, 0, 21, 22),
            (18, 16, 0, 27, 44),
            (4, 4, 0, 29, 32),
            (3, 3, 0, 38, 40),
            (3, 3, 0, 41, 43),
        ],
        (49, 39, 2),
    ),
    "Features.java": (
        [
            (13, 13, 0, 6, 18),
            (9, 9, 0, 8, 16),
            (3, 3, 0, 8, 10),
            (3, 3, 0, 10, 12),
            (3, 3, 0, 12, 14),
            (3, 3, 0, 14, 16),
            (15, 15, 0, 20, 34),
            (3, 3, 0, 22, 24),
            (5, 5, 0, 25, 29),
            (2, 2, 0, 27, 28),
            (3, 3, 0, 30, 32),
        ],
        (35, 31, 2),
    ),
}

# Hand-checked annotations and CC (plain, extended) of fixture units.
QUICKSORT_ROWS = [
    ("FUNCTION_DECL", 7),
    ("LOOP_STATEMENT", 4),
    ("LOOP_STATEMENT", 1),
    ("LOOP_STATEMENT", 1),
    ("BRANCH_STATEMENT", 1),
    ("BRANCH", 1),
    ("BRANCH_STATEMENT", 1),
    ("BRANCH", 1),
    ("BRANCH_STATEMENT", 1),
    ("BRANCH", 1),
]
CLASSIFY_CC = ([4, 3, 1, 1, 1, 0], [6, 5, 2, 2, 1, 0])
TALLY_JAVA_CC = [5, 1, 2, 1, 1, 1]


def _language(name: str) -> str:
    return gen.JAVA if name.endswith(".java") else gen.MODULA2


def _offsets(text: str, first: int, last: int) -> tuple[int, int]:
    """From the first non-blank character of line first to the last of line last."""
    lines = text.split("\n")
    start = sum(len(line) + 1 for line in lines[: first - 1])
    start += len(lines[first - 1]) - len(lines[first - 1].lstrip())
    end = sum(len(line) + 1 for line in lines[: last - 1]) + len(lines[last - 1].rstrip())
    return start, end


@pytest.mark.parametrize("name", sorted(FIXTURE_LINES))
def test_line_oracle_reproduces_fixture_tables(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    rows, totals = FIXTURE_LINES[name]
    lines = oracle.LineOracle(text, _language(name))
    assert lines.totals() == totals
    for loc, sloc, cloc, first, last in rows:
        assert lines.element(*_offsets(text, first, last)) == (loc, sloc, cloc, first, last)


def test_line_oracle_counts_only_newline_as_a_break():
    text = "class A { // one\x0c two\r\n int x; }\r"
    assert oracle.LineOracle(text, gen.JAVA).totals() == (2, 2, 1)


def _emitter(language: str) -> gen._Emitter:
    return gen._EMITTERS[language](random.Random(0), gen.Profile(target_chars=0))


def _quicksort_sort(em: gen._Emitter, ind: str) -> None:
    """Sort's shape: a do-loop holding two loops and an if; then two ifs."""
    inner = ind + em.indent_unit

    def plain():
        em.plain(inner)

    def repeat_body():
        em.loop(inner, plain, False, kind=0)
        em.end_line()
        em.loop(inner, plain, False, kind=0)
        em.end_line()
        em.chain(inner, plain, False, arms=1, with_else=False, extra=0)
        em.end_line()

    em.loop(ind, repeat_body, False, kind=1, extra=0)
    em.end_line()
    for _ in range(2):
        em.chain(ind, plain, False, arms=1, with_else=False, extra=0)
        em.end_line()


@pytest.mark.parametrize("language", [gen.JAVA, gen.MODULA2])
def test_generator_records_quicksort_cc(language):
    em = _emitter(language)
    em.unit("", lambda ind: _quicksort_sort(em, ind))
    rows = [(c.annotation, c.cc(False)) for c in em.w.constructs]
    assert rows == QUICKSORT_ROWS


@pytest.mark.parametrize("language", [gen.JAVA, gen.MODULA2])
def test_generator_records_classify_extended_cc(language):
    em = _emitter(language)

    def classify(ind):
        em.chain(ind, lambda: em.plain(ind), False, arms=3, with_else=True, extra=(1, 1, 0))
        em.end_line()

    em.unit("", classify)
    plain, extended = CLASSIFY_CC
    assert [c.cc(False) for c in em.w.constructs] == plain
    assert [c.cc(True) for c in em.w.constructs] == extended


def test_generator_records_java_tally_cc():
    em = _emitter(gen.JAVA)

    def tally(ind):
        inner = ind + em.indent_unit
        em.loop(ind, lambda: em.plain(ind), False, kind=2, extra=0)
        em.end_line()

        def forever_body():
            em.chain(inner, lambda: em.plain(inner), False, arms=1, with_else=False, extra=0)
            em.end_line()

        em.loop(ind, forever_body, False, kind=3)
        em.end_line()
        em.loop(ind, lambda: em.plain(ind), False, kind=1, extra=0)
        em.end_line()

    em.unit("", tally)
    assert [c.cc(False) for c in em.w.constructs] == TALLY_JAVA_CC


def _report(source: gen.Source, extended: bool) -> bytes:
    from ecstmetrics import measure_tree, parse_source, serialize_metrics

    tree = parse_source(source.raw(), source.language, source.name)
    return serialize_metrics(measure_tree(tree, extended=extended)).encode("utf-8")


def _sample_source() -> gen.Source:
    return gen.generate(gen.JAVA, "s.java", "checks", gen.Profile(target_chars=3_000))


@pytest.mark.parametrize("extended", [False, True])
def test_checks_accept_the_programs_report(extended):
    source = _sample_source()
    assert oracle.check_metrics(source, _report(source, extended), extended) == []


@pytest.mark.parametrize("attribute", ["cc", "sloc"])
def test_checks_reject_one_value_off_by_one(attribute):
    source = _sample_source()
    data = _report(source, False).decode("utf-8")
    head, _, rest = data.partition(f' {attribute}="')
    value, _, tail = rest.partition('"')
    broken = f'{head} {attribute}="{int(value) + 1}"{tail}'.encode("utf-8")
    problems = oracle.check_metrics(source, broken, False)
    assert len(problems) == 1 and "row 0" in problems[0]


def test_tree_check_rejects_a_changed_lexeme():
    from ecstmetrics import parse_source, serialize_tree

    source = _sample_source()
    data = serialize_tree(parse_source(source.raw(), source.language, source.name))
    assert oracle.check_tree(source, oracle.TreeFacts(data.encode())) == []
    broken = data.replace(">total<", ">tota<", 1)
    assert oracle.check_tree(source, oracle.TreeFacts(broken.encode())) != []


def test_corpus_depends_only_on_the_seed():
    first = workloads.corpus(workloads.PARSE_DENSE, 7)
    again = workloads.corpus(workloads.PARSE_DENSE, 7)
    other = workloads.corpus(workloads.PARSE_DENSE, 8)
    assert [s.text for s in first] == [s.text for s in again]
    assert [s.text for s in first] != [s.text for s in other]
    assert len(first) == len(other)


def test_span_self_times_sum_to_root_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("scan", lambda: None)
    middle = tracer.wrap("lex", lambda: (leaf(), leaf()))
    root = tracer.wrap("main", lambda: (middle(), leaf()))
    root()
    root()
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert sum(tracer.self_times()) == roots
    assert all(t > 0 for t in tracer.self_times())


def test_traced_layers_account_for_the_traced_wall_time(tmp_path):
    import ecstmetrics.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        main = tracer.wrap("main", cli.main)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(FIXTURES / "QuickSort.java"), "--metrics-dir", str(tmp_path)])
            tree = tmp_path / "q.ecst.xml"
            assert main(["parse", str(FIXTURES / "QuickSort.mod"), "--out", str(tree)]) == 0
            assert main(["measure", str(tree), "--out", str(tmp_path / "m.xml")]) == 0
    finally:
        tracer.uninstall()
    assert code == 0
    assert {s.name for s in tracer.spans} == set(LAYER_OF)
    wall = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=1e-9)
    assert cli.parse_tree_xml.__module__ == "ecstmetrics.xmlio"  # unwrapped again


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "run-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
