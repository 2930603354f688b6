"""Acceptance gate: eight checks, one printed pass/fail line each.

Every check is self-contained and uses only temporary directories, so the
module also runs standalone: python3 tests/test_acceptance.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import generators
import oracles
from ecstmetrics import measure_tree, parse_file, parse_source
from ecstmetrics.cli import main as cli_main
from ecstmetrics.metrics import cyclomatic_complexity, element_name
from ecstmetrics.tree import UniversalKind, find_nodes, preorder
from ecstmetrics.xmlio import parse_tree_xml, serialize_metrics, serialize_tree

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

CORPUS = (
    ("QuickSort.mod", "modula2"),
    ("QuickSort.java", "javaoo"),
    ("Features.mod", "modula2"),
    ("Features.java", "javaoo"),
)

EXPECTED_CC = (7, 4, 1, 1, 1, 1, 1, 1, 1, 1)
EXPECTED_ANNOTATIONS = (
    "FUNCTION_DECL",
    "LOOP_STATEMENT",
    "LOOP_STATEMENT",
    "LOOP_STATEMENT",
    "BRANCH_STATEMENT",
    "BRANCH",
    "BRANCH_STATEMENT",
    "BRANCH",
    "BRANCH_STATEMENT",
    "BRANCH",
)


def _fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


# Lines land here as well; the pytest terminal-summary hook in conftest.py
# echoes them after capture ends, so the gate run shows one line per criterion.
REPORTED: list[str] = []


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    line = f"ACCEPTANCE {number} {verdict}: {title}{suffix}"
    REPORTED.append(line)
    print(line, flush=True)


@contextlib.contextmanager
def _sandbox():
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield tmp
        finally:
            os.chdir(previous)


def _check(fn):
    try:
        fn()
        return True, ""
    except AssertionError as e:
        return False, str(e) or "assertion failed"


def _modula2_rows():
    tree = parse_file(os.path.join(FIXTURES, "QuickSort.mod"), "modula2")
    return measure_tree(tree).elements


def test_criterion_1_table_cc_reproduction():
    def body():
        started = time.perf_counter()
        rows = _modula2_rows()
        elapsed = time.perf_counter() - started
        assert len(rows) == 10, f"expected 10 rows, got {len(rows)}"
        assert tuple(r.cc for r in rows) == EXPECTED_CC, [r.cc for r in rows]
        assert tuple(r.annotation for r in rows) == EXPECTED_ANNOTATIONS
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    ok, detail = _check(body)
    _report(1, "Modula-2 QuickSort reproduces the reference CC column", ok, detail)
    assert ok, detail


def test_criterion_2_cross_language_invariance():
    def body():
        mod_rows = _modula2_rows()
        java_tree = parse_file(os.path.join(FIXTURES, "QuickSort.java"), "javaoo")
        java_rows = measure_tree(java_tree).elements
        assert [r.cc for r in java_rows] == [r.cc for r in mod_rows]
        assert [r.annotation for r in java_rows] == [r.annotation for r in mod_rows]

    ok, detail = _check(body)
    _report(2, "Java QuickSort yields the identical CC and annotation columns", ok, detail)
    assert ok, detail


def test_criterion_3_do_while_disambiguation():
    def body():
        original = _fixture("QuickSort.java")
        mutated = original.replace("do {", "while (i <= j) {").replace(
            "} while (i <= j);", "}"
        )
        assert mutated != original, "mutation did not apply"
        before = parse_source(original, "javaoo")
        after = parse_source(mutated, "javaoo")
        assert len(find_nodes(before, UniversalKind.LOOP_STATEMENT)) == 3
        assert len(find_nodes(after, UniversalKind.LOOP_STATEMENT)) == 3
        cc_before = [r.cc for r in measure_tree(before).elements]
        cc_after = [r.cc for r in measure_tree(after).elements]
        assert cc_before == cc_after, f"{cc_before} != {cc_after}"

    ok, detail = _check(body)
    _report(3, "Rewriting do-while as while changes no CC value", ok, detail)
    assert ok, detail


def test_criterion_4_loc_columns_match_line_oracle():
    def body():
        for name, language in CORPUS:
            text = _fixture(name)
            code, comment = oracles.classify_lines(text, language)
            report = measure_tree(parse_file(os.path.join(FIXTURES, name), language))
            assert report.totals.loc == oracles.line_count(text), name
            assert report.totals.sloc == len(code), name
            assert report.totals.cloc == len(comment), name
            for row in report.elements:
                label = f"{name}:{row.name}@{row.start_line}"
                assert row.loc == row.end_line - row.start_line + 1, label
                assert row.start_line in code or row.start_line in comment, label
                assert row.end_line in code or row.end_line in comment, label
                window = range(row.start_line, row.end_line + 1)
                assert row.sloc == sum(1 for n in window if n in code), label
                assert row.cloc == sum(1 for n in window if n in comment), label

    ok, detail = _check(body)
    _report(4, "Element and file line counts match an independent oracle", ok, detail)
    assert ok, detail


def test_criterion_5_xml_round_trip():
    def body():
        for name, language in CORPUS:
            tree = parse_file(os.path.join(FIXTURES, name), language)
            document = serialize_tree(tree)
            reloaded = parse_tree_xml(document)
            assert oracles.same_tree(reloaded, tree), name
            assert serialize_tree(reloaded) == document, name

    ok, detail = _check(body)
    _report(5, "Tree XML round-trips structurally and byte-identically", ok, detail)
    assert ok, detail


def test_criterion_6_pipeline_equivalence():
    def body():
        with _sandbox():
            for name, _ in CORPUS:
                shutil.copy(os.path.join(FIXTURES, name), name)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_main(["run", *[name for name, _ in CORPUS]])
            assert code == 0, f"run exited {code}"
            for name, language in CORPUS:
                with open(name + ".metrics.xml", encoding="utf-8") as handle:
                    written = handle.read()
                direct = serialize_metrics(measure_tree(parse_file(name, language)))
                assert written == direct, name

    ok, detail = _check(body)
    _report(6, "Reload-then-measure output equals direct measurement", ok, detail)
    assert ok, detail


def test_criterion_7_oracle_equivalence():
    def body():
        started = time.perf_counter()
        for language in ("modula2", "javaoo"):
            for seed in range(100):
                program = generators.generate(language, seed)
                tree = parse_source(program.source, language)
                units = find_nodes(tree, UniversalKind.FUNCTION_DECL)
                assert len(units) == len(program.units), f"{language} seed {seed}"
                for unit in units:
                    name = element_name(unit)
                    brute = sum(
                        1
                        for n in preorder(unit)
                        if n.kind is UniversalKind.LOOP_STATEMENT
                        or (
                            n.kind is UniversalKind.BRANCH
                            and any(
                                c.kind is UniversalKind.CONDITION
                                for c in n.children
                            )
                        )
                    )
                    tracked = program.units[name]
                    label = f"{language} seed {seed} unit {name}"
                    assert brute == tracked.decisions, label
                    assert cyclomatic_complexity(unit) == 1 + brute, label
                    assert (
                        cyclomatic_complexity(unit, extended=True)
                        == 1 + brute + tracked.logicals
                    ), label
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    ok, detail = _check(body)
    _report(7, "Generated programs: CC equals 1 + brute-force decision count", ok, detail)
    assert ok, detail


def test_criterion_8_error_paths():
    def body():
        with _sandbox():
            with open("notes.txt", "w", encoding="utf-8") as handle:
                handle.write("plain text\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main(["measure", "notes.txt"])
            assert code == 2, f"unknown extension exited {code}"

            source = _fixture("QuickSort.java")
            broken = source.replace("} while (i <= j);", "} whale (i <= j);")
            assert broken != source
            lines = broken.splitlines()
            expected_line = next(
                i for i, line in enumerate(lines, start=1) if "whale" in line
            )
            expected_col = lines[expected_line - 1].index("whale") + 1
            with open("Broken.java", "w", encoding="utf-8") as handle:
                handle.write(broken)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main(["measure", "Broken.java"])
            assert code == 3, f"syntax error exited {code}"
            match = re.match(r"Broken\.java:(\d+):(\d+): error:", err.getvalue())
            assert match, f"unexpected stderr: {err.getvalue()!r}"
            assert int(match.group(1)) == expected_line, err.getvalue()
            assert int(match.group(2)) == expected_col, err.getvalue()

    ok, detail = _check(body)
    _report(8, "Unknown extension exits 2; injected syntax error exits 3 with position", ok, detail)
    assert ok, detail


_ALL = (
    test_criterion_1_table_cc_reproduction,
    test_criterion_2_cross_language_invariance,
    test_criterion_3_do_while_disambiguation,
    test_criterion_4_loc_columns_match_line_oracle,
    test_criterion_5_xml_round_trip,
    test_criterion_6_pipeline_equivalence,
    test_criterion_7_oracle_equivalence,
    test_criterion_8_error_paths,
)


if __name__ == "__main__":
    failures = 0
    for check in _ALL:
        try:
            check()
        except AssertionError:
            failures += 1
        except Exception as e:  # noqa: BLE001 - standalone runner reports and moves on
            failures += 1
            print(f"ERROR in {check.__name__}: {e!r}", flush=True)
    print(f"acceptance: {len(_ALL) - failures}/{len(_ALL)} criteria passed", flush=True)
    sys.exit(1 if failures else 0)
