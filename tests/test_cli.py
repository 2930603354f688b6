"""Command-line interface: outputs, registry resolution, exit codes."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import os
import random
import resource
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecstmetrics
import generators
from ecstmetrics import cli, measure_tree, parse_file, parse_source, xmlio
from ecstmetrics.cli import main
from ecstmetrics.errors import LexError, ParseError, TreeXmlError
from ecstmetrics.frontends.base import MAX_NESTING
from ecstmetrics.metrics import render_table
from ecstmetrics.tree import EcstTree, SourceSpan
from ecstmetrics.xmlio import (
    load_tree_file,
    parse_tree_xml,
    serialize_metrics,
    serialize_tree,
)
from oracles import same_tree
from test_reference_parity import LANGUAGES, PROGRAMS
import test_xmlio
from test_xmlio import MINI_XML, writer_documents  # noqa: F401 (a fixture)


@pytest.fixture
def workdir(tmp_path, fixture_dir, monkeypatch):
    for name in os.listdir(fixture_dir):
        if name != "languages.xml":
            shutil.copy(fixture_dir / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestParseCommand:
    def test_writes_default_tree_file(self, workdir, capsys):
        assert main(["parse", "QuickSort.mod"]) == 0
        out = workdir / "QuickSort.mod.ecst.xml"
        assert out.exists()
        assert "QuickSort.mod -> QuickSort.mod.ecst.xml" in capsys.readouterr().out
        direct = parse_file("QuickSort.mod", "modula2")
        assert same_tree(load_tree_file(out), direct)

    def test_out_flag(self, workdir):
        assert main(["parse", "QuickSort.java", "--out", "t.xml"]) == 0
        assert (workdir / "t.xml").exists()

    def test_parse_is_idempotent(self, workdir):
        assert main(["parse", "Features.mod"]) == 0
        first = (workdir / "Features.mod.ecst.xml").read_bytes()
        assert main(["parse", "Features.mod"]) == 0
        assert (workdir / "Features.mod.ecst.xml").read_bytes() == first


class TestMeasureCommand:
    def test_measure_source_file(self, workdir):
        assert main(["measure", "QuickSort.mod"]) == 0
        out = workdir / "QuickSort.mod.metrics.xml"
        expected = serialize_metrics(
            measure_tree(parse_file("QuickSort.mod", "modula2"))
        )
        assert out.read_text(encoding="utf-8") == expected

    def test_measure_tree_file(self, workdir):
        assert main(["parse", "Features.java"]) == 0
        assert main(["measure", "Features.java.ecst.xml"]) == 0
        out = workdir / "Features.java.metrics.xml"
        assert out.exists()

    def test_measure_agrees_between_source_and_tree(self, workdir):
        assert main(["parse", "QuickSort.java"]) == 0
        assert main(["measure", "QuickSort.java.ecst.xml", "--out", "via_tree.xml"]) == 0
        assert main(["measure", "QuickSort.java", "--out", "via_source.xml"]) == 0
        via_tree = (workdir / "via_tree.xml").read_text(encoding="utf-8")
        via_source = (workdir / "via_source.xml").read_text(encoding="utf-8")
        # only the source attribute differs between the two routes
        assert via_tree.replace(
            'source="QuickSort.java.ecst.xml"', 'source="QuickSort.java"'
        ) == via_source

    def test_table_flag_prints_rows(self, workdir, capsys):
        assert main(["measure", "QuickSort.mod", "--table"]) == 0
        out = capsys.readouterr().out
        assert "ELEMENT" in out
        assert "<file>" in out
        assert "Sort" in out

    def test_extended_cc_flag(self, workdir):
        assert main(["measure", "Features.mod", "--extended-cc", "--out", "e.xml"]) == 0
        text = (workdir / "e.xml").read_text(encoding="utf-8")
        assert 'name="Classify" annotation="FUNCTION_DECL" cc="6"' in text


def _measure_outcome(argv) -> tuple:
    """main(argv)'s exit code, standard output and error, and the bytes
    of the metrics file it names with --out (None when there is none)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    path = Path(argv[argv.index("--out") + 1])
    written = path.read_bytes() if path.exists() else None
    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    return code, out.getvalue(), err.getvalue(), written


def _tree_path_outcomes(src: str, out: str, flag_sets: list) -> list[tuple]:
    """What measure prints and writes for the tree file src with --out
    out and each list of flags, as _measure_outcome gives it, worked out
    from measure_tree(load_tree_file(src)) without the command."""
    try:
        tree = load_tree_file(src)
    except TreeXmlError as e:
        return [(5, "", f"{src}: error: {e}\n", None)] * len(flag_sets)
    outcomes = []
    for flags in flag_sets:
        report = measure_tree(tree, extended="--extended-cc" in flags)
        printed = (render_table(report) if "--table" in flags else "") + f"{src} -> {out}\n"
        outcomes.append((0, printed, "", serialize_metrics(report).encode()))
    return outcomes


@contextlib.contextmanager
def _fifo(path: Path, text: str):
    """path, for the length of the block, a named pipe that a thread
    writes text into; the regular file there is put back after."""
    path.unlink()

    def write():
        with contextlib.suppress(BrokenPipeError):  # a reader that stops early
            path.write_text(text, encoding="utf-8")

    os.mkfifo(path)
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield
    finally:
        writer.join(timeout=10)
        path.unlink()
        path.write_text(text, encoding="utf-8")
    assert not writer.is_alive()


class TestStreamedMeasure:
    """measure on a tree file folds the document as it is read, with no
    tree built; what it prints and writes is that of the tree path,
    measure_tree(load_tree_file(src)), for every document."""

    FLAG_SETS = [[], ["--extended-cc"], ["--table"]]

    def test_writer_documents_match_the_tree_path(self, workdir, writer_documents):
        for doc in writer_documents:
            (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
            expected = _tree_path_outcomes("x.ecst.xml", "m.xml", self.FLAG_SETS)
            for flags, outcome in zip(self.FLAG_SETS, expected):
                assert outcome[0] == 0
                argv = ["measure", "x.ecst.xml", *flags, "--out", "m.xml"]
                assert _measure_outcome(argv) == outcome, flags

    def test_mutated_documents_match_the_tree_path(
        self, workdir, writer_documents, monkeypatch
    ):
        # The 40 smallest, since most mutants go to expat after the fold.
        bases = sorted(writer_documents, key=len)[:40]
        rng = random.Random(20261019)
        kinds = Counter()
        flags = ["--extended-cc", "--table"]
        argv = ["measure", "x.ecst.xml", *flags, "--out", "m.xml"]
        for _ in range(1200):
            doc = generators.mutate_tree_document(rng.choice(bases), rng)
            (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
            [expected] = _tree_path_outcomes("x.ecst.xml", "m.xml", [flags])
            assert _measure_outcome(argv) == expected, doc
            # Expat alone, and a named pipe, which goes to expat at once.
            with monkeypatch.context() as patched:
                patched.setattr(xmlio, "_line_events", test_xmlio._decline)
                assert _measure_outcome(argv) == expected, doc
            with _fifo(workdir / "x.ecst.xml", doc):
                assert _measure_outcome(argv) == expected, doc
            code, _, err, _ = expected
            kinds[code and ("invariant" if "tree invariants" in err else "element")] += 1
        # Reports, element faults and invariant faults all occur.
        assert kinds[0] > 50 and kinds["element"] > 500 and kinds["invariant"] > 10

    def test_writer_document_builds_no_tree(self, workdir, writer_documents, monkeypatch):
        built = []

        def fail(*args):
            raise AssertionError("the tree path ran")

        monkeypatch.setattr(xmlio.expat, "ParserCreate", fail)
        monkeypatch.setattr(cli, "parse_tree_xml", fail)
        monkeypatch.setattr(cli, "measure_tree", fail)
        monkeypatch.setattr(xmlio, "EcstTree", lambda *args: built.append(args))
        for doc in writer_documents[:40]:
            (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
            assert main(["measure", "x.ecst.xml", "--extended-cc"]) == 0
        assert built == []
        # Nor does any token outlive its turn in the fold: on one flat
        # body of 48,013 tokens, each at least an 88-byte tuple, the peak
        # stays below 8 bytes per token.
        source = "MODULE M;\nPROCEDURE P;\nBEGIN\n" + "  x := x + 1;\n" * 8000 + "END P;\nEND M.\n"
        tree = parse_source(source, "modula2", source_path="M.mod")
        tokens = sum(type(event) is tuple for event in tree.events)
        assert tokens == 48_013
        (workdir / "x.ecst.xml").write_text(serialize_tree(tree), encoding="utf-8")
        del tree
        _, peak = _traced(lambda: main(["measure", "x.ecst.xml", "--out", "m.xml"]))
        assert peak < 8 * tokens
        assert built == []

    def test_no_document_builds_a_tree(self, workdir, writer_documents, monkeypatch):
        # Valid documents in other forms, which expat reads, or with
        # other blank text, and a named pipe, which expat reads at once.
        source = test_xmlio.MARKUP_SOURCES["javaoo"]
        markup = serialize_tree(parse_source(source, "javaoo", source_path="Markup.java"))
        forms = {**test_xmlio.TestLineReader.OTHER_FORMS, **test_xmlio.TestLineReader.BLANK_FORMS}
        docs = [form(markup) for form in forms.values()]

        def fail(*args, **kwargs):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(cli, "parse_tree_xml", fail)
        monkeypatch.setattr(cli, "measure_tree", fail)
        monkeypatch.setattr(xmlio, "EcstTree", fail)
        argv = ["measure", "x.ecst.xml", "--extended-cc", "--out", "m.xml"]
        for doc in docs:
            (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
            assert main(argv) == 0
        with _fifo(workdir / "x.ecst.xml", writer_documents[5]):
            assert main(argv) == 0

    # Documents in the writer's form whose tree breaks an invariant, with
    # the message of the tree path.
    INVARIANT_FAULTS = {
        "two swapped tokens": (
            lambda doc: doc.replace(
                'line="1" col="1" endLine="1" endCol="9">PROCEDURE',
                'line="1" col="13" endLine="1" endCol="21">PROCEDURE',
            ),
            "token 'P' at 1:11 does not start after the previous token ends",
        ),
        "last token after totalLines": (
            lambda doc: doc.replace(
                'line="1" col="11" endLine="1"', 'line="2" col="11" endLine="2"'
            ),
            "last token ends on line 2, after the last line 1",
        ),
        "CONDITION outside any BRANCH or LOOP_STATEMENT": (
            lambda doc: doc.replace("FUNCTION_DECL", "CONDITION"),
            "CONDITION node outside any BRANCH or LOOP_STATEMENT",
        ),
        "FUNCTION_DECL without an identifier": (
            lambda doc: doc.replace('"identifier"', '"keyword"'),
            "FUNCTION_DECL without an identifier token",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(INVARIANT_FAULTS))
    def test_invariant_fault_gives_the_tree_path_message(self, workdir, fault):
        edit, message = self.INVARIANT_FAULTS[fault]
        (workdir / "x.ecst.xml").write_text(edit(MINI_XML), encoding="utf-8")
        argv = ["measure", "x.ecst.xml", "--out", "m.xml"]
        err = f"x.ecst.xml: error: document violates tree invariants: {message}\n"
        assert _measure_outcome(argv) == (5, "", err, None)
        assert _tree_path_outcomes("x.ecst.xml", "m.xml", [[]]) == [(5, "", err, None)]

    # Documents one element line away from the writer's form, which the
    # line reader declines part-way or at the end.
    FORM_FAULTS = {
        "token before the root": lambda doc: doc.replace(
            '  <node kind="COMPILATION_UNIT">', '  <token type="keyword" line="1"'
            ' col="1" endLine="1" endCol="1">A</token>\n  <node kind="COMPILATION_UNIT">'
        ),
        "second root": lambda doc: doc.replace(
            "</ecst>", '<node kind="COMPILATION_UNIT">\n</node>\n</ecst>'
        ),
        "root of another kind": lambda doc: doc.replace(
            "COMPILATION_UNIT", "BRANCH_STATEMENT"
        ),
        "unclosed root": lambda doc: doc.replace("  </node>\n</ecst>", "</ecst>"),
        "end tag after the root": lambda doc: doc.replace("</ecst>", "</node>\n</ecst>"),
    }

    @pytest.mark.parametrize("fault", sorted(FORM_FAULTS))
    def test_form_fault_gives_the_tree_path_message(self, workdir, fault):
        doc = self.FORM_FAULTS[fault](MINI_XML)
        assert doc != MINI_XML
        (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
        [expected] = _tree_path_outcomes("x.ecst.xml", "m.xml", [[]])
        assert expected[0] == 5
        assert _measure_outcome(["measure", "x.ecst.xml", "--out", "m.xml"]) == expected

    # Documents the line reader declines only after folding part or all
    # of them, with and without an invariant fault before the decline.
    LATE_DECLINES = {
        "comment after the end": lambda doc: doc + "<!-- done -->\n",
        "misspelt end tag": lambda doc: doc.replace("</ecst>", "</ecsx>"),
        "invariant fault, then a comment": lambda doc: (
            doc.replace("FUNCTION_DECL", "CONDITION") + "<!-- done -->\n"
        ),
        "invariant fault, then a misspelt end tag": lambda doc: (
            doc.replace("FUNCTION_DECL", "CONDITION").replace("</ecst>", "</ecsx>")
        ),
        "invariant fault in the writer's form": lambda doc: (
            doc.replace("FUNCTION_DECL", "CONDITION")
        ),
    }

    @pytest.mark.parametrize("fault", sorted(LATE_DECLINES))
    def test_each_document_is_read_once_by_the_line_reader(
        self, workdir, writer_documents, monkeypatch, fault
    ):
        read = []
        line_events = xmlio._line_events

        def counted(pieces, share=False):
            read.append(pieces)
            return line_events(pieces, share)

        argv = ["measure", "x.ecst.xml", "--table", "--out", "m.xml"]
        for doc in (MINI_XML, writer_documents[5]):
            doc = self.LATE_DECLINES[fault](doc)
            (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
            [expected] = _tree_path_outcomes("x.ecst.xml", "m.xml", [["--table"]])
            with monkeypatch.context() as patched:
                patched.setattr(xmlio, "_line_events", counted)
                read.clear()
                assert _measure_outcome(argv) == expected
            assert len(read) == 1

    def test_fifo_matches_a_regular_file(self, workdir, writer_documents):
        docs = [writer_documents[5], MINI_XML.replace("FUNCTION_DECL", "CONDITION")]
        for doc in docs:
            (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
            argv = ["measure", "x.ecst.xml", "--table", "--out", "m.xml"]
            expected = _measure_outcome(argv)
            with _fifo(workdir / "x.ecst.xml", doc):
                assert _measure_outcome(argv) == expected
        assert expected[0] == 5

    def test_empty_branch_before_a_loop_in_a_branch_statement(self, workdir):
        # At a BRANCH_STATEMENT's entry its later children are not yet
        # read: the empty BRANCH, the first fault in document order, is
        # reported, not the LOOP_STATEMENT among its universal children.
        doc = (
            '<ecst source="x" language="javaoo" totalLines="1">\n'
            '  <node kind="COMPILATION_UNIT">\n'
            '    <node kind="BRANCH_STATEMENT">\n'
            '      <node kind="BRANCH">\n'
            "      </node>\n"
            '      <node kind="LOOP_STATEMENT">\n'
            '        <token type="keyword" line="1" col="1" endLine="1" endCol="5">while</token>\n'
            "      </node>\n"
            "    </node>\n"
            "  </node>\n"
            "</ecst>\n"
        )
        message = (
            "document violates tree invariants: "
            "universal node 'BRANCH' has no concrete descendants"
        )
        with pytest.raises(TreeXmlError) as raised:
            parse_tree_xml(doc)
        assert str(raised.value) == message
        (workdir / "x.ecst.xml").write_text(doc, encoding="utf-8")
        argv = ["measure", "x.ecst.xml", "--out", "m.xml"]
        assert _measure_outcome(argv) == (5, "", f"x.ecst.xml: error: {message}\n", None)


class TestRunCommand:
    def test_full_pipeline(self, workdir, capsys):
        code = main(
            ["run", "QuickSort.mod", "QuickSort.java", "--tree-dir", "trees",
             "--metrics-dir", "out"]
        )
        assert code == 0
        for name in ("QuickSort.mod", "QuickSort.java"):
            assert (workdir / "trees" / f"{name}.ecst.xml").exists()
            assert (workdir / "out" / f"{name}.metrics.xml").exists()
        stdout = capsys.readouterr().out
        assert stdout.count(" -> ") == 2

    def test_default_metrics_dir_is_cwd(self, workdir):
        assert main(["run", "Features.java"]) == 0
        assert (workdir / "Features.java.metrics.xml").exists()

    def test_run_matches_direct_measurement(self, workdir):
        assert main(["run", "QuickSort.mod"]) == 0
        written = (workdir / "QuickSort.mod.metrics.xml").read_text(encoding="utf-8")
        direct = serialize_metrics(measure_tree(parse_file("QuickSort.mod", "modula2")))
        assert written == direct

    def test_persisted_tree_reloads_identically(self, workdir):
        assert main(["run", "QuickSort.java", "--tree-dir", "trees"]) == 0
        data = (workdir / "trees" / "QuickSort.java.ecst.xml").read_bytes()
        assert same_tree(parse_tree_xml(data), parse_file("QuickSort.java", "javaoo"))

    def test_parsed_tree_is_freed_before_the_reload(self, workdir, monkeypatch):
        src = str(workdir / "QuickSort.mod")  # a path no other tree carries
        alive = []

        def reload(document):
            gc.collect()
            alive.append(sum(
                isinstance(o, EcstTree) and o.source_path == src
                for o in gc.get_objects()
            ))
            return parse_tree_xml(document)

        monkeypatch.setattr(cli, "parse_tree_xml", reload)
        assert main(["run", src]) == 0
        assert alive == [0]

    def test_parsed_tree_is_freed_before_the_reload_from_its_file(
        self, workdir, monkeypatch
    ):
        src = str(workdir / "QuickSort.mod")  # a path no other tree carries
        alive = []

        def reload(path):
            gc.collect()
            alive.append(sum(
                isinstance(o, EcstTree) and o.source_path == src
                for o in gc.get_objects()
            ))
            return load_tree_file(path)

        monkeypatch.setattr(cli, "load_tree_file", reload)
        assert main(["run", src, "--tree-dir", "trees"]) == 0
        assert alive == [0]


class TestRegistryResolution:
    def test_builtin_registry_covers_fixture_extensions(self, workdir):
        assert main(["parse", "QuickSort.mod"]) == 0
        assert main(["parse", "QuickSort.java"]) == 0

    def test_cwd_languages_xml_wins(self, workdir):
        (workdir / "languages.xml").write_text(
            "<languages>\n"
            '  <language id="modula2" name="Modula-2"><ext>m2</ext></language>\n'
            "</languages>\n",
            encoding="utf-8",
        )
        shutil.copy(workdir / "QuickSort.mod", workdir / "Quick.m2")
        assert main(["parse", "Quick.m2"]) == 0
        # .java is no longer registered once the local registry takes over
        assert main(["parse", "QuickSort.java"]) == 2

    def test_registry_flag(self, workdir, fixture_dir):
        assert main(
            ["measure", "QuickSort.java", "--registry", str(fixture_dir / "languages.xml")]
        ) == 0

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("registry", ["malformed languages.xml", "--registry missing.xml"])
    def test_tree_input_reads_no_registry(self, workdir, capsys, registry, extended):
        # A tree names its own language, so no registry fault touches it.
        flags = ["--extended-cc"] if extended else []
        assert main(["parse", "Features.java"]) == 0
        assert main(["measure", "Features.java.ecst.xml", "--out", "plain.xml", *flags]) == 0
        if registry.startswith("--"):
            flags += registry.split()
        else:
            (workdir / "languages.xml").write_text("<languages><language", encoding="utf-8")
        capsys.readouterr()
        assert main(["measure", "Features.java.ecst.xml", *flags]) == 0
        assert capsys.readouterr() == (
            "Features.java.ecst.xml -> Features.java.metrics.xml\n", ""
        )
        plain = (workdir / "plain.xml").read_text(encoding="utf-8")
        assert (workdir / "Features.java.metrics.xml").read_text(encoding="utf-8") == plain

    def test_registered_but_unsupported_language(self, workdir, capsys):
        (workdir / "languages.xml").write_text(
            "<languages>\n"
            '  <language id="cobol" name="COBOL"><ext>mod</ext></language>\n'
            "</languages>\n",
            encoding="utf-8",
        )
        assert main(["parse", "QuickSort.mod"]) == 2
        assert "cobol" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_extension_is_2(self, workdir, capsys):
        (workdir / "notes.txt").write_text("hello\n", encoding="utf-8")
        assert main(["parse", "notes.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_3_with_position(self, workdir, capsys):
        src = workdir / "Broken.java"
        src.write_text("class T {\n    void m() { do { } whale (x); }\n}\n", encoding="utf-8")
        assert main(["measure", "Broken.java"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Broken.java:2:")
        assert ": error:" in err
        assert not (workdir / "Broken.java.metrics.xml").exists()

    def test_parse_error_at_end_of_input_is_3_with_position(self, workdir, capsys):
        # The error names the last token's position, as a SourceSpan.
        (workdir / "Cut.java").write_text("class T {\n  void m() {\n", encoding="utf-8")
        (workdir / "Cut.mod").write_text("MODULE M;\nBEGIN\n", encoding="utf-8")
        assert main(["run", "Cut.java", "Cut.mod"]) == 3
        assert capsys.readouterr().err == (
            "Cut.java:2:12: error: expected '}', found end of input\n"
            "Cut.mod:2:1: error: expected 'END', found end of input\n"
        )

    def test_lex_error_is_3(self, workdir, capsys):
        src = workdir / "Open.mod"
        src.write_text("MODULE Open;\n(* never closed\nEND Open.\n", encoding="utf-8")
        assert main(["parse", "Open.mod"]) == 3
        assert "Open.mod:2:1: error:" in capsys.readouterr().err

    def test_missing_source_is_4(self, workdir, capsys):
        assert main(["measure", "Ghost.mod"]) == 4
        assert "Ghost.mod: error:" in capsys.readouterr().err

    def test_missing_registry_is_4(self, workdir, capsys):
        assert main(["parse", "QuickSort.mod", "--registry", "none.xml"]) == 4
        assert "none.xml" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    def test_invalid_registry_is_4_against_the_registry(self, workdir, capsys, command):
        (workdir / "bad.xml").write_text("<langs/>\n", encoding="utf-8")
        before = sorted(os.listdir(workdir))
        assert main([command, "QuickSort.mod", "--registry", "bad.xml"]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "bad.xml: error: expected root element 'languages', got 'langs'\n"
        )
        assert captured.out == ""
        assert sorted(os.listdir(workdir)) == before

    def test_malformed_tree_xml_is_5(self, workdir, capsys):
        bad = workdir / "bad.ecst.xml"
        bad.write_text(
            '<ecst source="x" language="modula2" totalLines="1">\n'
            '  <node kind="MYSTERY"/>\n'
            "</ecst>\n",
            encoding="utf-8",
        )
        assert main(["measure", "bad.ecst.xml"]) == 5
        assert "MYSTERY" in capsys.readouterr().err

    def test_token_after_the_last_line_is_5(self, workdir, capsys):
        (workdir / "long.ecst.xml").write_text(LONG_TREE, encoding="utf-8")
        assert main(["measure", "long.ecst.xml"]) == 5
        captured = capsys.readouterr()
        assert captured.err == (
            "long.ecst.xml: error: document violates tree invariants:"
            " last token ends on line 50, after the last line 3\n"
        )
        assert captured.out == ""
        assert not (workdir / "long.metrics.xml").exists()

    # Legal sources with a character XML 1.0 cannot carry in a comment.
    CONTROL_SOURCES = {
        "Bell.java": "class T {\n    // abc\x07\n    void m() { }\n}\n",
        "Page.mod": "MODULE M;\n(* comment\x0c *)\nBEGIN\nEND M.\n",
    }

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    @pytest.mark.parametrize("name", sorted(CONTROL_SOURCES))
    def test_control_character_is_3_with_position(self, workdir, capsys, command, name):
        text = self.CONTROL_SOURCES[name]
        (workdir / name).write_text(text, encoding="utf-8")
        assert main([command, name]) == 3
        char = repr(text[text.index("\n") + 11])
        assert capsys.readouterr().err == (
            f"{name}:2:11: error: character {char} cannot be stored in tree XML\n"
        )
        assert not any(p.name.startswith(name + ".") for p in workdir.iterdir())

    # (source, language, the first character XML cannot carry, its line and
    # column): comments spanning lines with each line end, a string
    # literal, a tab-indented comment and a source with two such characters.
    MULTILINE_CONTROL = [
        ("MODULE M;\n(* one\n  two\x1b *)\nBEGIN\nEND M.\n", "modula2", "\x1b", 3, 6),
        ("MODULE M;\r\n(* one\r\n  two\x1b *)\r\nBEGIN\r\nEND M.\r\n", "modula2", "\x1b", 3, 6),
        ("MODULE M;\r(* one\r  two\x1b *)\rBEGIN\rEND M.\r", "modula2", "\x1b", 3, 6),
        ('class T {\n  void m() { s = "a\x07b"; }\n}\n', "javaoo", "\x07", 2, 20),
        ("class T {\n\t/* x\n\t\t\ufffe */\n}\n", "javaoo", "\ufffe", 3, 3),
        ("class T {\n  // \x00 and \x0c\n  /* \x0c */\n}\n", "javaoo", "\x00", 2, 6),
    ]

    def test_control_character_inside_a_multiline_comment(self):
        for source, language, char, line, col in self.MULTILINE_CONTROL:
            with pytest.raises(LexError) as info:
                parse_source(source, language)
            message = f"character {char!r} cannot be stored in tree XML"
            assert (str(info.value), info.value.span) == (
                message,
                SourceSpan(line, col, line, col),
            ), source

    @pytest.mark.parametrize(
        "option,directory,reason",
        [
            ("--metrics-dir", "afile/sub", "Not a directory"),
            ("--tree-dir", "afile", "File exists"),
            # An empty name is a directory that cannot be made, not no option.
            ("--metrics-dir", "", "No such file or directory"),
            ("--tree-dir", "", "No such file or directory"),
        ],
    )
    def test_uncreatable_output_directory_is_4(
        self, workdir, capsys, option, directory, reason
    ):
        (workdir / "afile").write_text("", encoding="utf-8")
        assert main(["run", "QuickSort.mod", "Features.java", option, directory]) == 4
        captured = capsys.readouterr()
        # No traceback, and the run goes on to the next file.
        assert captured.err == "".join(
            f"{name}: error: cannot create directory {directory}: {reason}\n"
            for name in ("QuickSort.mod", "Features.java")
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["parse", "measure"])
    def test_unwritable_output_is_4_against_the_source(self, workdir, capsys, command):
        assert main([command, "QuickSort.java", "--out", "missing/x.xml"]) == 4
        assert capsys.readouterr().err == (
            "QuickSort.java: error: cannot write missing/x.xml:"
            " No such file or directory\n"
        )

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    def test_file_name_tree_xml_cannot_carry_is_4(self, workdir, monkeypatch, command):
        # On a POSIX file system the name is the bytes b"Bad\xff.java".
        name = "Bad\udcff.java"
        (workdir / name).write_text("class T {\n}\n", encoding="utf-8")
        before = sorted(os.listdir(workdir))
        # The process's own stderr escapes the surrogate; a StringIO keeps it.
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert main([command, name]) == 4
        assert sys.stderr.getvalue() == (
            f"{name}: error: character '\\udcff' in the file name"
            " cannot be stored in tree XML\n"
        )
        assert sys.stdout.getvalue() == ""
        assert sorted(os.listdir(workdir)) == before

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    def test_method_without_a_name_is_3(self, workdir, capsys, command):
        (workdir / "A.java").write_text("class A {\n  void () { }\n}\n", encoding="utf-8")
        assert main([command, "A.java"]) == 3
        assert capsys.readouterr().err == "A.java:2:8: error: expected identifier, found '('\n"
        assert not any(p.name.startswith("A.java.") for p in workdir.iterdir())

    # Bracket and condition errors the parsers report, each with its position.
    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    @pytest.mark.parametrize(
        "name,source,where,message",
        [
            (
                "A.java",
                "class A {\n  void m(int x] { a = f(b]; }\n}\n",
                "2:15",
                "expected ')', found ']'",
            ),
            (
                "A.java",
                "class A {\n  void m(int x) { a = f(b]; }\n}\n",
                "2:26",
                "expected ')', found ']'",
            ),
            (
                "M.mod",
                "MODULE M;\nPROCEDURE P;\nBEGIN\n  a := F(b];\nEND P;\nEND M.\n",
                "4:11",
                "expected ')', found ']'",
            ),
            ("A.java", "class A {\n  void m ) ( { }\n}\n", "2:10", "expected a bracketed group"),
            ("A.java", "class A {\n  void m(int x\n", "2:14", "unbalanced brackets"),
            (
                "A.java",
                "class A {\n  void m() { while x; }\n}\n",
                "2:20",
                "expected parenthesized condition",
            ),
            (
                "M.mod",
                "MODULE M;\nBEGIN\n  WHILE DO x := 1 END\nEND M.\n",
                "3:9",
                "empty condition",
            ),
            ("M.mod", "PROCEDURE P(a;\n", "1:14", "unbalanced brackets"),
        ],
    )
    def test_mismatched_closer_is_3(
        self, workdir, capsys, command, name, source, where, message
    ):
        (workdir / name).write_text(source, encoding="utf-8")
        assert main([command, name]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"{name}:{where}: error: {message}\n"
        assert captured.out == ""
        assert not any(p.name.startswith(f"{name}.") for p in workdir.iterdir())

    # command, its input, then the --out that names the same file
    INPUT_AS_OUTPUT = [
        ("parse", "a.java", "a.java"),
        ("measure", "b.java", "./b.java"),
        ("measure", "T.ecst.xml", "T.ecst.xml"),
        ("parse", "a.java", "link.java"),
        ("measure", "b.java", "hard.java"),
    ]

    @pytest.mark.parametrize("command,src,out", INPUT_AS_OUTPUT)
    def test_out_naming_the_input_is_4(self, workdir, capsys, command, src, out):
        for name in ("a.java", "b.java"):
            (workdir / name).write_text("class A {\n  void m() { }\n}\n", encoding="utf-8")
        (workdir / "T.ecst.xml").write_text(MINI_XML, encoding="utf-8")
        os.symlink("a.java", workdir / "link.java")
        os.link(workdir / "b.java", workdir / "hard.java")
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        assert main([command, src, "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"{src}: error: cannot write {out}: it is the input file\n"
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    @pytest.mark.parametrize("command", ["parse", "measure"])
    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_out_that_is_not_a_regular_file_is_4(self, workdir, capsys, command, kind):
        target = workdir / "target"
        if kind == "fifo":
            os.mkfifo(target)
        else:
            target.mkdir()
        before = sorted(os.listdir(workdir))
        assert main([command, "QuickSort.java", "--out", "target"]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "QuickSort.java: error: cannot write target: not a regular file\n"
        )
        assert captured.out == ""
        assert sorted(os.listdir(workdir)) == before
        mode = os.lstat(target).st_mode
        assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISDIR(mode)

    # Sources whose loop or branch keyword, or a statement's ";" inside
    # braces, sits inside a flat statement, where it would not count;
    # each is a syntax error at that token.
    FLAT_CONSTRUCTS = {
        "try.java": (
            "class A {\n  void m() {\n"
            "    try { if (a) { b(); } } catch (E e) { c(); } x = 1;\n  }\n}\n",
            "3:11: error: 'if' inside a flat statement",
        ),
        "lambda.java": (
            "class A {\n  void m() {\n"
            "    Runnable r = () -> { if (a) { b(); } };\n  }\n}\n",
            "3:26: error: 'if' inside a flat statement",
        ),
        "anon.java": (
            "class A {\n  void m() {\n    Object o = new Object() {"
            " int f() { while (x) { y(); } return 1; } };\n  }\n}\n",
            "3:41: error: 'while' inside a flat statement",
        ),
        "anonsemi.java": (
            "class A {\n  void m() {\n"
            "    Runnable r = new Runnable() { public void run() { x = 1; } };\n  }\n}\n",
            "3:60: error: ';' inside a flat statement",
        ),
        "lambdasemi.java": (
            "class A {\n  void m() {\n    f(x -> { y = 2; });\n  }\n}\n",
            "3:19: error: ';' inside a flat statement",
        ),
        "W.mod": (
            "MODULE W;\nPROCEDURE P;\nBEGIN\n  x := F(y) WHILE\nEND P;\nEND W.\n",
            "4:13: error: 'WHILE' inside a flat statement",
        ),
    }

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    @pytest.mark.parametrize("name", sorted(FLAT_CONSTRUCTS))
    def test_construct_inside_a_flat_statement_is_3(self, workdir, capsys, command, name):
        source, error = self.FLAT_CONSTRUCTS[name]
        (workdir / name).write_text(source, encoding="utf-8")
        assert main([command, name]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"{name}:{error}\n"
        assert captured.out == ""
        assert not any(p.name.startswith(f"{name}.") for p in workdir.iterdir())

    @pytest.mark.parametrize(
        "options,clash",
        [
            (["--metrics-dir", "o", "--tree-dir", "o"], "o/a.java.ecst.xml"),
            (["--metrics-dir", "o"], "o/a.java.metrics.xml"),
        ],
    )
    def test_run_never_overwrites_its_own_output_is_4(
        self, workdir, capsys, options, clash
    ):
        for directory, body in (("d1", "void m() { }"), ("d2", "void n() { }")):
            (workdir / directory).mkdir()
            (workdir / directory / "a.java").write_text(
                f"class A {{\n  {body}\n}}\n", encoding="utf-8"
            )
        assert main(["run", "d1/a.java", "d2/a.java", *options]) == 4
        captured = capsys.readouterr()
        assert captured.out == "d1/a.java -> o/a.java.metrics.xml\n"
        assert captured.err == (
            f"d2/a.java: error: cannot write {clash}: already written for d1/a.java\n"
        )
        # d1/a.java's outputs stay as they were written.
        tree = parse_file("d1/a.java", "javaoo")
        expected = {"a.java.metrics.xml": serialize_metrics(measure_tree(tree))}
        if "--tree-dir" in options:
            expected["a.java.ecst.xml"] = serialize_tree(tree)
        assert {
            p.name: p.read_text(encoding="utf-8") for p in (workdir / "o").iterdir()
        } == expected

    def test_run_writes_where_a_failed_source_wrote_nothing(self, workdir, capsys):
        (workdir / "d1").mkdir()
        (workdir / "d1" / "QuickSort.mod").write_text("MODULE B;\nEND\n", encoding="utf-8")
        argv = ["run", "d1/QuickSort.mod", "QuickSort.mod", "--metrics-dir", "o"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "QuickSort.mod -> o/QuickSort.mod.metrics.xml\n"
        assert captured.err.startswith("d1/QuickSort.mod:2:")
        assert os.listdir(workdir / "o") == ["QuickSort.mod.metrics.xml"]

    def test_run_returns_worst_code(self, workdir, capsys):
        (workdir / "Broken.mod").write_text("MODULE B;\nEND\n", encoding="utf-8")
        code = main(["run", "QuickSort.mod", "Broken.mod", "--metrics-dir", "out"])
        assert code == 3
        # the healthy file still produced its report
        assert (workdir / "out" / "QuickSort.mod.metrics.xml").exists()
        assert not (workdir / "out" / "Broken.mod.metrics.xml").exists()
        capsys.readouterr()


# A FUNCTION_DECL whose last token ends on line 50 of a 3-line file.
LONG_TREE = (
    '<ecst source="long.java" language="javaoo" totalLines="3">\n'
    '  <node kind="COMPILATION_UNIT">\n'
    '    <node kind="FUNCTION_DECL">\n'
    '      <token type="identifier" line="1" col="1" endLine="1" endCol="1">m</token>\n'
    '      <token type="punctuation" line="50" col="1" endLine="50" endCol="1">}</token>\n'
    "    </node>\n"
    "  </node>\n"
    "</ecst>\n"
)

# A comment holding a character that tree XML cannot carry.
CONTROL_COMMENTS = {"modula2": "(* \x07 *)", "javaoo": "// \x0c\n"}
EXTENSIONS = {"modula2": ".mod", "javaoo": ".java"}


class TestRunContract:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        language=st.shared(st.sampled_from(LANGUAGES), key="language"),
        source=PROGRAMS,
        control=st.booleans(),
        where=st.floats(0, 1, exclude_max=True),
    )
    def test_run_exits_0_or_3_and_round_trips(self, language, source, control, where):
        if control:
            gaps = [i for i, c in enumerate(source) if c in " \n"]
            i = gaps[int(where * len(gaps))]
            source = f"{source[:i]} {CONTROL_COMMENTS[language]} {source[i:]}"
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "P" + EXTENSIONS[language])
            with open(src, "w", encoding="utf-8", newline="") as handle:
                handle.write(source)
            trees = os.path.join(tmp, "trees")
            code = main(["run", src, "--tree-dir", trees, "--metrics-dir", tmp])
            assert code in ((3,) if control else (0, 3))
            if code == 0:
                doc = Path(trees, "P" + EXTENSIONS[language] + ".ecst.xml").read_bytes()
                assert serialize_tree(parse_tree_xml(doc)).encode("utf-8") == doc


# Sources nested `levels` deep, one level opening per line, each with
# the line where its deepest level opens.  A method or procedure opens a
# level, and so does each statement: a loop or branch with its braces, a
# bare block.
def _java(opening: str, levels: int, closing: str = "}\n") -> tuple[str, int]:
    n = levels - 1  # inside the method
    return "class T {\n  void m() {\n" + opening * n + closing * n + "  }\n}\n", 2 + n


def _modula2(opening: str, closing: str, levels: int) -> tuple[str, int]:
    n = levels - 1  # the innermost assignment is the last level
    source = "MODULE M;\nBEGIN\n" + opening * n + "a := 1\n" + closing * n + "END M.\n"
    return source, 3 + n


def _modula2_procedures(levels: int) -> tuple[str, int]:
    names = [f"P{i}" for i in range(levels)]
    source = (
        "MODULE M;\n"
        + "".join(f"PROCEDURE {name};\n" for name in names)
        + "".join(f"END {name};\n" for name in reversed(names))
        + "END M.\n"
    )
    return source, 1 + levels


# Every construct that recurses, each alone.
NESTED = {
    "java-loops": ("javaoo", lambda levels: _java("while (a) {\n", levels)),
    "java-blocks": ("javaoo", lambda levels: _java("{\n", levels)),
    "java-if": ("javaoo", lambda levels: _java("if (a) {\n", levels)),
    "java-else": ("javaoo", lambda levels: _java("if (a) {} else {\n", levels)),
    "java-do": ("javaoo", lambda levels: _java("do {\n", levels, "} while (a);\n")),
    "java-for": ("javaoo", lambda levels: _java("for (i = 0; i < n; i++) {\n", levels)),
    "modula2-loops": ("modula2", lambda levels: _modula2("WHILE a DO\n", "END\n", levels)),
    "modula2-if": ("modula2", lambda levels: _modula2("IF a THEN\n", "END\n", levels)),
    "modula2-repeat": ("modula2", lambda levels: _modula2("REPEAT\n", "UNTIL a\n", levels)),
    "modula2-for": ("modula2", lambda levels: _modula2("FOR i := 1 TO n DO\n", "END\n", levels)),
    "modula2-procedures": ("modula2", _modula2_procedures),
}
NESTING_ERROR = f"nesting deeper than {MAX_NESTING} levels"


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_limit_parses_and_deeper_is_a_parse_error(self, shape):
        language, build = NESTED[shape]
        parse_source(build(MAX_NESTING)[0], language)
        _, line = build(MAX_NESTING + 1)
        for levels in (MAX_NESTING + 1, 600):
            with pytest.raises(ParseError, match=NESTING_ERROR) as info:
                parse_source(build(levels)[0], language)
            assert info.value.span[:2] == (line, 1)

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_run_subprocess_at_and_past_the_limit(self, tmp_path, shape):
        language, build = NESTED[shape]
        name = "Deep" + EXTENSIONS[language]
        for levels, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 3)):
            source, line = build(levels)
            (tmp_path / name).write_text(source, encoding="utf-8")
            proc = _run_module(["run", name], cwd=tmp_path)
            assert proc.returncode == code, proc.stderr
            expected = f"{name}:{line}:1: error: {NESTING_ERROR}\n" if code else ""
            assert proc.stderr == expected


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(argv, cwd, **options) -> subprocess.CompletedProcess:
    """python -m ecstmetrics in cwd, with this checkout's package; options
    go to subprocess.run."""
    # The subprocess runs in a temp directory, where a relative
    # PYTHONPATH such as "src" would not resolve.
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ecstmetrics", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        **options,
    )


def _file_size_limit(limit: int):
    """A preexec_fn capping the size of any file the child writes.

    A write past the limit fails with EFBIG: Python ignores SIGXFSZ.
    """
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))


class _Full:
    """A text file on a disk that fills after one piece: the first piece
    written goes to written, and every later write fails."""

    def __init__(self, handle, written: list):
        self.handle = handle
        self.written = written

    def write(self, piece):
        if self.written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.written.append(piece)
        return self.handle.write(piece)


class TestWholeOutputs:
    """An output file is replaced whole or left as it was."""

    # command, then the output it writes for QuickSort.java
    COMMANDS = {
        "parse": (["parse", "QuickSort.java"], "QuickSort.java.ecst.xml"),
        "measure": (["measure", "QuickSort.java"], "QuickSort.java.metrics.xml"),
        "run --tree-dir": (
            ["run", "QuickSort.java", "--tree-dir", "trees"],
            os.path.join("trees", "QuickSort.java.ecst.xml"),
        ),
    }

    @staticmethod
    def _files(root) -> list[str]:
        return sorted(
            os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root)
            for f in names
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_write_keeps_the_previous_output(self, workdir, command):
        argv, out = self.COMMANDS[command]
        assert main(argv) == 0
        previous = (workdir / out).read_bytes()
        files = self._files(workdir)
        # The new output is the old one's size, so half of it cannot be written.
        proc = _run_module(
            argv, cwd=workdir, preexec_fn=_file_size_limit(len(previous) // 2)
        )
        assert proc.returncode == 4, proc.stderr
        assert (workdir / out).read_bytes() == previous
        assert self._files(workdir) == files
        assert proc.stderr == f"QuickSort.java: error: cannot write {out}: File too large\n"

    # command, then the tree it writes for Big.java, a file of several pieces
    STREAMED = {
        "parse": (["parse", "Big.java"], "Big.java.ecst.xml"),
        "run --tree-dir": (
            ["run", "Big.java", "--tree-dir", "trees"],
            os.path.join("trees", "Big.java.ecst.xml"),
        ),
    }

    @pytest.mark.parametrize("command", sorted(STREAMED))
    def test_write_failing_part_way_through_a_tree_keeps_the_previous_output(
        self, workdir, monkeypatch, capsys, command
    ):
        argv, out = self.STREAMED[command]
        source = generators.generate("javaoo", 3, n_units=6).source
        (workdir / "Big.java").write_text(source, encoding="utf-8")
        assert main(argv) == 0
        previous = (workdir / out).read_bytes()
        files = self._files(workdir)
        capsys.readouterr()
        written = []
        real = cli.serialize_tree
        monkeypatch.setattr(
            cli, "serialize_tree", lambda tree, handle: real(tree, _Full(handle, written))
        )
        assert _cyclic_garbage(argv) == 4
        assert len(written) == 1 and len(written[0]) < len(previous)
        assert capsys.readouterr() == (
            "", f"Big.java: error: cannot write {out}: No space left on device\n"
        )
        assert (workdir / out).read_bytes() == previous
        assert self._files(workdir) == files

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_successful_write_leaves_only_the_output(self, workdir, command):
        argv, out = self.COMMANDS[command]
        files = self._files(workdir)
        (workdir / out).parent.mkdir(exist_ok=True)
        (workdir / out).write_text("stale\n", encoding="utf-8")
        assert main(argv) == 0
        assert (workdir / out).read_text(encoding="utf-8") != "stale\n"
        # run also writes its metrics, by default into the working directory.
        written = {out, "QuickSort.java.metrics.xml"} if argv[0] == "run" else {out}
        assert self._files(workdir) == sorted(set(files) | written)


class TestSpooledReload:
    """run without --tree-dir streams each tree through an unnamed
    temporary file and reloads it from there, as run --tree-dir does
    from the tree file: the same outputs, and a fault in the temporary
    file is exit 4 against the source, after which the run goes on."""

    def _sources(self, root) -> list[str]:
        """Fixtures, generator seeds 0-199 in both languages, and a
        source for each failing exit code, written under root/src."""
        src = root / "src"
        src.mkdir()
        names = sorted(p.name for p in root.iterdir() if p.suffix in (".mod", ".java"))
        for name in names:
            shutil.move(root / name, src / name)
        for language, ext in EXTENSIONS.items():
            for seed in range(200):
                source = generators.generate(language, seed).source
                (src / f"g{seed}{ext}").write_text(source, encoding="utf-8")
                names.append(f"g{seed}{ext}")
        failing = {
            "Broken.java": "class T {\n  void m( }\n",
            "Open.mod": "MODULE M;\n(* open\n",
            "Bell.mod": "MODULE M;\n(* \x07 *)\nEND M.\n",
            "notes.txt": "hello\n",
        }
        for name, text in failing.items():
            (src / name).write_text(text, encoding="utf-8")
        return [f"src/{name}" for name in [*names, *failing, "Ghost.mod"]]

    def test_outputs_match_run_with_tree_dir(self, workdir, monkeypatch, capsys):
        sources = self._sources(workdir)
        spool_dir = workdir / "spool"
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        outcomes = []
        for options in ([], ["--tree-dir", "t"]):
            shutil.rmtree(workdir / "m", ignore_errors=True)
            code = main(["run", *sources, "--metrics-dir", "m", "--table", *options])
            metrics = {p.name: p.read_bytes() for p in (workdir / "m").iterdir()}
            outcomes.append((code, capsys.readouterr(), metrics))
        assert outcomes[0] == outcomes[1]
        code, captured, metrics = outcomes[0]
        assert code == 4 and len(metrics) == len(sources) - 5
        assert captured.err.count("\n") == 5
        assert os.listdir(spool_dir) == []

    def test_unusable_temporary_directory_is_4(self, workdir, monkeypatch, capsys):
        monkeypatch.setattr(tempfile, "tempdir", str(workdir / "missing"))
        files = TestWholeOutputs._files(workdir)
        assert _cyclic_garbage(["run", "QuickSort.mod", "Features.java"]) == 4
        assert capsys.readouterr() == ("", "".join(
            f"{name}: error: cannot use a temporary file: No such file or directory\n"
            for name in ("QuickSort.mod", "Features.java")
        ))
        assert TestWholeOutputs._files(workdir) == files

    def test_disk_filling_part_way_through_the_spool_is_4(
        self, workdir, monkeypatch, capsys
    ):
        source = generators.generate("javaoo", 3, n_units=6).source
        (workdir / "Big.java").write_text(source, encoding="utf-8")
        written = []
        real = cli.serialize_tree

        def serialize(tree, handle):
            if tree.source_path == "Big.java":
                handle = _Full(handle, written)
            real(tree, handle)

        monkeypatch.setattr(cli, "serialize_tree", serialize)
        assert _cyclic_garbage(["run", "Big.java", "QuickSort.mod"]) == 4
        assert len(written) == 1
        # The next file is still measured.
        assert capsys.readouterr() == (
            "QuickSort.mod -> ./QuickSort.mod.metrics.xml\n",
            "Big.java: error: cannot use a temporary file: No space left on device\n",
        )
        assert not (workdir / "Big.java.metrics.xml").exists()

    def test_read_fault_is_4(self, workdir, monkeypatch, capsys):
        def reload(spool):
            spool.read(100)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli, "parse_tree_xml", reload)
        assert _cyclic_garbage(["run", "QuickSort.mod"]) == 4
        assert capsys.readouterr() == (
            "", "QuickSort.mod: error: cannot use a temporary file: Input/output error\n"
        )
        assert not (workdir / "QuickSort.mod.metrics.xml").exists()


class TestNoCyclicGarbage:
    """Every tree, expat parser and error a command builds is freed by
    reference counting when the command returns, so with the cyclic
    garbage collector off, a collection afterwards finds nothing.

    argparse's usage error is left out: main(["bogus"]) leaves a small
    cycle of argparse's own objects (a HelpFormatter and its _Sections),
    which a collection after main returns frees."""

    # Trees measure rejects with exit 5, through four paths of the reader,
    # and one that the line reader declines only at its end.
    BAD_TREES = {
        "fold.ecst.xml": MINI_XML.replace("FUNCTION_DECL", "CONDITION"),
        "late.ecst.xml": MINI_XML + "<!-- done -->\n",
        "type.ecst.xml": MINI_XML.replace('type="keyword"', 'type="kw"'),
        "cut.ecst.xml": MINI_XML[:-12],
        "loose.ecst.xml": MINI_XML.replace(
            '    <token type="keyword"',
            '    <node kind="CONDITION"><token type="keyword"',
        ).replace("PROCEDURE</token>", "PROCEDURE</token></node>"),
    }

    CASES = {
        "run": (["run", "QuickSort.java", "Features.mod", "--tree-dir", "t"], 0),
        "run without --tree-dir": (["run", "QuickSort.java", "Features.mod"], 0),
        "run with a failure between": (
            ["run", "QuickSort.java", "Open.mod", "Features.mod", "--tree-dir", "t"],
            3,
        ),
        "run writes a tree twice": (
            ["run", "QuickSort.java", "QuickSort.java", "--tree-dir", "t"],
            4,
        ),
        "run --extended-cc --table": (
            ["run", "Features.mod", "--extended-cc", "--table"],
            0,
        ),
        "measure --table": (["measure", "Features.java", "--table"], 0),
        "write error": (["measure", "Features.java", "--out", "nodir/x.xml"], 4),
        "parse": (["parse", "QuickSort.mod"], 0),
        "measure source": (["measure", "Features.java"], 0),
        "measure tree": (["measure", "tree.ecst.xml"], 0),
        "unknown token type": (["measure", "type.ecst.xml"], 5),
        "not well-formed": (["measure", "cut.ecst.xml"], 5),
        "invariant breach": (["measure", "loose.ecst.xml"], 5),
        "invariant breach while folded": (["measure", "fold.ecst.xml"], 5),
        "declined after folding": (["measure", "late.ecst.xml"], 0),
        "lex error": (["parse", "Open.mod"], 3),
        "parse error": (["measure", "Broken.java"], 3),
        "unknown extension": (["parse", "notes.txt"], 2),
        "missing file": (["run", "Ghost.mod"], 4),
        "registry": (["run", "QuickSort.mod", "--registry", "fixture.xml"], 0),
        "malformed registry": (["parse", "QuickSort.mod", "--registry", "bad.xml"], 4),
        "languages.xml": (["run", "QuickSort.mod", "Features.java"], 0),
    }

    @pytest.fixture
    def inputs(self, workdir, fixture_dir):
        (workdir / "tree.ecst.xml").write_text(MINI_XML, encoding="utf-8")
        for name, text in self.BAD_TREES.items():
            (workdir / name).write_text(text, encoding="utf-8")
        (workdir / "Open.mod").write_text("MODULE M;\n(* open\n", encoding="utf-8")
        (workdir / "Broken.java").write_text("class T {\n  void m( }\n", encoding="utf-8")
        (workdir / "notes.txt").write_text("hello\n", encoding="utf-8")
        shutil.copy(fixture_dir / "languages.xml", workdir / "fixture.xml")
        (workdir / "bad.xml").write_text("<languages>\n", encoding="utf-8")
        return workdir

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_command_leaves_no_cyclic_garbage(self, inputs, case):
        argv, code = self.CASES[case]
        if case == "languages.xml":
            shutil.copy(inputs / "fixture.xml", inputs / "languages.xml")
        assert _cyclic_garbage(argv) == code


class TestCollectorState:
    """main runs a command with the cyclic collector off, and leaves the
    collector on or off as it found it, however the command ends."""

    ENDS = {
        "exit 0": (["run", "QuickSort.java", "--tree-dir", "t"], 0),
        "handled failure": (["parse", "Open.mod"], 3),
        "usage error": (["bogus"], SystemExit),
        "unexpected exception": (["parse", "QuickSort.mod"], RuntimeError),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
    @pytest.mark.parametrize("case", sorted(ENDS))
    def test_main_restores_the_collector(self, workdir, monkeypatch, case, enabled):
        (workdir / "Open.mod").write_text("MODULE M;\n(* open\n", encoding="utf-8")
        if case == "unexpected exception":
            monkeypatch.setattr(cli, "_cmd_parse", _fail_unexpectedly)
        argv, end = self.ENDS[case]
        was = gc.isenabled()
        try:
            _set_collector(enabled)
            if isinstance(end, int):
                assert main(argv) == end
            else:
                with pytest.raises(end):
                    main(argv)
            assert gc.isenabled() is enabled
        finally:
            _set_collector(was)

    def test_no_collection_runs_during_a_command(self, workdir):
        source = generators.generate("modula2", 5, n_units=100).source
        (workdir / "Big.mod").write_text(source, encoding="utf-8")
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(hook)
        try:
            assert main(["run", "Big.mod", "--metrics-dir", "m"]) == 0
        finally:
            gc.callbacks.remove(hook)
            _set_collector(was)
        assert starts == []


def _fail_unexpectedly(args):
    raise RuntimeError("unexpected")


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _cyclic_garbage(argv) -> int:
    """main(argv)'s exit code, after checking that a cyclic collection
    with the collector off until then finds nothing."""
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        leaked = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, f"cyclic garbage by type: {leaked.most_common()}"
    return code


def _traced(call) -> tuple[int, int]:
    """Bytes that call() leaves allocated, and its peak, both above what
    was allocated before it, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()  # kept alive while the current size is read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - base, peak - base


class TestPeakMemory:
    """A command holds one tree at a time: the parsed tree, or the tree
    reloaded from its file, with the file written and read in pieces.
    run without --tree-dir streams through a temporary file alike.  The
    metrics go out in pieces too, once no tree is held."""

    # command -> (argv, highest peak as a multiple of the parsed tree)
    COMMANDS = {
        "parse": (["parse", "Big.mod"], 1.2),
        "run": (["run", "Big.mod", "--metrics-dir", "m"], 1.2),
        "run --tree-dir": (
            ["run", "Big.mod", "--tree-dir", "t", "--metrics-dir", "m"],
            1.2,
        ),
        "measure TREE": (["measure", "Big.mod.ecst.xml"], 0.2),
        "measure SOURCE": (["measure", "Big.mod"], 1.2),
    }

    def test_peak_is_one_tree(self, workdir):
        source = generators.generate("modula2", 5, n_units=100).source
        assert 190_000 < len(source) < 230_000
        (workdir / "Big.mod").write_text(source, encoding="utf-8")
        # Load what each command loads once, on a small file, before tracing.
        for argv, _ in self.COMMANDS.values():
            assert main([a.replace("Big", "QuickSort") for a in argv]) == 0
        tree_size, _ = _traced(lambda: parse_file("Big.mod", "modula2"))
        for name, (argv, limit) in self.COMMANDS.items():  # parse writes the tree
            _, peak = _traced(lambda: main(argv))
            assert peak / tree_size <= limit, name


class TestEntryPoint:
    def test_import_loads_no_network_modules(self):
        # xml.sax.saxutils would pull in urllib.request and through it
        # http.client, email, ssl and socket: megabytes and tens of
        # milliseconds on every start of a command that uses none of them.
        unused = ["xml.sax", "urllib.request", "http.client", "email", "ssl", "socket"]
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "before = set(sys.modules)\n"
                "import ecstmetrics.cli\n"
                f"print(sorted((set(sys.modules) - before) & set({unused!r})))",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_loads_no_tempfile(self):
        # Only run without --tree-dir spools a tree to a temporary file.
        # site loads tempfile on some installs, so look without site.
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys\n"
                "import ecstmetrics.cli\n"
                "print('tempfile' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_every_exported_name_resolves(self):
        namespace = {}
        exec("from ecstmetrics import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(ecstmetrics.__all__)

    def test_module_invocation(self, workdir):
        proc = _run_module(["run", "QuickSort.mod", "--table"], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert "Sort" in proc.stdout
        assert (workdir / "QuickSort.mod.metrics.xml").exists()
