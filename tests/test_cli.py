"""Command-line interface: outputs, registry resolution, exit codes."""

from __future__ import annotations

import gc
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecstmetrics import cli, measure_tree, parse_file, parse_source
from ecstmetrics.cli import main
from ecstmetrics.errors import LexError, ParseError
from ecstmetrics.frontends.base import MAX_NESTING
from ecstmetrics.tree import EcstTree, SourceSpan
from ecstmetrics.xmlio import (
    load_tree_file,
    parse_tree_xml,
    serialize_metrics,
    serialize_tree,
)
from oracles import same_tree
from test_reference_parity import LANGUAGES, PROGRAMS


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

    def test_control_character_inside_a_multiline_comment(self):
        source = "MODULE M;\n(* one\n  two\x1b *)\nBEGIN\nEND M.\n"
        with pytest.raises(LexError, match=r"character '\\x1b'") as info:
            parse_source(source, "modula2")
        assert info.value.span == SourceSpan(3, 6, 3, 6)

    @pytest.mark.parametrize(
        "option,directory,reason",
        [
            ("--metrics-dir", "afile/sub", "Not a directory"),
            ("--tree-dir", "afile", "File exists"),
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

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    @pytest.mark.parametrize(
        "name,source,where",
        [
            ("A.java", "class A {\n  void m(int x] { a = f(b]; }\n}\n", "2:15"),
            ("A.java", "class A {\n  void m(int x) { a = f(b]; }\n}\n", "2:26"),
            ("M.mod", "MODULE M;\nPROCEDURE P;\nBEGIN\n  a := F(b];\nEND P;\nEND M.\n", "4:11"),
        ],
    )
    def test_mismatched_closer_is_3(self, workdir, capsys, command, name, source, where):
        (workdir / name).write_text(source, encoding="utf-8")
        assert main([command, name]) == 3
        assert capsys.readouterr().err == f"{name}:{where}: error: expected ')', found ']'\n"
        assert not any(p.name.startswith(f"{name}.") for p in workdir.iterdir())

    def test_run_returns_worst_code(self, workdir, capsys):
        (workdir / "Broken.mod").write_text("MODULE B;\nEND\n", encoding="utf-8")
        code = main(["run", "QuickSort.mod", "Broken.mod", "--metrics-dir", "out"])
        assert code == 3
        # the healthy file still produced its report
        assert (workdir / "out" / "QuickSort.mod.metrics.xml").exists()
        assert not (workdir / "out" / "Broken.mod.metrics.xml").exists()
        capsys.readouterr()


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
# level, and so does each statement: a loop with its braces, a bare block.
def _java(opening: str, levels: int) -> tuple[str, int]:
    n = levels - 1  # inside the method
    return "class T {\n  void m() {\n" + opening * n + "}\n" * n + "  }\n}\n", 2 + n


def _modula2_loops(levels: int) -> tuple[str, int]:
    n = levels - 1  # the innermost assignment is the last level
    source = "MODULE M;\nBEGIN\n" + "WHILE a DO\n" * n + "a := 1\n" + "END\n" * n + "END M.\n"
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


NESTED = {
    "java-loops": ("javaoo", lambda levels: _java("while (a) {\n", levels)),
    "java-blocks": ("javaoo", lambda levels: _java("{\n", levels)),
    "modula2-loops": ("modula2", _modula2_loops),
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

    @pytest.mark.parametrize("shape", ["java-loops", "modula2-loops"])
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


class TestEntryPoint:
    def test_module_invocation(self, workdir):
        proc = _run_module(["run", "QuickSort.mod", "--table"], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert "Sort" in proc.stdout
        assert (workdir / "QuickSort.mod.metrics.xml").exists()
