"""Language registry loading and extension dispatch."""

from __future__ import annotations

import os
import shutil

import pytest

from ecstmetrics.cli import main
from ecstmetrics.errors import RegistryError, SourceIoError, UnknownExtensionError
from ecstmetrics.frontends.registry import BUILTIN, detect, load_registry


class TestLoadRegistry:
    def test_fixture_registry_read_back(self, fixture_dir):
        registry = load_registry(fixture_dir / "languages.xml")
        assert set(registry.values()) == {"modula2", "javaoo"}
        assert registry == {"mod": "modula2", "def": "modula2", "java": "javaoo"}
        assert detect(registry, "QuickSort.mod") == "modula2"
        assert detect(registry, "QuickSort.java") == "javaoo"
        assert detect(registry, "defs.def") == "modula2"

    def test_empty_registry(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text("<languages/>")
        registry = load_registry(path)
        assert registry == {}
        with pytest.raises(UnknownExtensionError):
            detect(registry, "a.mod")

    def test_duplicate_extension_rejected(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text(
            "<languages>"
            '<language id="a" name="A"><ext>mod</ext></language>'
            '<language id="b" name="B"><ext>MOD</ext></language>'
            "</languages>"
        )
        with pytest.raises(RegistryError, match="mod|MOD"):
            load_registry(path)

    def test_unknown_element_rejected(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text("<languages><alien/></languages>")
        with pytest.raises(RegistryError, match="alien"):
            load_registry(path)

    def test_missing_attributes_rejected(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text('<languages><language id="x"><ext>x</ext></language></languages>')
        with pytest.raises(RegistryError):
            load_registry(path)

    # A registry document with one schema fault, and the exact message.
    SCHEMA_FAULTS = {
        "root": ("<langs/>", "expected root element 'languages', got 'langs'"),
        "element in language": (
            '<languages>\n  <language id="a" name="A"><note/></language>\n</languages>',
            "unknown element 'note' in registry",
        ),
        "element in ext": (
            '<languages><language id="a" name="A"><ext>a<b/></ext></language></languages>',
            "unexpected element 'b' in registry",
        ),
        "no name": (
            '<languages>\n\n  <language id="a">\n    <ext>a</ext>\n  </language>\n</languages>',
            "<language> requires id and name attributes (line 3)",
        ),
        "no id": (
            '<languages>\n  <language name="A"><ext>a</ext></language>\n</languages>',
            "<language> requires id and name attributes (line 2)",
        ),
        "empty ext": (
            '<languages>\n  <language id="a" name="A">\n    <ext>\n    </ext>\n'
            "  </language>\n</languages>",
            "empty <ext> element (line 4)",
        ),
        "duplicate": (
            '<languages><language id="a" name="A"><ext>mod</ext></language>'
            '<language id="b" name="B"><ext>MOD</ext></language></languages>',
            "duplicate extension 'MOD' in registry",
        ),
        # detect reads only what follows a path's last dot.
        "dot in ext": (
            '<languages>\n  <language id="a" name="A"><ext>tar.gz</ext></language>\n'
            "</languages>",
            "extension 'tar.gz' holds a dot (line 2)",
        ),
        "dot after the leading dot": (
            '<languages><language id="a" name="A"><ext>..gz</ext></language></languages>',
            "extension '.gz' holds a dot (line 1)",
        ),
        "lone dot": (
            '<languages><language id="a" name="A"><ext> . </ext></language></languages>',
            "empty <ext> element (line 1)",
        ),
        # Duplicates are checked once the whole document is read.
        "duplicate, then unknown element": (
            '<languages><language id="a" name="A"><ext>x</ext></language>'
            '<language id="b" name="B"><ext>X</ext></language><alien/></languages>',
            "unknown element 'alien' in registry",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(SCHEMA_FAULTS))
    def test_schema_fault_message(self, tmp_path, fault):
        document, message = self.SCHEMA_FAULTS[fault]
        path = tmp_path / "langs.xml"
        path.write_text(document)
        with pytest.raises(RegistryError) as info:
            load_registry(path)
        assert str(info.value) == message

    def test_empty_ext_rejected(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text(
            '<languages><language id="x" name="X"><ext>  </ext></language></languages>'
        )
        with pytest.raises(RegistryError):
            load_registry(path)

    def test_malformed_xml_is_io_error(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text("<languages><language")
        with pytest.raises(SourceIoError):
            load_registry(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(SourceIoError):
            load_registry(tmp_path / "absent.xml")

    def test_unknown_attributes_ignored(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text(
            '<languages note="x">'
            '<language id="a" name="A" vendor="y"><ext>a</ext></language>'
            "</languages>"
        )
        assert load_registry(path) == {"a": "a"}


class TestLeadingDot:
    """An <ext> may be written with the dot detect drops from a path."""

    REGISTRY = (
        '<languages><language id="javaoo" name="Java">'
        "<ext>.java</ext><ext> .JV </ext></language></languages>"
    )

    def test_one_leading_dot_is_dropped(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text(self.REGISTRY)
        registry = load_registry(path)
        assert registry == {"java": "javaoo", "jv": "javaoo"}
        assert detect(registry, "Q.java") == "javaoo"
        assert detect(registry, "Q.Jv") == "javaoo"

    def test_dotted_and_plain_ext_are_duplicates(self, tmp_path):
        path = tmp_path / "langs.xml"
        path.write_text(
            '<languages><language id="a" name="A"><ext>.mod</ext><ext>mod</ext>'
            "</language></languages>"
        )
        with pytest.raises(RegistryError, match="^duplicate extension 'mod' in registry$"):
            load_registry(path)

    def test_parse_with_a_dotted_ext(self, tmp_path, fixture_dir, monkeypatch, capsys):
        shutil.copy(fixture_dir / "QuickSort.java", tmp_path / "Q.java")
        (tmp_path / "r.xml").write_text(self.REGISTRY)
        monkeypatch.chdir(tmp_path)
        assert main(["parse", "Q.java", "--registry", "r.xml"]) == 0
        assert capsys.readouterr().out == "Q.java -> Q.java.ecst.xml\n"

    @pytest.mark.parametrize("command", ["parse", "measure", "run"])
    def test_ext_holding_a_dot_is_4_against_the_registry(
        self, tmp_path, fixture_dir, monkeypatch, capsys, command
    ):
        shutil.copy(fixture_dir / "QuickSort.mod", tmp_path / "Q.mod")
        (tmp_path / "r.xml").write_text(
            '<languages>\n  <language id="modula2" name="Modula-2">\n'
            "    <ext>mod</ext><ext>tar.gz</ext>\n  </language>\n</languages>\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main([command, "Q.mod", "--registry", "r.xml"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "r.xml: error: extension 'tar.gz' holds a dot (line 3)\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["Q.mod", "r.xml"]


class TestDetection:
    def test_case_insensitive_extension(self):
        assert detect(BUILTIN, "A.MOD") == "modula2"
        assert detect(BUILTIN, "B.Java") == "javaoo"

    def test_unknown_extension(self):
        with pytest.raises(
            UnknownExtensionError, match="^no language registered for extension 'txt'$"
        ):
            detect(BUILTIN, "notes.txt")

    def test_no_extension(self):
        with pytest.raises(
            UnknownExtensionError, match="^no language registered for extension '<none>'$"
        ):
            detect(BUILTIN, "README")

    def test_builtin_covers_both_languages(self):
        assert set(BUILTIN.values()) == {"modula2", "javaoo"}
