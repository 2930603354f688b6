"""Language registry loading and extension dispatch."""

from __future__ import annotations

import pytest

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
