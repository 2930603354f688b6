"""Extension-to-frontend mapping loaded from a small XML file."""

from __future__ import annotations

import os
from dataclasses import dataclass
from xml.parsers import expat

from ..errors import RegistryError, SourceIoError, UnknownExtensionError


@dataclass(frozen=True)
class LanguageEntry:
    language_id: str
    display_name: str
    extensions: tuple[str, ...]


class LanguageRegistry:
    def __init__(self, entries: list[LanguageEntry]):
        self.entries = list(entries)
        self._by_extension: dict[str, LanguageEntry] = {}
        for entry in self.entries:
            for ext in entry.extensions:
                key = ext.lower()
                if key in self._by_extension:
                    raise RegistryError(f"duplicate extension {ext!r} in registry")
                self._by_extension[key] = entry

    def detect(self, path) -> str:
        """Language id for a source path, matched on its extension."""
        ext = os.path.splitext(str(path))[1].lstrip(".").lower()
        entry = self._by_extension.get(ext)
        if entry is None:
            raise UnknownExtensionError(
                f"no language registered for extension {ext or '<none>'!r}"
            )
        return entry.language_id

    def __len__(self) -> int:
        return len(self.entries)


def builtin_registry() -> LanguageRegistry:
    """Registry used when no registry file is given or present."""
    return LanguageRegistry(
        [
            LanguageEntry("modula2", "Modula-2", ("mod",)),
            LanguageEntry("javaoo", "Java", ("java",)),
        ]
    )


def load_registry(path) -> LanguageRegistry:
    """Load a registry XML document.

    Malformed XML raises SourceIoError; schema problems (unknown
    elements, missing attributes, duplicate extensions) raise
    RegistryError.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise SourceIoError(f"cannot read registry {path}: {e.strerror or e}") from e

    entries: list[LanguageEntry] = []
    stack: list[str] = []
    current: dict | None = None
    text_parts: list[str] = []
    parser = expat.ParserCreate()
    parser.buffer_text = True

    def start(tag, attrs):
        nonlocal current
        depth = len(stack)
        if depth == 0:
            if tag != "languages":
                raise RegistryError(f"expected root element 'languages', got {tag!r}")
        elif depth == 1:
            if tag != "language":
                raise RegistryError(f"unknown element {tag!r} in registry")
            if "id" not in attrs or "name" not in attrs:
                raise RegistryError(
                    f"<language> requires id and name attributes (line "
                    f"{parser.CurrentLineNumber})"
                )
            current = {"id": attrs["id"], "name": attrs["name"], "exts": []}
        elif depth == 2:
            if tag != "ext":
                raise RegistryError(f"unknown element {tag!r} in registry")
            text_parts.clear()
        else:
            raise RegistryError(f"unexpected element {tag!r} in registry")
        stack.append(tag)

    def chars(data_):
        if stack and stack[-1] == "ext":
            text_parts.append(data_)

    def end(tag):
        nonlocal current
        stack.pop()
        if tag == "ext":
            ext = "".join(text_parts).strip()
            if not ext:
                raise RegistryError(
                    f"empty <ext> element (line {parser.CurrentLineNumber})"
                )
            current["exts"].append(ext)
        elif tag == "language":
            entries.append(
                LanguageEntry(current["id"], current["name"], tuple(current["exts"]))
            )
            current = None

    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.EndElementHandler = end
    try:
        parser.Parse(data, True)
    except expat.ExpatError as e:
        raise SourceIoError(f"malformed registry XML {path}: {e}") from e
    return LanguageRegistry(entries)
