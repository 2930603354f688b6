"""A registry is a table from a lower-case file extension (without the
dot) to a language id.  BUILTIN is the table used when no registry file
is given or present; load_registry reads one from a small XML file.
"""

from __future__ import annotations

import os
from xml.parsers import expat

from ..errors import RegistryError, SourceIoError, UnknownExtensionError

BUILTIN = {"mod": "modula2", "java": "javaoo"}


def detect(registry: dict[str, str], path) -> str:
    """Language id for a source path, matched on its extension."""
    ext = os.path.splitext(str(path))[1].lstrip(".").lower()
    language_id = registry.get(ext)
    if language_id is None:
        raise UnknownExtensionError(
            f"no language registered for extension {ext or '<none>'!r}"
        )
    return language_id


def load_registry(path) -> dict[str, str]:
    """Load a registry XML document.

    An <ext> may start with one dot, which is dropped.  Malformed XML
    raises SourceIoError; schema problems (unknown elements, missing
    attributes, an empty extension or one that holds a dot, duplicate
    extensions) raise RegistryError.  A <language> needs both id and
    name; the name is not used.  Duplicates are looked for once the
    whole document is read.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise SourceIoError(f"cannot read registry {path}: {e.strerror or e}") from e

    pairs: list[tuple[str, str]] = []  # (extension as written, language id)
    depth = 0  # open elements: <languages>, <language>, <ext>
    language_id = ""  # id of the open <language>
    text: list[str] = []  # character data of the open <ext>
    parser = expat.ParserCreate()
    parser.buffer_text = True

    def start(tag, attrs):
        nonlocal depth, language_id
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
            language_id = attrs["id"]
        elif depth == 2:
            if tag != "ext":
                raise RegistryError(f"unknown element {tag!r} in registry")
            text.clear()
        else:
            raise RegistryError(f"unexpected element {tag!r} in registry")
        depth += 1

    def chars(data_):
        if depth == 3:
            text.append(data_)

    def end(tag):
        nonlocal depth
        depth -= 1
        if depth == 2:  # </ext>
            # One leading dot is dropped, as detect drops it from a path.
            ext = "".join(text).strip().removeprefix(".")
            if not ext:
                raise RegistryError(
                    f"empty <ext> element (line {parser.CurrentLineNumber})"
                )
            if "." in ext:
                # detect reads only what follows a path's last dot
                raise RegistryError(
                    f"extension {ext!r} holds a dot (line {parser.CurrentLineNumber})"
                )
            pairs.append((ext, language_id))

    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.EndElementHandler = end
    try:
        parser.Parse(data, True)
    except expat.ExpatError as e:
        raise SourceIoError(f"malformed registry XML {path}: {e}") from e
    finally:
        # Break the parser <-> handler-closure cycle (see xmlio._expat_events).
        parser.StartElementHandler = None
        parser.CharacterDataHandler = None
        parser.EndElementHandler = None
    registry: dict[str, str] = {}
    for ext, language in pairs:
        if ext.lower() in registry:
            raise RegistryError(f"duplicate extension {ext!r} in registry")
        registry[ext.lower()] = language
    return registry
