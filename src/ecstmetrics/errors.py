"""Exception types shared across the package."""

from __future__ import annotations


class FrontendError(Exception):
    """Base for errors raised while turning a source file into a tree.

    Each subclass names the CLI's exit code for it in exit_code.
    """

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


class UnknownExtensionError(FrontendError):
    """No registry entry matches the file's extension."""

    exit_code = 2


class UnsupportedLanguageError(FrontendError):
    """The registry mapped the file to a language with no frontend."""

    exit_code = 2


class LexError(FrontendError):
    """Source text could not be tokenized; span points at the problem."""

    exit_code = 3


class ParseError(FrontendError):
    """Token stream violates the grammar; span points at the offending token."""

    exit_code = 3


class SourceIoError(FrontendError):
    """Source file could not be read, or its name cannot be stored."""

    exit_code = 4


class RegistryError(Exception):
    """Language registry file is malformed or inconsistent."""

    exit_code = 4


class TreeXmlError(Exception):
    """A tree XML document is malformed or violates the document schema."""

    exit_code = 5


class MalformedTreeError(Exception):
    """A tree violates a structural invariant (e.g. a universal node
    without concrete descendants)."""
