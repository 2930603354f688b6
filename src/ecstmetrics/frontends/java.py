"""Java frontend: lexical rules (JavaParser.SPEC) and parser.

Supported subset: classes with fields and (possibly static) methods,
local declarations, assignment and call statements, return/break/
continue, if/else-if/else, while, do-while, and for.  Class headers,
fields, and expressions stay flat; universal nodes mark only methods,
loops, and branches.
"""

from __future__ import annotations

from ..scan import LexerSpec
from ..tree import EcstNode, UniversalKind
from .base import BaseParser

MODIFIERS = ("public", "private", "protected", "static", "final")

# Keywords that may open a flat statement (declarations).
DECL_KEYWORDS = frozenset(
    {"int", "long", "short", "byte", "char", "boolean", "float", "double", "final", "new"}
)


class JavaParser(BaseParser):
    SPEC = LexerSpec(
        keywords=frozenset(
            """class public private protected static final void int long short
               byte char boolean float double if else while do for return new
               break continue""".split()
        ),
        operator_words=frozenset(),
        literal_words=frozenset({"true", "false", "null"}),
        two_char_ops=frozenset(
            {"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%="}
        ),
        single_chars="+-*/%=<>!()[]{},;.",
        punctuation=frozenset({"(", ")", "[", "]", "{", "}", ",", ";", "."}),
        line_comment="//",
        block_open="/*",
        block_close="*/",
        nested_blocks=False,
        string_escapes=True,
    )
    _CONSTRUCTS = frozenset({"if", "else", "while", "do", "for", "class"})

    def _opens_construct(self, j: int) -> bool:
        # After "." the keyword is a member name, as in the literal A.class.
        return self.toks[j - 1].label != "."

    def parse_compilation_unit(self) -> EcstNode:
        kids: list[EcstNode] = []
        if self._peek() is None:
            self._error("empty compilation unit")
        while self._peek() is not None:
            self._class_declaration(kids)
        return EcstNode.universal(UniversalKind.COMPILATION_UNIT, kids)

    # -- class structure ---------------------------------------------------

    def _class_declaration(self, kids: list[EcstNode]) -> None:
        while self._at(*MODIFIERS):
            kids.append(self._advance())
        kids.append(self._expect("class"))
        kids.append(self._expect_type("identifier"))
        kids.append(self._expect("{"))
        while not self._at("}"):
            if self._peek() is None:
                self._error("expected '}', found end of input")
            self._member(kids)
        kids.append(self._expect("}"))

    def _member(self, kids: list[EcstNode]) -> None:
        j = self.i
        decide = None
        while j < len(self.toks):
            lex = self.toks[j].label
            if lex in ("(", "=", ";", "{"):
                decide = lex
                break
            j += 1
        if decide == "(":
            kids.append(self._method())
        elif decide == "{":
            self._error("unsupported class member")
        else:
            kids.extend(self._flat_until({";"}))
            kids.append(self._expect(";"))

    def _method(self) -> EcstNode:
        self._enter_level()
        k = self._flat_until({"("})
        if not k or k[-1].token_type != "identifier":
            self._expect_type("identifier")  # a method needs its name
        k.extend(self._balanced_group())
        self._block(k)
        self._leave_level()
        return EcstNode.universal(UniversalKind.FUNCTION_DECL, k)

    # -- statements --------------------------------------------------------

    def _block(self, kids: list[EcstNode]) -> None:
        kids.append(self._expect("{"))
        while not self._at("}"):
            if self._peek() is None:
                self._error("expected '}', found end of input")
            self._statement(kids)
        kids.append(self._expect("}"))

    def _stmt_or_block(self, kids: list[EcstNode]) -> None:
        if self._at("{"):
            self._block(kids)
        else:
            self._statement(kids)

    def _statement(self, kids: list[EcstNode]) -> None:
        self._enter_level()
        if self._at("if"):
            kids.append(self._if_statement())
        elif self._at("while"):
            kids.append(self._while_loop())
        elif self._at("do"):
            kids.append(self._do_loop())
        elif self._at("for"):
            kids.append(self._for_loop())
        elif self._at("{"):
            self._block(kids)
        elif self._at(";"):
            kids.append(self._advance())
        elif self._at("return", "break", "continue"):
            kids.append(self._advance())
            kids.extend(self._flat_until({";"}))
            kids.append(self._expect(";"))
        else:
            tok = self._peek()
            if tok is None or (tok.token_type == "keyword" and tok.label not in DECL_KEYWORDS):
                self._error("expected statement")
            kids.extend(self._flat_until({";"}))
            kids.append(self._expect(";"))
        self._leave_level()

    def _paren_condition(self) -> EcstNode:
        if not self._at("("):
            self._error("expected parenthesized condition")
        return EcstNode.universal(UniversalKind.CONDITION, self._balanced_group())

    def _if_statement(self) -> EcstNode:
        b = [self._expect("if"), self._paren_condition()]
        self._stmt_or_block(b)
        branches = [EcstNode.universal(UniversalKind.BRANCH, b)]
        while self._at("else"):
            nxt = self._peek(1)
            if nxt is not None and nxt.label == "if":
                # else-if flattens into a sibling branch of the same chain
                b = [self._advance(), self._advance(), self._paren_condition()]
                self._stmt_or_block(b)
                branches.append(EcstNode.universal(UniversalKind.BRANCH, b))
                continue
            b = [self._advance()]
            self._stmt_or_block(b)
            branches.append(EcstNode.universal(UniversalKind.BRANCH, b))
            break
        return EcstNode.universal(UniversalKind.BRANCH_STATEMENT, branches)

    def _while_loop(self) -> EcstNode:
        k = [self._expect("while"), self._paren_condition()]
        self._stmt_or_block(k)
        return EcstNode.universal(UniversalKind.LOOP_STATEMENT, k)

    def _do_loop(self) -> EcstNode:
        k = [self._expect("do")]
        self._stmt_or_block(k)
        k.append(self._expect("while"))
        k.append(self._paren_condition())
        k.append(self._expect(";"))
        return EcstNode.universal(UniversalKind.LOOP_STATEMENT, k)

    def _for_loop(self) -> EcstNode:
        k = [self._expect("for"), self._expect("(")]
        k.extend(self._flat_until({";"}))
        k.append(self._expect(";"))
        test = self._flat_until({";"})
        if test:
            # An empty test part gets no CONDITION node.
            k.append(EcstNode.universal(UniversalKind.CONDITION, test))
        k.append(self._expect(";"))
        k.extend(self._flat_until({")"}))
        k.append(self._expect(")"))
        self._stmt_or_block(k)
        return EcstNode.universal(UniversalKind.LOOP_STATEMENT, k)
