"""Recursive-descent parser for the object language.

Grammar (informal)::

    program   := decl*
    decl      := typedecl | letdecl
    typedecl  := 'type' LIDENT '=' ['|'] ctor ('|' ctor)*
    ctor      := UIDENT ['of' type]
    letdecl   := 'let' ['rec'] LIDENT param* [':' type] '=' expr
    param     := '(' LIDENT ':' type ')'

    type      := prodtype ['->' type]
    prodtype  := atomtype ('*' atomtype)*
    atomtype  := LIDENT | '(' type ')'

    expr      := 'fun' param '->' expr
               | 'let' LIDENT '=' expr 'in' expr
               | 'match' expr 'with' ['|'] branch ('|' branch)*
               | 'if' expr 'then' expr 'else' expr
               | appexpr
    branch    := pattern '->' expr
    appexpr   := atom atom*            (constructor heads take one payload atom)
    atom      := LIDENT | UIDENT | INT | '(' expr (',' expr)* ')'

    pattern   := patatom | UIDENT [patatom]
    patatom   := LIDENT | '_' | UIDENT | '(' pattern (',' pattern)* ')'

Notes
-----
* ``if c then a else b`` desugars to ``match c with True -> a | False -> b``.
* Integer literals desugar to Peano naturals built from ``S``/``O``.
* As in OCaml, a ``match`` swallows the following ``|`` branches; nested
  matches therefore need parentheses around the inner match when the outer
  one has further branches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from .ast import (
    Branch,
    CtorDecl,
    ECtor,
    EFun,
    ELet,
    EMatch,
    ETuple,
    EVar,
    EApp,
    Expr,
    FunDecl,
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
    TypeDecl,
)
from .errors import ParseError
from .lexer import Token, tokenize
from .types import TArrow, TData, TProd, Type

__all__ = ["Parser", "parse_program", "parse_expression", "parse_type"]


class Parser:
    """A recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token utilities ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, text):
            expected = text or kind
            raise ParseError(
                f"expected {expected!r} but found {token.text!r}", token.line, token.column
            )
        return self._advance()

    # -- programs and declarations ------------------------------------------

    def parse_program(self) -> List[object]:
        decls: List[object] = []
        while not self._check("EOF"):
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> object:
        if self._check("KEYWORD", "type"):
            return self._parse_type_decl()
        if self._check("KEYWORD", "let"):
            return self._parse_let_decl()
        token = self._peek()
        raise ParseError(
            f"expected a declaration but found {token.text!r}", token.line, token.column
        )

    def _parse_type_decl(self) -> TypeDecl:
        keyword = self._expect("KEYWORD", "type")
        name = self._expect("LIDENT").text
        self._expect("EQUAL")
        self._match("BAR")
        ctors = [self._parse_ctor_decl()]
        while self._match("BAR"):
            ctors.append(self._parse_ctor_decl())
        return TypeDecl(name, tuple(ctors), line=keyword.line)

    def _parse_ctor_decl(self) -> CtorDecl:
        name = self._expect("UIDENT").text
        payload: Optional[Type] = None
        if self._match("KEYWORD", "of"):
            payload = self.parse_type()
        return CtorDecl(name, payload)

    def _parse_let_decl(self) -> FunDecl:
        keyword = self._expect("KEYWORD", "let")
        recursive = self._match("KEYWORD", "rec") is not None
        name = self._expect("LIDENT").text
        params: List[Tuple[str, Type]] = []
        while self._check("LPAREN") and self._peek(1).kind == "LIDENT" and self._peek(2).kind == "COLON":
            self._expect("LPAREN")
            param_name = self._expect("LIDENT").text
            self._expect("COLON")
            param_type = self.parse_type()
            self._expect("RPAREN")
            params.append((param_name, param_type))
        return_type: Optional[Type] = None
        if self._match("COLON"):
            return_type = self.parse_type()
        self._expect("EQUAL")
        body = self.parse_expr()
        return FunDecl(name, tuple(params), return_type, body, recursive, line=keyword.line)

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self._parse_prod_type()
        if self._match("ARROW"):
            return TArrow(left, self.parse_type())
        return left

    def _parse_prod_type(self) -> Type:
        items = [self._parse_atom_type()]
        while self._match("STAR"):
            items.append(self._parse_atom_type())
        if len(items) == 1:
            return items[0]
        return TProd(tuple(items))

    def _parse_atom_type(self) -> Type:
        if self._check("LIDENT"):
            return TData(self._advance().text)
        if self._match("LPAREN"):
            inner = self.parse_type()
            self._expect("RPAREN")
            return inner
        token = self._peek()
        raise ParseError(f"expected a type but found {token.text!r}", token.line, token.column)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        if self._check("KEYWORD", "fun"):
            return self._parse_fun()
        if self._check("KEYWORD", "let"):
            return self._parse_let_in()
        if self._check("KEYWORD", "match"):
            return self._parse_match()
        if self._check("KEYWORD", "if"):
            return self._parse_if()
        return self._parse_app()

    def _parse_fun(self) -> Expr:
        self._expect("KEYWORD", "fun")
        self._expect("LPAREN")
        name = self._expect("LIDENT").text
        self._expect("COLON")
        param_type = self.parse_type()
        self._expect("RPAREN")
        self._expect("ARROW")
        body = self.parse_expr()
        return EFun(name, param_type, body)

    def _parse_let_in(self) -> Expr:
        self._expect("KEYWORD", "let")
        name = self._expect("LIDENT").text
        self._expect("EQUAL")
        value = self.parse_expr()
        self._expect("KEYWORD", "in")
        body = self.parse_expr()
        return ELet(name, value, body)

    def _parse_match(self) -> Expr:
        keyword = self._expect("KEYWORD", "match")
        scrutinee = self.parse_expr()
        self._expect("KEYWORD", "with")
        self._match("BAR")
        branches = [self._parse_branch()]
        while self._match("BAR"):
            branches.append(self._parse_branch())
        return EMatch(scrutinee, tuple(branches), line=keyword.line)

    def _parse_branch(self) -> Branch:
        pattern = self.parse_pattern()
        self._expect("ARROW")
        body = self.parse_expr()
        return Branch(pattern, body)

    def _parse_if(self) -> Expr:
        keyword = self._expect("KEYWORD", "if")
        condition = self.parse_expr()
        self._expect("KEYWORD", "then")
        then_branch = self.parse_expr()
        self._expect("KEYWORD", "else")
        else_branch = self.parse_expr()
        return EMatch(
            condition,
            (
                Branch(PCtor("True"), then_branch),
                Branch(PCtor("False"), else_branch),
            ),
            line=keyword.line,
        )

    def _parse_app(self) -> Expr:
        atoms = [self._parse_atom()]
        while self._starts_atom():
            atoms.append(self._parse_atom())
        head = atoms[0]
        rest = atoms[1:]
        # A capitalized head is a constructor and takes at most one payload.
        if isinstance(head, ECtor) and head.payload is None and rest:
            if len(rest) > 1:
                token = self._peek()
                raise ParseError(
                    f"constructor {head.ctor} applied to more than one argument; "
                    "wrap the payload in parentheses",
                    token.line,
                    token.column,
                )
            return ECtor(head.ctor, rest[0])
        result = head
        for arg in rest:
            result = EApp(result, arg)
        return result

    def _starts_atom(self) -> bool:
        return self._peek().kind in ("LIDENT", "UIDENT", "INT", "LPAREN")

    def _parse_atom(self) -> Expr:
        token = self._peek()
        if token.kind == "LIDENT":
            self._advance()
            return EVar(token.text)
        if token.kind == "UIDENT":
            self._advance()
            return ECtor(token.text)
        if token.kind == "INT":
            self._advance()
            return _nat_literal(int(token.text))
        if token.kind == "LPAREN":
            self._advance()
            items = [self.parse_expr()]
            while self._match("COMMA"):
                items.append(self.parse_expr())
            self._expect("RPAREN")
            if len(items) == 1:
                return items[0]
            return ETuple(tuple(items))
        raise ParseError(
            f"expected an expression but found {token.text!r}", token.line, token.column
        )

    # -- patterns --------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        token = self._peek()
        if token.kind == "UIDENT":
            self._advance()
            payload: Optional[Pattern] = None
            if self._peek().kind in ("LIDENT", "UIDENT", "UNDERSCORE", "LPAREN"):
                payload = self._parse_pattern_atom()
            return PCtor(token.text, payload)
        return self._parse_pattern_atom()

    def _parse_pattern_atom(self) -> Pattern:
        token = self._peek()
        if token.kind == "LIDENT":
            self._advance()
            return PVar(token.text)
        if token.kind == "UNDERSCORE":
            self._advance()
            return PWild()
        if token.kind == "UIDENT":
            self._advance()
            return PCtor(token.text)
        if token.kind == "LPAREN":
            self._advance()
            items = [self.parse_pattern()]
            while self._match("COMMA"):
                items.append(self.parse_pattern())
            self._expect("RPAREN")
            if len(items) == 1:
                return items[0]
            return PTuple(tuple(items))
        raise ParseError(
            f"expected a pattern but found {token.text!r}", token.line, token.column
        )


def _nat_literal(n: int) -> Expr:
    """Expand an integer literal into a Peano natural expression."""
    expr: Expr = ECtor("O")
    for _ in range(n):
        expr = ECtor("S", expr)
    return expr


def parse_program(source: str) -> List[object]:
    """Parse a complete program source into a list of declarations.

    Declarations are immutable, so a source parsed recently (the prelude
    of every program, a module loaded again for analysis or a rerun) is
    not parsed again.
    """
    return list(_parse_program(source))


@lru_cache(maxsize=4)
def _parse_program(source: str) -> Tuple[object, ...]:
    return tuple(Parser(tokenize(source)).parse_program())


def parse_expression(source: str) -> Expr:
    """Parse a single expression (useful for tests and the REPL-style API)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    token = parser._peek()
    if token.kind != "EOF":
        raise ParseError(f"trailing input at {token.text!r}", token.line, token.column)
    return expr


def parse_type(source: str) -> Type:
    """Parse a single type expression."""
    parser = Parser(tokenize(source))
    ty = parser.parse_type()
    token = parser._peek()
    if token.kind != "EOF":
        raise ParseError(f"trailing input at {token.text!r}", token.line, token.column)
    return ty
