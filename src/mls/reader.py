"""Tokenizer and parser for MLS source text.

The lexical grammar is one master regex, `_TOKEN`, with a named
alternative per token class (the "Writing a Tokenizer" example in
Python's `re` documentation).  Blanks and a comment are not tokens of
their own: `_TOKEN` takes them in a prefix before the alternatives, so
`tokenize` makes one match per token, reads its class from `lastgroup`
and its column from where that group starts.  The `END` alternative
matches the end of the text.

The grammar is a small R-like surface: `<-` assignment, `<<-`
superassignment, `$` field access, `[ ]` indexing, `function`
literals, `if`/`else`, `while`, and `{ }` blocks.  Newlines separate
statements except inside `( )` and `[ ]`, or when a line ends with an
incomplete expression (an unfinished operator or an open construct).
An operator is a call to the function it names; the parser reads its
precedence from `syntax.BINARY_PRECEDENCE` and `PREFIX_PRECEDENCE` by
precedence climbing (Pratt, "Top down operator precedence", 1973).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from . import syntax, values
from .values import MlsError

_MULTI_OPS = ["<<-", "<-", "<=", ">=", "==", "!=", "&&", "||"]
_SINGLE_OPS = "+-*/<>!=(){}[],;$"

# Blanks and a comment to the end of the line lead the token; a comment
# ends before the newline, so no blank can follow it.  Alternatives are
# tried in order.  Numbers use ASCII digits only, because int() and
# float() reject other digits such as "²".  A name may continue with any
# alphanumeric character but starts only where str.isalpha() holds or
# with "." or "_"; no re class says that, so tokenize checks it.  ERROR
# takes the one character nothing else accepts, such as an unclosed
# quote, and END the end of the text.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?(?:%s)" % "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in [
    ("NEWLINE", r"\n"),
    ("NUM", r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
    ("STR", r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"' + r"|'[^'\\]*(?:\\[\s\S][^'\\]*)*'"),
    ("QUOTED", r"`[^`\n]*`"),
    ("SYM", r"[\w.]+"),
    ("OP", "|".join(map(re.escape, _MULTI_OPS)) + f"|[{re.escape(_SINGLE_OPS)}]"),
    ("ERROR", r"[\s\S]"),
    ("END", r"\Z"),
]))
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPED = {"n": "\n", "t": "\t"}


class MlsSyntaxError(MlsError):
    def __init__(self, message, loc=None, incomplete=False):
        super().__init__(message, loc)
        self.incomplete = incomplete


@dataclass(slots=True)
class Token:
    type: str  # NUM INT STR SYM KW OP EOF
    text: str
    value: object
    line: int
    col: int
    after_newline: bool

    @property
    def loc(self):
        return (self.line, self.col)


def tokenize(source: str) -> list:
    tokens = []
    line, line_start = 1, 0
    # newlines separate statements except inside ( ) and [ ]; braces restore it
    brackets = []
    after_newline = False
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        col = start - line_start + 1
        if kind == "NEWLINE":
            if not brackets or brackets[-1] == "{":
                after_newline = True
            line, line_start = line + 1, start + 1
            continue
        if kind == "END":
            break
        text = m[kind]
        value = text
        if kind == "SYM":
            if not (text[0].isalpha() or text[0] in "._"):
                raise MlsSyntaxError(f"unexpected character {text[0]!r}", (line, col))
            if text in syntax.KEYWORDS:
                kind = "KW"
        elif kind == "OP":
            if text in "([{":
                brackets.append(text)
            elif text in ")]}" and brackets:
                brackets.pop()
        elif kind == "NUM":
            if text.isdigit():
                try:
                    kind, value = "INT", int(text)
                except ValueError:  # more digits than the host converts
                    raise MlsSyntaxError(
                        f"integer literal too long ({len(text)} digits)", (line, col)
                    ) from None
                if value > values.INT_MAX:
                    raise MlsSyntaxError("integer literal too large", (line, col))
            else:
                value = float(text)
        elif kind == "STR":
            value = _ESCAPE.sub(lambda e: _ESCAPED.get(e[1], e[1]), text[1:-1])
        elif kind == "QUOTED":
            kind = "SYM"
            text = value = text[1:-1]
            if not text:
                raise MlsSyntaxError("empty quoted name", (line, col))
        elif text in "\"'":
            raise MlsSyntaxError("unterminated string constant", (line, col), incomplete=True)
        elif text == "`":
            raise MlsSyntaxError("unterminated quoted name", (line, col))
        else:
            raise MlsSyntaxError(f"unexpected character {text!r}", (line, col))
        tokens.append(Token(kind, text, value, line, col, after_newline))
        after_newline = False
        if kind == "STR" and "\n" in text:
            line, line_start = line + text.count("\n"), start + text.rindex("\n") + 1
    tokens.append(Token("EOF", "", None, line, col, after_newline))
    return tokens


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]  # the current token; hot paths test it inline

    def peek(self) -> Token:
        return self.tok

    def advance(self) -> Token:
        tok = self.tok
        if tok.type != "EOF":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def at(self, type_, text=None) -> bool:
        tok = self.tok
        return tok.type == type_ and (text is None or tok.text == text)

    def expect(self, type_, text=None) -> Token:
        tok = self.tok
        if not self.at(type_, text):
            what = text or type_
            raise MlsSyntaxError(
                f"expected {what!r} but found {tok.text or 'end of input'!r}",
                tok.loc,
                incomplete=(tok.type == "EOF"),
            )
        return self.advance()

    def error_here(self, message):
        tok = self.tok
        raise MlsSyntaxError(message, tok.loc, incomplete=(tok.type == "EOF"))

    # -- statement sequencing ------------------------------------------------

    def parse_program(self):
        exprs = []
        while True:
            self.skip_separators()
            if self.at("EOF"):
                return exprs
            exprs.append(self.expression())
            if not (self.at("EOF") or self.at("OP", ";") or self.tok.after_newline):
                self.error_here(f"unexpected token {self.tok.text or 'end of input'!r}")

    def skip_separators(self):
        while self.at("OP", ";"):
            self.advance()

    # -- expressions ---------------------------------------------------------

    def expression(self):
        left = self.operand(0)
        tok = self.tok
        if tok.type == "OP" and tok.text in ("<-", "<<-") and not tok.after_newline:
            self.advance()
            value = self.expression()  # right-associative
            return self.make_assignment(left, value, tok)
        if tok.type == "OP" and tok.text == "=" and not tok.after_newline:
            raise MlsSyntaxError(
                "'=' is only valid for named arguments; use '<-' for assignment", tok.loc
            )
        return left

    def make_assignment(self, target, value, op_tok):
        loc = target.loc
        if op_tok.text == "<<-":
            if not isinstance(target, syntax.Symbol):
                raise MlsSyntaxError("invalid superassignment target", op_tok.loc)
            return syntax.SuperAssign(target, value, loc=loc)
        if isinstance(target, syntax.Symbol):
            return syntax.Assign(target, value, loc=loc)
        if isinstance(target, syntax.Index):
            if not isinstance(target.obj, syntax.Symbol):
                raise MlsSyntaxError(
                    "indexed assignment requires a named object", op_tok.loc
                )
            return syntax.IndexAssign(target.obj, target.indices, value, loc=loc)
        if isinstance(target, syntax.FieldAccess):
            return syntax.FieldAssign(target.obj, target.name, value, loc=loc)
        raise MlsSyntaxError("invalid assignment target", op_tok.loc)

    def operand(self, min_prec):
        """Precedence climbing: the longest expression whose operators all
        bind at least as tightly as `min_prec`.  A binary operator must
        start on its left operand's line."""
        tok = self.tok
        prec = syntax.PREFIX_PRECEDENCE.get(tok.text) if tok.type == "OP" else None
        if prec is not None and prec >= min_prec:
            self.advance()
            inner = self.operand(prec)
            left = syntax.Call(syntax.Symbol(tok.text, loc=tok.loc), [(None, inner)], loc=tok.loc)
        else:
            left = self.postfix()
        while True:
            tok = self.tok
            if tok.type != "OP" or tok.after_newline:
                return left
            prec = syntax.BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.operand(prec + 1)
            left = syntax.Call(
                syntax.Symbol(tok.text, loc=tok.loc), [(None, left), (None, right)], loc=left.loc
            )

    def postfix(self):
        expr = self.primary()
        while True:
            tok = self.tok
            if tok.type != "OP" or tok.after_newline:
                # a call/index/field suffix must start on the callee's line
                return expr
            text = tok.text
            if text == "(":
                self.advance()
                expr = syntax.Call(expr, self.call_args(), loc=expr.loc)
            elif text == "[":
                self.advance()
                if self.at("OP", "]"):
                    raise MlsSyntaxError("missing index", tok.loc)
                indices = [self.expression()]
                while self.at("OP", ","):
                    self.advance()
                    indices.append(self.expression())
                self.expect("OP", "]")
                expr = syntax.Index(expr, indices, loc=expr.loc)
            elif text == "$":
                self.advance()
                name_tok = self.tok
                if name_tok.type not in ("SYM", "STR"):
                    self.error_here("expected a field name after '$'")
                self.advance()
                expr = syntax.FieldAccess(expr, str(name_tok.value), loc=expr.loc)
            else:
                return expr

    def call_args(self):
        args = []
        if self.at("OP", ")"):
            self.advance()
            return args
        while True:
            name = None
            tok = self.tok
            if tok.type == "SYM":
                after = self.tokens[self.pos + 1]
                if after.type == "OP" and after.text == "=":
                    name = tok.value
                    self.advance()
                    self.advance()
            args.append((name, self.expression()))
            if self.at("OP", ","):
                self.advance()
                continue
            self.expect("OP", ")")
            return args

    def primary(self):
        tok = self.tok
        if tok.type == "SYM":
            self.advance()
            return syntax.Symbol(tok.value, loc=tok.loc)
        if tok.type == "INT":
            self.advance()
            return syntax.Constant(values.scalar_int(tok.value), loc=tok.loc)
        if tok.type == "NUM":
            self.advance()
            return syntax.Constant(values.scalar_double(tok.value), loc=tok.loc)
        if tok.type == "STR":
            self.advance()
            return syntax.Constant(values.scalar_string(tok.value), loc=tok.loc)
        if tok.type == "KW":
            if tok.text == "TRUE":
                self.advance()
                return syntax.Constant(values.scalar_bool(True), loc=tok.loc)
            if tok.text == "FALSE":
                self.advance()
                return syntax.Constant(values.scalar_bool(False), loc=tok.loc)
            if tok.text == "NULL":
                self.advance()
                return syntax.Constant(values.null_value(), loc=tok.loc)
            if tok.text == "function":
                return self.function_literal()
            if tok.text == "if":
                return self.if_expr()
            if tok.text == "while":
                return self.while_expr()
            self.error_here(f"unexpected keyword {tok.text!r}")
        if tok.type == "OP" and tok.text == "(":
            self.advance()
            inner = self.expression()
            self.expect("OP", ")")
            return inner
        if tok.type == "OP" and tok.text == "{":
            return self.block()
        self.error_here(f"unexpected token {tok.text or 'end of input'!r}")

    def function_literal(self):
        start = self.expect("KW", "function")
        self.expect("OP", "(")
        formals = []
        seen = set()
        if not self.at("OP", ")"):
            while True:
                name_tok = self.tok
                if name_tok.type != "SYM":
                    self.error_here("expected a formal argument name")
                self.advance()
                if name_tok.value in seen:
                    raise MlsSyntaxError(
                        f"duplicated formal argument '{name_tok.value}'", name_tok.loc
                    )
                seen.add(name_tok.value)
                default = None
                if self.at("OP", "="):
                    self.advance()
                    default = self.expression()
                formals.append((name_tok.value, default))
                if self.at("OP", ","):
                    self.advance()
                    continue
                break
        self.expect("OP", ")")
        body = self.expression()
        return syntax.FunctionLiteral(formals, body, loc=start.loc)

    def if_expr(self):
        start = self.expect("KW", "if")
        self.expect("OP", "(")
        cond = self.expression()
        self.expect("OP", ")")
        then = self.expression()
        orelse = None
        if self.at("KW", "else"):
            self.advance()
            orelse = self.expression()
        return syntax.If(cond, then, orelse, loc=start.loc)

    def while_expr(self):
        start = self.expect("KW", "while")
        self.expect("OP", "(")
        cond = self.expression()
        self.expect("OP", ")")
        body = self.expression()
        return syntax.While(cond, body, loc=start.loc)

    def block(self):
        start = self.expect("OP", "{")
        body = []
        while True:
            self.skip_separators()
            if self.at("OP", "}"):
                self.advance()
                return syntax.Block(body, loc=start.loc)
            if self.at("EOF"):
                raise MlsSyntaxError("unexpected end of input in block", self.tok.loc, incomplete=True)
            body.append(self.expression())
            if self.at("OP", "}"):
                continue
            if not (self.at("OP", ";") or self.tok.after_newline):
                self.error_here(f"unexpected token {self.tok.text or 'end of input'!r}")


HOST_RECURSION_LIMIT = 24_000  # the reader takes 4 or 5 host frames per level of nesting


class deep_host_stack:
    """Raise the host recursion limit to HOST_RECURSION_LIMIT inside `with`."""

    def __enter__(self):
        self.previous = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self.previous, HOST_RECURSION_LIMIT))

    def __exit__(self, *exc_info):
        sys.setrecursionlimit(self.previous)


def parse_program(source: str) -> list:
    """Parse source text into a list of top-level expressions.  Nesting
    deeper than the host stack allows is a syntax error at the token
    where the parser gave up."""
    parser = Parser(tokenize(source))
    try:
        with deep_host_stack():
            return parser.parse_program()
    except RecursionError:
        raise MlsSyntaxError("expression nested too deeply", parser.peek().loc) from None


def parse_one(source: str) -> syntax.Expr:
    exprs = parse_program(source)
    if len(exprs) != 1:
        raise MlsSyntaxError(f"expected a single expression, found {len(exprs)}")
    return exprs[0]
