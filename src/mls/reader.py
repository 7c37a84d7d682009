"""Tokenizer and parser for MLS source text.

The lexical grammar is one master regex, `_TOKEN`, with a named
alternative per token class (the "Writing a Tokenizer" example in
Python's `re` documentation).  Blanks and a comment are not tokens of
their own: `_TOKEN` takes them in a prefix before the alternatives, so
`tokenize` makes one match per token, reads its class from `lastgroup`
and its column from where that group starts.  The `END` alternative
matches the end of the text.  Each token is a plain tuple
`(type, text, value, loc, after_newline)`, read through the index
constants `TYPE` to `AFTER_NEWLINE`; `loc` is the `(line, col)` tuple
that every node built from the token shares.

The grammar is a small R-like surface: `<-` assignment, `<<-`
superassignment, `$` field access, `[ ]` indexing, `function`
literals, `if`/`else`, `while`, and `{ }` blocks.  Newlines separate
statements except inside `( )` and `[ ]`, or when a line ends with an
incomplete expression (an unfinished operator or an open construct).
An operator is a call to the function it names.  R ranks every call
form on one precedence scale (`?Syntax`), and `Parser.operand` parses
that scale by precedence climbing (Pratt, "Top down operator
precedence", 1973) in one loop: call, index and field suffixes bind
tightest, binary operators bind by `syntax.BINARY_PRECEDENCE` and
prefix operators by `PREFIX_PRECEDENCE`, and `<-` and `<<-` bind
loosest and to the right.  `operand` builds a leaf (a name, number or
string) itself, so the common operand costs one host frame; `primary`
runs only for keywords, parentheses and blocks.

Nesting costs host frames under the scoped limit `HOST_RECURSION_LIMIT`
(24,000): one per level of indexing, prefix operators and assignment
(`operand`), so about 24,000 levels; two per level of calls (`operand`,
`call_args`) and parentheses (`operand`, `primary`), about 12,000; and
three per level of blocks, `if`, `while` and function literals
(`operand`, `primary`, and `statements` or the form's own method),
about 8,000.
"""

from __future__ import annotations

import gc
import re
import sys

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


TYPE, TEXT, VALUE, LOC, AFTER_NEWLINE = range(5)  # a token's fields; TYPE is NUM INT STR SYM KW OP EOF


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
        tokens.append((kind, text, value, (line, col), after_newline))
        after_newline = False
        if kind == "STR" and "\n" in text:
            line, line_start = line + text.count("\n"), start + text.rindex("\n") + 1
    tokens.append(("EOF", "", None, (line, col), after_newline))
    return tokens


_LEAVES = frozenset(("SYM", "INT", "NUM", "STR"))  # token types that are whole operands


class Parser:
    """`tok` is the current token and `pos` its index.  The hot paths test
    and advance them inline rather than through `at` and `advance`."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]

    def advance(self):
        tok = self.tok
        if tok[TYPE] != "EOF":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def at(self, type_, text=None) -> bool:
        tok = self.tok
        return tok[TYPE] == type_ and (text is None or tok[TEXT] == text)

    def expect(self, type_, text=None):
        if not self.at(type_, text):
            found = self.tok[TEXT] or "end of input"
            self.error_here(f"expected {text or type_!r} but found {found!r}")
        return self.advance()

    def error_here(self, message):
        tok = self.tok
        raise MlsSyntaxError(message, tok[LOC], incomplete=(tok[TYPE] == "EOF"))

    def unexpected_token(self):
        self.error_here(f"unexpected token {self.tok[TEXT] or 'end of input'!r}")

    # -- statement sequencing ------------------------------------------------

    def statements(self, closer):
        """Statements separated by newlines or `;` up to `closer`, which is
        "}" in a block and "" (the EOF token's text) at top level; a block
        consumes its "}"."""
        tokens = self.tokens
        exprs = []
        while True:
            tok = self.tok
            while tok[TYPE] == "OP" and tok[TEXT] == ";":
                self.pos += 1
                tok = self.tok = tokens[self.pos]
            if tok[TEXT] == closer:
                self.advance()
                return exprs
            if tok[TYPE] == "EOF":
                raise MlsSyntaxError("unexpected end of input in block", tok[LOC], incomplete=True)
            exprs.append(self.operand(0))
            tok = self.tok
            if not (tok[AFTER_NEWLINE] or tok[TEXT] == closer or tok[TEXT] == ";"):
                self.unexpected_token()

    # -- expressions ---------------------------------------------------------

    def make_assignment(self, target, value, op_tok):
        loc = target.loc
        if op_tok[TEXT] == "<<-":
            if not isinstance(target, syntax.Symbol):
                raise MlsSyntaxError("invalid superassignment target", op_tok[LOC])
            return syntax.SuperAssign(target, value, loc)
        if isinstance(target, syntax.Symbol):
            return syntax.Assign(target, value, loc)
        if isinstance(target, syntax.Index):
            if not isinstance(target.obj, syntax.Symbol):
                raise MlsSyntaxError(
                    "indexed assignment requires a named object", op_tok[LOC]
                )
            return syntax.IndexAssign(target.obj, target.indices, value, loc)
        if isinstance(target, syntax.FieldAccess):
            return syntax.FieldAssign(target.obj, target.name, value, loc)
        raise MlsSyntaxError("invalid assignment target", op_tok[LOC])

    def operand(self, min_prec):
        """Precedence climbing over one scale, as R ranks its call forms
        (`?Syntax`): the longest expression whose operators all bind at
        least as tightly as `min_prec`.  A leaf (a name, number or string)
        is built in this frame.  Call, index and field suffixes bind
        tightest and are taken at any `min_prec`; `<-` and `<<-` bind
        loosest and to the right, so only `min_prec` 0 takes them.  Every
        suffix and binary operator must start on its left operand's line."""
        tokens = self.tokens
        kind, text, value, loc, _ = self.tok
        prec = syntax.PREFIX_PRECEDENCE.get(text) if kind == "OP" else None
        if prec is not None and prec >= min_prec:
            self.pos += 1
            self.tok = tokens[self.pos]
            inner = self.operand(prec)
            left = syntax.Call(syntax.Symbol(text, loc), [(None, inner)], loc)
        elif kind in _LEAVES:
            self.pos += 1
            self.tok = tokens[self.pos]
            if kind == "SYM":
                left = syntax.Symbol(value, loc)
            elif kind == "INT":
                left = syntax.Constant(values.scalar_int(value), loc)
            elif kind == "NUM":
                left = syntax.Constant(values.scalar_double(value), loc)
            else:
                left = syntax.Constant(values.scalar_string(value), loc)
        else:
            left = self.primary()
        while True:
            tok = self.tok
            if tok[TYPE] != "OP" or tok[AFTER_NEWLINE]:
                return left
            text = tok[TEXT]
            prec = syntax.BINARY_PRECEDENCE.get(text)
            if prec is not None:
                if prec < min_prec:
                    return left
                self.pos += 1
                self.tok = tokens[self.pos]
                right = self.operand(prec + 1)
                left = syntax.Call(
                    syntax.Symbol(text, tok[LOC]), [(None, left), (None, right)], left.loc
                )
            elif text == "(":
                self.advance()
                left = syntax.Call(left, self.call_args(), left.loc)
            elif text == "[":
                self.advance()
                if self.at("OP", "]"):
                    raise MlsSyntaxError("missing index", tok[LOC])
                indices = [self.operand(0)]
                while self.at("OP", ","):
                    self.advance()
                    indices.append(self.operand(0))
                self.expect("OP", "]")
                left = syntax.Index(left, indices, left.loc)
            elif text == "$":
                self.advance()
                name_tok = self.tok
                if name_tok[TYPE] not in ("SYM", "STR"):
                    self.error_here("expected a field name after '$'")
                self.advance()
                left = syntax.FieldAccess(left, str(name_tok[VALUE]), left.loc)
            elif text == "<-" or text == "<<-":
                if min_prec:
                    return left
                self.advance()
                return self.make_assignment(left, self.operand(0), tok)
            elif text == "=":
                raise MlsSyntaxError(
                    "'=' is only valid for named arguments; use '<-' for assignment", tok[LOC]
                )
            else:
                return left

    def call_args(self):
        args = []
        tokens = self.tokens
        tok = self.tok
        if tok[TYPE] == "OP" and tok[TEXT] == ")":
            self.pos += 1
            self.tok = tokens[self.pos]
            return args
        while True:
            name = None
            if tok[TYPE] == "SYM":
                after = tokens[self.pos + 1]
                if after[TYPE] == "OP" and after[TEXT] == "=":
                    name = tok[VALUE]
                    self.pos += 2
                    self.tok = tokens[self.pos]
            args.append((name, self.operand(0)))
            tok = self.tok
            if tok[TYPE] == "OP":
                if tok[TEXT] == ",":
                    self.pos += 1
                    tok = self.tok = tokens[self.pos]
                    continue
                if tok[TEXT] == ")":
                    self.pos += 1
                    self.tok = tokens[self.pos]
                    return args
            self.expect("OP", ")")  # raises

    def primary(self):
        """Every operand but a leaf and a prefix operator."""
        tok = self.tok
        kind, text = tok[TYPE], tok[TEXT]
        if kind == "KW":
            if text == "TRUE":
                self.advance()
                return syntax.Constant(values.scalar_bool(True), tok[LOC])
            if text == "FALSE":
                self.advance()
                return syntax.Constant(values.scalar_bool(False), tok[LOC])
            if text == "NULL":
                self.advance()
                return syntax.Constant(values.null_value(), tok[LOC])
            if text == "function":
                return self.function_literal()
            if text == "if":
                return self.if_expr()
            if text == "while":
                return self.while_expr()
            self.error_here(f"unexpected keyword {text!r}")
        if kind == "OP" and text == "(":
            self.advance()
            inner = self.operand(0)
            self.expect("OP", ")")
            return inner
        if kind == "OP" and text == "{":
            self.advance()
            return syntax.Block(self.statements("}"), tok[LOC])
        self.unexpected_token()

    def function_literal(self):
        start = self.expect("KW", "function")
        self.expect("OP", "(")
        formals = []
        seen = set()
        if not self.at("OP", ")"):
            while True:
                name_tok = self.tok
                if name_tok[TYPE] != "SYM":
                    self.error_here("expected a formal argument name")
                self.advance()
                name = name_tok[VALUE]
                if name in seen:
                    raise MlsSyntaxError(f"duplicated formal argument '{name}'", name_tok[LOC])
                seen.add(name)
                default = None
                if self.at("OP", "="):
                    self.advance()
                    default = self.operand(0)
                formals.append((name, default))
                if self.at("OP", ","):
                    self.advance()
                    continue
                break
        self.expect("OP", ")")
        body = self.operand(0)
        return syntax.FunctionLiteral(formals, body, start[LOC])

    def if_expr(self):
        start = self.expect("KW", "if")
        self.expect("OP", "(")
        cond = self.operand(0)
        self.expect("OP", ")")
        then = self.operand(0)
        orelse = None
        if self.at("KW", "else"):
            self.advance()
            orelse = self.operand(0)
        return syntax.If(cond, then, orelse, start[LOC])

    def while_expr(self):
        start = self.expect("KW", "while")
        self.expect("OP", "(")
        cond = self.operand(0)
        self.expect("OP", ")")
        body = self.operand(0)
        return syntax.While(cond, body, start[LOC])


# The reader takes one host frame per level of nested indexing, prefix
# operators and assignment, two per level of calls and parentheses, and
# three per level of blocks, `if`, `while` and function literals: about
# 24,000, 12,000 and 8,000 levels.
HOST_RECURSION_LIMIT = 24_000


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
    where the parser gave up.

    Reading makes no reference cycle, so a cyclic collection during it
    could free nothing and would only walk the young tokens and nodes
    again and again.  The collector is paused while it reads and left as
    it was found however reading ends."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = Parser(tokenize(source))
        with deep_host_stack():
            return parser.statements("")
    except RecursionError:
        raise MlsSyntaxError("expression nested too deeply", parser.tok[LOC]) from None
    finally:
        if collecting:
            gc.enable()


def parse_one(source: str) -> syntax.Expr:
    exprs = parse_program(source)
    if len(exprs) != 1:
        raise MlsSyntaxError(f"expected a single expression, found {len(exprs)}")
    return exprs[0]
