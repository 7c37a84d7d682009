"""Tokenizer and parser for MLS source text.

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

from dataclasses import dataclass

from . import syntax, values
from .values import MlsError

_MULTI_OPS = ["<<-", "<-", "<=", ">=", "==", "!=", "&&", "||"]
_SINGLE_OPS = "+-*/<>!=(){}[],;$"


class MlsSyntaxError(MlsError):
    def __init__(self, message, loc=None, incomplete=False):
        super().__init__(message, loc)
        self.incomplete = incomplete


@dataclass
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


# Only ASCII digits make numbers: str.isdigit() also accepts characters
# such as "²" that int() and float() reject.
_DIGITS = frozenset("0123456789")


def _is_sym_start(ch):
    return ch.isalpha() or ch in "._"


def _is_sym_part(ch):
    return ch.isalnum() or ch in "._"


def tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    # newlines separate statements except inside ( ) and [ ]; braces restore it
    brackets = []
    after_newline = False

    def emit(type_, text, value=None, tline=None, tcol=None):
        nonlocal after_newline
        tokens.append(Token(type_, text, value, tline or line, tcol or col, after_newline))
        after_newline = False

    while i < n:
        ch = source[i]
        if ch == "\n":
            if not brackets or brackets[-1] == "{":
                after_newline = True
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            is_double = False
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                is_double = True
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    is_double = True
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            text = source[i:j]
            if is_double or text.startswith("."):
                emit("NUM", text, float(text), start_line, start_col)
            else:
                emit("INT", text, int(text), start_line, start_col)
            col += j - i
            i = j
            continue
        if ch in "\"'":
            quote = ch
            j = i + 1
            buf = []
            closed = False
            while j < n:
                c = source[j]
                if c == "\\":
                    if j + 1 >= n:
                        break
                    esc = source[j + 1]
                    if esc == "\n":
                        line += 1
                    buf.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}.get(esc, esc))
                    j += 2
                    continue
                if c == quote:
                    closed = True
                    break
                if c == "\n":
                    line += 1
                buf.append(c)
                j += 1
            if not closed:
                raise MlsSyntaxError(
                    "unterminated string constant", (start_line, start_col), incomplete=True
                )
            text = source[i : j + 1]
            emit("STR", text, "".join(buf), start_line, start_col)
            last_nl = text.rfind("\n")
            if last_nl >= 0:
                col = len(text) - last_nl
            else:
                col += len(text)
            i = j + 1
            continue
        if ch == "`":
            j = i + 1
            while j < n and source[j] not in "`\n":
                j += 1
            if j >= n or source[j] != "`":
                raise MlsSyntaxError("unterminated quoted name", (start_line, start_col))
            name = source[i + 1 : j]
            if not name:
                raise MlsSyntaxError("empty quoted name", (start_line, start_col))
            emit("SYM", name, name, start_line, start_col)
            col += j + 1 - i
            i = j + 1
            continue
        if _is_sym_start(ch):
            j = i
            while j < n and _is_sym_part(source[j]):
                j += 1
            text = source[i:j]
            emit("KW" if text in syntax.KEYWORDS else "SYM", text, text, start_line, start_col)
            col += j - i
            i = j
            continue
        matched = None
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                matched = op
                break
        if matched is None and ch in _SINGLE_OPS:
            matched = ch
        if matched is None:
            raise MlsSyntaxError(f"unexpected character {ch!r}", (line, col))
        if matched in "([{":
            brackets.append(matched)
        elif matched in ")]}":
            if brackets:
                brackets.pop()
        emit("OP", matched, matched, start_line, start_col)
        col += len(matched)
        i += len(matched)
        continue

    emit("EOF", "")
    return tokens


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def at(self, type_, text=None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (text is None or tok.text == text)

    def expect(self, type_, text=None) -> Token:
        tok = self.peek()
        if not self.at(type_, text):
            what = text or type_
            raise MlsSyntaxError(
                f"expected {what!r} but found {tok.text or 'end of input'!r}",
                tok.loc,
                incomplete=(tok.type == "EOF"),
            )
        return self.advance()

    def error_here(self, message):
        tok = self.peek()
        raise MlsSyntaxError(message, tok.loc, incomplete=(tok.type == "EOF"))

    # -- statement sequencing ------------------------------------------------

    def parse_program(self):
        exprs = []
        while True:
            self.skip_separators()
            if self.at("EOF"):
                return exprs
            exprs.append(self.expression())
            if not (self.at("EOF") or self.at("OP", ";") or self.peek().after_newline):
                self.error_here(f"unexpected token {self.peek().text!r}")

    def skip_separators(self):
        while self.at("OP", ";"):
            self.advance()

    # -- expressions ---------------------------------------------------------

    def expression(self):
        left = self.operand(0)
        tok = self.peek()
        if tok.type == "OP" and tok.text in ("<-", "<<-") and not tok.after_newline:
            op = self.advance()
            value = self.expression()  # right-associative
            return self.make_assignment(left, value, op)
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
        tok = self.peek()
        prec = syntax.PREFIX_PRECEDENCE.get(tok.text) if tok.type == "OP" else None
        if prec is not None and prec >= min_prec:
            self.advance()
            inner = self.operand(prec)
            left = syntax.Call(syntax.Symbol(tok.text, loc=tok.loc), [(None, inner)], loc=tok.loc)
        else:
            left = self.postfix()
        while True:
            tok = self.peek()
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
            tok = self.peek()
            if tok.type != "OP" or tok.after_newline:
                # a call/index/field suffix must start on the callee's line
                return expr
            if self.at("OP", "("):
                self.advance()
                args = self.call_args()
                expr = syntax.Call(expr, args, loc=expr.loc)
            elif self.at("OP", "["):
                open_tok = self.advance()
                indices = []
                if self.at("OP", "]"):
                    raise MlsSyntaxError("missing index", open_tok.loc)
                indices.append(self.expression())
                while self.at("OP", ","):
                    self.advance()
                    indices.append(self.expression())
                self.expect("OP", "]")
                expr = syntax.Index(expr, indices, loc=expr.loc)
            elif self.at("OP", "$"):
                self.advance()
                name_tok = self.peek()
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
            tok = self.peek()
            if tok.type == "SYM" and self.tokens[self.pos + 1].type == "OP" and self.tokens[
                self.pos + 1
            ].text == "=":
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
        tok = self.peek()
        if tok.type == "INT":
            self.advance()
            return syntax.Constant(values.scalar_int(tok.value), loc=tok.loc)
        if tok.type == "NUM":
            self.advance()
            return syntax.Constant(values.scalar_double(tok.value), loc=tok.loc)
        if tok.type == "STR":
            self.advance()
            return syntax.Constant(values.scalar_string(tok.value), loc=tok.loc)
        if tok.type == "SYM":
            self.advance()
            return syntax.Symbol(tok.value, loc=tok.loc)
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
        if self.at("OP", "("):
            self.advance()
            inner = self.expression()
            self.expect("OP", ")")
            return inner
        if self.at("OP", "{"):
            return self.block()
        self.error_here(f"unexpected token {tok.text or 'end of input'!r}")

    def function_literal(self):
        start = self.expect("KW", "function")
        self.expect("OP", "(")
        formals = []
        seen = set()
        if not self.at("OP", ")"):
            while True:
                name_tok = self.peek()
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
                raise MlsSyntaxError("unexpected end of input in block", self.peek().loc, incomplete=True)
            body.append(self.expression())
            if self.at("OP", "}"):
                continue
            if not (self.at("OP", ";") or self.peek().after_newline):
                self.error_here(f"unexpected token {self.peek().text!r}")


def parse_program(source: str) -> list:
    """Parse source text into a list of top-level expressions.  Nesting
    deeper than the host stack allows is a syntax error at the token
    where the parser gave up."""
    parser = Parser(tokenize(source))
    try:
        return parser.parse_program()
    except RecursionError:
        raise MlsSyntaxError("expression nested too deeply", parser.peek().loc) from None


def parse_one(source: str) -> syntax.Expr:
    exprs = parse_program(source)
    if len(exprs) != 1:
        raise MlsSyntaxError(f"expected a single expression, found {len(exprs)}")
    return exprs[0]
