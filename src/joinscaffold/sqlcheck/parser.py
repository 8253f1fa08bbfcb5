"""Recursive-descent parser for the validated SQL subset.

Subset: a single SELECT block with joins, WHERE, GROUP BY, HAVING, ORDER BY,
LIMIT, aggregates, CASE expressions, arithmetic, and table/column aliases.
Out-of-subset constructs (CTEs, subqueries, window functions, UNNEST, set
operations) raise :class:`ParseError` with ``kind="unsupported"`` and the
offending span, so callers can fall back to execution-only validation;
malformed text raises ``kind="syntax"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

_KEYWORDS = {
    "SELECT", "DISTINCT", "ALL", "AS", "FROM", "JOIN", "INNER", "LEFT", "RIGHT",
    "FULL", "OUTER", "CROSS", "NATURAL", "ON", "USING", "WHERE", "GROUP", "BY",
    "HAVING", "ORDER", "ASC", "DESC", "LIMIT", "OFFSET", "AND", "OR", "NOT",
    "IS", "NULL", "IN", "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE",
    "END", "TRUE", "FALSE", "UNION", "INTERSECT", "EXCEPT", "WITH", "OVER",
    "UNNEST", "EXISTS", "CAST",
}

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

# Deepest expression nesting (parentheses, CASE, CAST, function arguments,
# prefix NOT and signs) the recursive descent accepts; deeper input would
# exhaust the interpreter's stack, so it is reported as unsupported.
MAX_NESTING = 50

# Deepest expression tree (each operator, operand, argument and CASE branch is
# one level below its parent) one top-level expression may form. Operator
# chains such as ``a + a + ... + a`` are built by loops, not recursion, so
# MAX_NESTING does not bound them; but the dataclass ``repr`` and ``==`` of
# the tree recurse once per level and exhaust the default interpreter stack
# at 270-330 levels (nested CASE costs the most), so a deeper expression is
# reported as unsupported.
MAX_EXPRESSION_DEPTH = 150


class ParseError(Exception):
    """Parse failure; ``kind`` is ``"syntax"`` or ``"unsupported"``."""

    def __init__(self, message: str, offset: int, kind: str = "syntax"):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset
        self.kind = kind


class Token(NamedTuple):
    kind: str  # KEYWORD, IDENT, NUMBER, STRING, OP, EOF
    value: str
    offset: int


# As in SQLite: ASCII-only spaces and digits; any non-ASCII character is name text.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\n\f\r]+|--[^\n]*|/\*.*?\*/)
  | (?P<string>'(?:[^']|'')*')
  | (?P<qident>"[^"]*"|`[^`]*`|\[[^\]]*\])
  | (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+)
  | (?P<word>[A-Za-z_\u0080-\U0010ffff][A-Za-z0-9_$\u0080-\U0010ffff]*)
  | (?P<op>>=|<=|<>|!=|\|\||[=><+\-*/%(),.;])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, then two EOF tokens: one token past the end is EOF too."""
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    end = len(text)
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        group = m.lastgroup
        if group != "ws":
            value = m.group()
            if group == "word":
                upper = value.upper()  # maps ``ſ`` to ``S``; SQLite keywords are ASCII
                if value.isascii() and upper in _KEYWORDS:
                    append(Token("KEYWORD", upper, pos))
                else:
                    append(Token("IDENT", value, pos))
            elif group == "qident":
                append(Token("IDENT", value[1:-1], pos))
            elif group == "string":
                append(Token("STRING", value[1:-1].replace("''", "'"), pos))
            elif group == "number":
                append(Token("NUMBER", value, pos))
            else:
                append(Token("OP", value, pos))
        pos = m.end()
    eof = Token("EOF", "", end)
    tokens += (eof, eof)
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Expr = Union[
    "ColumnRef", "Star", "Literal", "FuncCall", "BinaryOp", "UnaryOp",
    "CaseExpr", "BetweenOp", "IsNull", "InOp", "LikeOp", "CastExpr",
]


@dataclass(frozen=True)
class ColumnRef:
    qualifier: Optional[str]
    name: str

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star:
    qualifier: Optional[str] = None


@dataclass(frozen=True)
class Literal:
    kind: str  # number, string, null, bool
    value: object


@dataclass(frozen=True)
class FuncCall:
    name: str  # upper-cased
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False

    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp:
    op: str
    operand: Expr


@dataclass(frozen=True)
class CaseExpr:
    whens: tuple[tuple[Expr, Expr], ...]
    else_: Optional[Expr] = None


@dataclass(frozen=True)
class BetweenOp:
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull:
    expr: Expr
    negated: bool = False  # True for IS NOT NULL


@dataclass(frozen=True)
class InOp:
    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class LikeOp:
    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class CastExpr:
    expr: Expr
    target_type: str


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None
    schema_prefix: Optional[str] = None

    def binding_name(self) -> str:
        return self.alias if self.alias else self.name


@dataclass(frozen=True)
class Join:
    join_type: str  # INNER, LEFT, RIGHT, FULL, CROSS
    table: TableRef
    condition: Optional[Expr] = None


@dataclass(frozen=True)
class Query:
    select_items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    joins: tuple[Join, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[tuple[Expr, str], ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    def all_tables(self) -> tuple[TableRef, ...]:
        return self.from_tables + tuple(j.table for j in self.joins)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` (0 or 1) places on; ``advance`` stops at the first EOF."""
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        expected = value or kind
        raise ParseError(f"expected {expected}, found {tok.value or 'end of input'!r}", tok.offset)

    def unsupported(self, construct: str, offset: int) -> ParseError:
        return ParseError(f"unsupported construct: {construct}", offset, kind="unsupported")

    def descend(self, parse: Callable[[], Expr]) -> Expr:
        """``parse()`` one nesting level further down."""
        if self.depth == MAX_NESTING:
            raise self.unsupported(
                f"expression nested deeper than {MAX_NESTING} levels", self.peek().offset
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # -- entry -------------------------------------------------------------

    def parse_query(self) -> Query:
        first = self.peek()
        if first.kind == "KEYWORD" and first.value == "WITH":
            raise self.unsupported("common table expression (WITH)", first.offset)
        self.expect("KEYWORD", "SELECT")
        distinct = bool(self.accept("KEYWORD", "DISTINCT"))
        self.accept("KEYWORD", "ALL")
        select_items = [self.parse_select_item()]
        while self.accept("OP", ","):
            select_items.append(self.parse_select_item())
        self.expect("KEYWORD", "FROM")
        from_tables = [self.parse_table_ref()]
        while self.accept("OP", ","):
            from_tables.append(self.parse_table_ref())
        joins = []
        while True:
            join = self.parse_join()
            if join is None:
                break
            joins.append(join)
        where = self.parse_expr() if self.accept("KEYWORD", "WHERE") else None
        group_by: list = []
        if self.accept("KEYWORD", "GROUP"):
            self.expect("KEYWORD", "BY")
            group_by.append(self.parse_expr())
            while self.accept("OP", ","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept("KEYWORD", "HAVING") else None
        order_by: list = []
        if self.accept("KEYWORD", "ORDER"):
            self.expect("KEYWORD", "BY")
            order_by.append(self.parse_order_item())
            while self.accept("OP", ","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept("KEYWORD", "LIMIT"):
            limit = int(self.expect("NUMBER").value)
            if self.accept("KEYWORD", "OFFSET"):
                self.expect("NUMBER")
        self.accept("OP", ";")
        tail = self.peek()
        if tail.kind != "EOF":
            if tail.kind == "KEYWORD" and tail.value in ("UNION", "INTERSECT", "EXCEPT"):
                raise self.unsupported(f"set operation ({tail.value})", tail.offset)
            raise ParseError(f"unexpected trailing input {tail.value!r}", tail.offset)
        return Query(
            select_items=tuple(select_items),
            from_tables=tuple(from_tables),
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def parse_select_item(self) -> SelectItem:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "*":
            self.advance()
            return SelectItem(Star(), None)
        expr = self.parse_expr()
        alias = None
        if self.accept("KEYWORD", "AS"):
            alias = self.expect("IDENT").value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return SelectItem(expr, alias)

    def parse_table_ref(self) -> TableRef:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "(":
            nxt = self.peek(1)
            if nxt.kind == "KEYWORD" and nxt.value in ("SELECT", "WITH"):
                raise self.unsupported("subquery in FROM", tok.offset)
            raise ParseError("expected table name", tok.offset)
        if tok.kind == "KEYWORD" and tok.value == "UNNEST":
            raise self.unsupported("UNNEST", tok.offset)
        name_tok = self.expect("IDENT")
        parts = [name_tok.value]
        while self.peek().kind == "OP" and self.peek().value == ".":
            self.advance()
            parts.append(self.expect("IDENT").value)
        schema_prefix = ".".join(parts[:-1]) if len(parts) > 1 else None
        alias = None
        if self.accept("KEYWORD", "AS"):
            alias = self.expect("IDENT").value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return TableRef(parts[-1], alias, schema_prefix)

    def parse_join(self) -> Optional[Join]:
        tok = self.peek()
        if tok.kind != "KEYWORD":
            return None
        join_type = "INNER"
        start = self.pos
        if tok.value in ("INNER", "LEFT", "RIGHT", "FULL", "CROSS"):
            join_type = tok.value
            self.advance()
            self.accept("KEYWORD", "OUTER")
            if not self.accept("KEYWORD", "JOIN"):
                self.pos = start
                return None
        elif tok.value == "JOIN":
            self.advance()
        elif tok.value == "NATURAL":
            raise self.unsupported("NATURAL JOIN", tok.offset)
        else:
            return None
        table = self.parse_table_ref()
        condition = None
        if self.accept("KEYWORD", "ON"):
            condition = self.parse_expr()
        elif self.accept("KEYWORD", "USING"):
            raise self.unsupported("JOIN ... USING", self.peek().offset)
        return Join(join_type, table, condition)

    def parse_order_item(self) -> tuple[Expr, str]:
        expr = self.parse_expr()
        direction = "ASC"
        if self.accept("KEYWORD", "ASC"):
            direction = "ASC"
        elif self.accept("KEYWORD", "DESC"):
            direction = "DESC"
        return (expr, direction)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        if self.depth:
            return self.descend(self.parse_or)
        start = self.peek().offset
        expr = self.descend(self.parse_or)
        if expression_depth(expr) > MAX_EXPRESSION_DEPTH:
            raise self.unsupported(
                f"expression deeper than {MAX_EXPRESSION_DEPTH} levels", start
            )
        return expr

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept("KEYWORD", "OR"):
            left = BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept("KEYWORD", "AND"):
            left = BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept("KEYWORD", "NOT"):
            return UnaryOp("NOT", self.descend(self.parse_not))
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if tok.value == "<>" else tok.value
            return BinaryOp(op, left, self.parse_additive())
        if tok.kind == "KEYWORD" and tok.value == "IS":
            self.advance()
            negated = bool(self.accept("KEYWORD", "NOT"))
            self.expect("KEYWORD", "NULL")
            return IsNull(left, negated)
        negated = False
        if tok.kind == "KEYWORD" and tok.value == "NOT":
            nxt = self.peek(1)
            if nxt.kind == "KEYWORD" and nxt.value in ("BETWEEN", "IN", "LIKE"):
                self.advance()
                negated = True
                tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == "BETWEEN":
            self.advance()
            low = self.parse_additive()
            self.expect("KEYWORD", "AND")
            high = self.parse_additive()
            return BetweenOp(left, low, high, negated)
        if tok.kind == "KEYWORD" and tok.value == "IN":
            self.advance()
            paren = self.expect("OP", "(")
            if self.peek().kind == "KEYWORD" and self.peek().value == "SELECT":
                raise self.unsupported("subquery in IN", paren.offset)
            items = [self.parse_additive()]
            while self.accept("OP", ","):
                items.append(self.parse_additive())
            self.expect("OP", ")")
            return InOp(left, tuple(items), negated)
        if tok.kind == "KEYWORD" and tok.value == "LIKE":
            self.advance()
            return LikeOp(left, self.parse_additive(), negated)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in ("+", "-", "||"):
                self.advance()
                left = BinaryOp(tok.value, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in ("*", "/", "%"):
                self.advance()
                left = BinaryOp(tok.value, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ("-", "+"):
            self.advance()
            return UnaryOp(tok.value, self.descend(self.parse_unary))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            value = float(tok.value) if any(c in tok.value for c in ".eE") else int(tok.value)
            return Literal("number", value)
        if tok.kind == "STRING":
            self.advance()
            return Literal("string", tok.value)
        if tok.kind == "KEYWORD":
            if tok.value == "NULL":
                self.advance()
                return Literal("null", None)
            if tok.value in ("TRUE", "FALSE"):
                self.advance()
                return Literal("bool", tok.value == "TRUE")
            if tok.value == "CASE":
                return self.parse_case()
            if tok.value == "CAST":
                return self.parse_cast()
            if tok.value == "EXISTS":
                raise self.unsupported("EXISTS", tok.offset)
            raise ParseError(f"unexpected keyword {tok.value}", tok.offset)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            if self.peek().kind == "KEYWORD" and self.peek().value in ("SELECT", "WITH"):
                raise self.unsupported("subquery", tok.offset)
            expr = self.parse_expr()
            self.expect("OP", ")")
            return expr
        if tok.kind == "IDENT":
            return self.parse_identifier_expr()
        raise ParseError(f"unexpected token {tok.value!r}", tok.offset)

    def parse_case(self) -> Expr:
        self.expect("KEYWORD", "CASE")
        whens = []
        while self.accept("KEYWORD", "WHEN"):
            cond = self.parse_expr()
            self.expect("KEYWORD", "THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            raise ParseError("CASE requires at least one WHEN", self.peek().offset)
        else_ = self.parse_expr() if self.accept("KEYWORD", "ELSE") else None
        self.expect("KEYWORD", "END")
        return CaseExpr(tuple(whens), else_)

    def parse_cast(self) -> Expr:
        self.expect("KEYWORD", "CAST")
        self.expect("OP", "(")
        expr = self.parse_expr()
        self.expect("KEYWORD", "AS")
        type_parts = [self.expect("IDENT").value]
        while self.peek().kind == "IDENT":
            type_parts.append(self.advance().value)
        if self.accept("OP", "("):
            while not self.accept("OP", ")"):
                self.advance()
        self.expect("OP", ")")
        return CastExpr(expr, " ".join(type_parts))

    def parse_identifier_expr(self) -> Expr:
        name_tok = self.expect("IDENT")
        if self.peek().kind == "OP" and self.peek().value == "(":
            self.advance()
            distinct = bool(self.accept("KEYWORD", "DISTINCT"))
            star = False
            args: list[Expr] = []
            if self.peek().kind == "OP" and self.peek().value == "*":
                self.advance()
                star = True
            elif not (self.peek().kind == "OP" and self.peek().value == ")"):
                args.append(self.parse_expr())
                while self.accept("OP", ","):
                    args.append(self.parse_expr())
            self.expect("OP", ")")
            over = self.peek()
            if over.kind == "KEYWORD" and over.value == "OVER":
                raise self.unsupported("window function (OVER)", over.offset)
            return FuncCall(name_tok.value.upper(), tuple(args), distinct, star)
        parts = [name_tok.value]
        while self.peek().kind == "OP" and self.peek().value == ".":
            if self.peek(1).kind == "OP" and self.peek(1).value == "*":
                self.advance()
                self.advance()
                return Star(qualifier=parts[-1])
            if self.peek(1).kind != "IDENT":
                break
            self.advance()
            parts.append(self.expect("IDENT").value)
        if len(parts) == 1:
            return ColumnRef(None, parts[0])
        return ColumnRef(parts[-2], parts[-1])


def parse_sql(text: str) -> Query:
    """Parse ``text`` into a :class:`Query`; raises :class:`ParseError`."""
    if not text or not text.strip():
        raise ParseError("empty SQL text", 0)
    return _Parser(text).parse_query()


# ---------------------------------------------------------------------------
# AST walking helpers used by the validators
# ---------------------------------------------------------------------------


def _children(node) -> tuple:
    """The direct sub-expressions of an AST node, in source order."""
    if isinstance(node, BinaryOp):
        return (node.left, node.right)
    if isinstance(node, FuncCall):
        return node.args
    if isinstance(node, CaseExpr):
        branches = tuple(part for when in node.whens for part in when)
        return branches if node.else_ is None else (*branches, node.else_)
    if isinstance(node, BetweenOp):
        return (node.expr, node.low, node.high)
    if isinstance(node, InOp):
        return (node.expr, *node.items)
    if isinstance(node, LikeOp):
        return (node.expr, node.pattern)
    if isinstance(node, UnaryOp):
        return (node.operand,)
    if isinstance(node, (IsNull, CastExpr)):
        return (node.expr,)
    return ()


def walk(node) -> list:
    """All AST nodes under (and including) ``node``, pre-order."""
    out = []
    stack = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(reversed(_children(current)))
    return out


def expression_depth(node) -> int:
    """Nodes on the longest path from ``node`` down to a leaf."""
    deepest = 0
    stack = [(node, 1)]
    while stack:
        current, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in _children(current))
    return deepest


def columns_in(node) -> list[ColumnRef]:
    return [n for n in walk(node) if isinstance(n, ColumnRef)]


def aggregates_in(node) -> list[FuncCall]:
    return [n for n in walk(node) if isinstance(n, FuncCall) and n.is_aggregate()]
