from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from joinscaffold.sqlcheck.parser import (
    AGGREGATE_FUNCTIONS,
    MAX_EXPRESSION_DEPTH,
    MAX_NESTING,
    _KEYWORDS,
    BetweenOp,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    FuncCall,
    InOp,
    IsNull,
    Literal,
    ParseError,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
    aggregates_in,
    columns_in,
    expression_depth,
    parse_sql,
    tokenize,
    walk,
)


def test_minimal_select():
    ast = parse_sql("SELECT a FROM t")
    assert ast.select_items == (SelectItem(ColumnRef(None, "a"), None),)
    assert ast.from_tables == (TableRef("t", None, None),)
    assert ast.joins == ()


def test_golden_join_aggregate_ast():
    ast = parse_sql(
        "SELECT t1.a, SUM(t2.b) FROM t1 JOIN t2 ON t1.id=t2.id GROUP BY t1.a"
    )
    assert ast.select_items[0].expr == ColumnRef("t1", "a")
    assert ast.select_items[1].expr == FuncCall("SUM", (ColumnRef("t2", "b"),))
    join = ast.joins[0]
    assert join.table == TableRef("t2", None, None)
    assert join.condition == BinaryOp("=", ColumnRef("t1", "id"), ColumnRef("t2", "id"))
    assert ast.group_by == (ColumnRef("t1", "a"),)


def test_syntax_error_offset_zero():
    with pytest.raises(ParseError) as err:
        parse_sql("SELEC a FROM t")
    assert err.value.kind == "syntax"
    assert err.value.offset == 0


def test_empty_text_rejected():
    with pytest.raises(ParseError):
        parse_sql("   ")


@pytest.mark.parametrize(
    "sql,needle",
    [
        ("WITH x AS (SELECT 1) SELECT * FROM x", "common table expression"),
        ("SELECT a FROM (SELECT b FROM t)", "subquery"),
        ("SELECT (SELECT 1) FROM t", "subquery"),
        ("SELECT a FROM t WHERE b IN (SELECT c FROM u)", "subquery"),
        ("SELECT RANK() OVER (ORDER BY a) FROM t", "window function"),
        ("SELECT a FROM UNNEST(items)", "UNNEST"),
        ("SELECT a FROM t UNION SELECT b FROM u", "set operation"),
        ("SELECT a FROM t NATURAL JOIN u", "NATURAL JOIN"),
    ],
)
def test_unsupported_constructs(sql, needle):
    with pytest.raises(ParseError) as err:
        parse_sql(sql)
    assert err.value.kind == "unsupported"
    assert needle in err.value.message


def test_case_expression():
    ast = parse_sql(
        "SELECT CASE WHEN x >= 1 THEN 'hi' WHEN x IS NULL THEN 'lo' ELSE 'mid' END AS bucket FROM t"
    )
    expr = ast.select_items[0].expr
    assert isinstance(expr, CaseExpr)
    assert len(expr.whens) == 2
    assert expr.else_ == Literal("string", "mid")
    assert ast.select_items[0].alias == "bucket"


def test_between_and_in():
    ast = parse_sql(
        "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN ('x', 'y') AND c NOT BETWEEN 2 AND 3"
    )
    nodes = [n for n in _walk_where(ast)]
    betweens = [n for n in nodes if isinstance(n, BetweenOp)]
    ins = [n for n in nodes if isinstance(n, InOp)]
    assert len(betweens) == 2
    assert betweens[1].negated
    assert len(ins) == 1


def _walk_where(ast):
    from joinscaffold.sqlcheck.parser import walk

    return walk(ast.where)


def test_is_null_variants():
    ast = parse_sql("SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL")
    nodes = [n for n in _walk_where(ast) if isinstance(n, IsNull)]
    assert [n.negated for n in nodes] == [False, True]


def test_aliases_and_qualified_star():
    ast = parse_sql("SELECT t.*, u.name full_name FROM tbl t JOIN users AS u ON t.id = u.id")
    assert ast.select_items[0].expr == Star(qualifier="t")
    assert ast.select_items[1].alias == "full_name"
    assert ast.from_tables[0] == TableRef("tbl", "t", None)
    assert ast.joins[0].table == TableRef("users", "u", None)


def test_schema_qualified_table():
    ast = parse_sql("SELECT a FROM analytics.events e")
    ref = ast.from_tables[0]
    assert ref.name == "events"
    assert ref.schema_prefix == "analytics"
    assert ref.alias == "e"


def test_arithmetic_precedence():
    ast = parse_sql("SELECT a + b * c FROM t")
    expr = ast.select_items[0].expr
    assert expr == BinaryOp(
        "+", ColumnRef(None, "a"), BinaryOp("*", ColumnRef(None, "b"), ColumnRef(None, "c"))
    )


def test_negative_literal():
    ast = parse_sql("SELECT a FROM t WHERE temp = -10")
    comparison = ast.where
    assert comparison.right == UnaryOp("-", Literal("number", 10))


def test_count_star_and_distinct():
    ast = parse_sql("SELECT COUNT(*), COUNT(DISTINCT visitor_id) FROM t")
    first, second = (item.expr for item in ast.select_items)
    assert first.star and first.name == "COUNT"
    assert second.distinct and second.args == (ColumnRef(None, "visitor_id"),)
    assert len(aggregates_in(first)) == 1


def test_order_limit_semicolon():
    ast = parse_sql("SELECT a FROM t ORDER BY a DESC LIMIT 10;")
    assert ast.order_by == ((ColumnRef(None, "a"), "DESC"),)
    assert ast.limit == 10


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError) as err:
        parse_sql("SELECT a FROM t extra nonsense")
    assert err.value.kind == "syntax"


def test_quoted_identifiers_and_strings():
    ast = parse_sql("SELECT \"odd name\", `tick`, [brack] FROM t WHERE s = 'it''s'")
    names = [item.expr.name for item in ast.select_items]
    assert names == ["odd name", "tick", "brack"]
    assert ast.where.right == Literal("string", "it's")


def test_bare_identifiers_take_non_ascii_characters_as_sqlite_does():
    ast = parse_sql("SELECT größe FROM äpfel WHERE ٣ > 1")
    assert ast.select_items[0].expr == ColumnRef(None, "größe")
    assert ast.from_tables[0].name == "äpfel"
    assert ast.where.left == ColumnRef(None, "٣")  # only ASCII digits make numbers
    # str.upper turns "ſelect" into "SELECT", but SQLite reads it as a name.
    assert [(t.kind, t.value) for t in tokenize("ſelect a\u00a0b")[:2]] == [
        ("IDENT", "ſelect"), ("IDENT", "a\u00a0b"),
    ]


def test_columns_in_collects_nested():
    ast = parse_sql("SELECT SUM(t.a + u.b) / COUNT(c) FROM t JOIN u ON t.id = u.id")
    cols = {c.display() for c in columns_in(ast.select_items[0].expr)}
    assert cols == {"t.a", "u.b", "c"}


def test_where_function_call():
    ast = parse_sql("SELECT a FROM t WHERE substr(date, 1, 6) = '202301'")
    fn = ast.where.left
    assert isinstance(fn, FuncCall)
    assert fn.name == "SUBSTR"
    assert not fn.is_aggregate()


# -- hostile input ------------------------------------------------------------

_FUZZ_TOKENS = st.one_of(
    st.sampled_from(sorted(_KEYWORDS | AGGREGATE_FUNCTIONS)),
    st.sampled_from(
        ["(", ")", ",", ".", ";", "*", "+", "-", "/", "%", "=", "<", ">", "<=", ">=",
         "<>", "!=", "||", "--", "/*", "*/", "'", '"', "`", "[", "]"]
    ),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_$]{0,6}", fullmatch=True),
    st.from_regex(r"\d{1,4}(\.\d{0,3})?([eE][+-]?\d{1,2})?|\.\d{1,3}", fullmatch=True),
    st.from_regex(r"'([^']|''){0,5}'|\"[^\"]{0,5}\"|`[^`]{0,5}`|\[[^\]]{0,5}\]", fullmatch=True),
    st.text(max_size=3),
)
# Openers repeated to a depth no hand-written query reaches.
_NESTING = st.tuples(
    st.sampled_from(["(", "NOT ", "- ", "+ ", "CASE WHEN 1 THEN ", "CAST(", "f(", "SUM("]),
    st.integers(0, 400),
)


# Left-deep operator chains, which the parser builds in loops, up to far past
# MAX_EXPRESSION_DEPTH.
_CHAIN = st.tuples(
    st.sampled_from(["+", "-", "*", "/", "||", "AND", "OR", "="]),
    st.integers(1, 3000),
)


@st.composite
def _chained_sql(draw):
    op, terms = draw(_CHAIN)
    operand = draw(st.sampled_from(["a", "1", "t.a", "f(a)", "(a)", "'x'"]))
    head = draw(st.sampled_from(["SELECT ", "SELECT a FROM t WHERE ", "SELECT a FROM t GROUP BY "]))
    tail = "" if "FROM" in head else draw(st.sampled_from([" FROM t", " FROM t GROUP BY a"]))
    return head + f" {op} ".join([operand] * terms) + tail


@st.composite
def _hostile_sql(draw):
    opener, depth = draw(_NESTING)
    closer = {"(": ")", "CASE WHEN 1 THEN ": " END", "CAST(": " AS int)", "f(": ")",
              "SUM(": ")"}.get(opener, "")
    head = draw(st.sampled_from(["", "SELECT ", "SELECT a FROM t WHERE "]))
    body = " ".join(draw(st.lists(_FUZZ_TOKENS, max_size=40)))
    tail = draw(st.sampled_from(["", " FROM t", " FROM t GROUP BY a"]))
    return head + opener * depth + body + closer * draw(st.integers(0, depth)) + tail


@settings(max_examples=400, deadline=timedelta(seconds=2))
@given(st.one_of(_hostile_sql(), _chained_sql(), st.text(max_size=120)))
def test_parse_sql_raises_only_parse_error(text):
    # Any input either parses or raises ParseError, within the deadline; what
    # parses can be walked, printed and compared without exhausting the stack.
    try:
        ast = parse_sql(text)
    except ParseError as exc:
        assert exc.kind in ("syntax", "unsupported")
        return
    assert repr(ast) and ast == parse_sql(text)
    for item in ast.select_items:
        assert walk(item.expr)[0] is item.expr


def test_nesting_up_to_the_limit_parses_and_deeper_is_unsupported():
    def nested(n):
        return "SELECT " + "(" * n + "a" + ")" * n + " FROM t"

    # the select item itself is one level, so MAX_NESTING - 1 parentheses fit
    assert parse_sql(nested(MAX_NESTING - 1)).select_items[0].expr == ColumnRef(None, "a")
    with pytest.raises(ParseError) as exc:
        parse_sql(nested(MAX_NESTING))
    assert exc.value.kind == "unsupported"
    assert "nested deeper" in exc.value.message


def test_operator_chain_up_to_the_depth_bound_parses_and_deeper_is_unsupported():
    def chain(terms):
        return "SELECT " + " + ".join(["a"] * terms) + " FROM t"

    # n terms make a tree n nodes deep: n - 1 operators and the first operand
    expr = parse_sql(chain(MAX_EXPRESSION_DEPTH)).select_items[0].expr
    assert expression_depth(expr) == MAX_EXPRESSION_DEPTH
    assert len(columns_in(expr)) == MAX_EXPRESSION_DEPTH
    for text in (chain(MAX_EXPRESSION_DEPTH + 1), chain(3000)):
        with pytest.raises(ParseError) as exc:
            parse_sql(text)
        assert exc.value.kind == "unsupported"
        assert "deeper than" in exc.value.message


def test_depth_bound_counts_every_level_of_one_expression():
    # nesting and chains add up: 40 CASE levels hold MAX - 40 chained terms
    def nested(terms):
        return ("SELECT " + "CASE WHEN 1 THEN " * 40 + " * ".join(["a"] * terms)
                + " END" * 40 + " FROM t")

    assert expression_depth(
        parse_sql(nested(MAX_EXPRESSION_DEPTH - 40)).select_items[0].expr
    ) == MAX_EXPRESSION_DEPTH
    with pytest.raises(ParseError, match="deeper than"):
        parse_sql(nested(MAX_EXPRESSION_DEPTH - 39))
    # each top-level expression has its own bound
    wide = ", ".join([" + ".join(["a"] * 100)] * 5)
    assert len(parse_sql(f"SELECT {wide} FROM t").select_items) == 5


def test_walk_does_not_recurse():
    expr = ColumnRef(None, "a")
    for _ in range(5000):
        expr = BinaryOp("+", expr, Literal("number", 1))
    nodes = walk(expr)
    assert len(nodes) == 10_001 and nodes[0] is expr
    assert expression_depth(expr) == 5001
