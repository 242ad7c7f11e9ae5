"""The textual query language (the paper's select/where syntax)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import AttributeSpec, ClassDef, Database
from repro.db.parser import parse_predicate, parse_query, tokenize
from repro.errors import QueryError


@pytest.fixture
def db():
    database = Database()
    database.define_class(ClassDef("SimpleNewscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("whenBroadcast", str, indexed=True),
        AttributeSpec("year", int, indexed=True),
        AttributeSpec("keywords", list, keyword_indexed=True),
        AttributeSpec("rating", float),
        AttributeSpec("archived", bool),
    ]))
    database.insert("SimpleNewscast", title="60 Minutes",
                    whenBroadcast="1992-11-01", year=1992,
                    keywords=["politics"], rating=4.5, archived=False)
    database.insert("SimpleNewscast", title="Evening News",
                    whenBroadcast="1992-11-02", year=1992,
                    keywords=["news"], rating=3.0, archived=True)
    database.insert("SimpleNewscast", title="Late Show",
                    whenBroadcast="1993-01-05", year=1993,
                    keywords=["comedy"], rating=2.0)
    return database


class TestTokenizer:
    def test_strings_numbers_ops(self):
        tokens = tokenize('title = "60 Minutes" and year >= 1992')
        kinds = [t.kind for t in tokens]
        assert kinds == ["word", "op", "string", "keyword", "word", "op", "number"]

    def test_escaped_quotes(self):
        tokens = tokenize(r'"say \"hi\""')
        assert tokens[0].kind == "string"

    def test_bad_character(self):
        with pytest.raises(QueryError, match="unexpected character"):
            tokenize("title @ 3")


class TestPaperQuery:
    def test_the_exact_paper_query(self, db):
        """select SimpleNewscast where (title = "60 Minutes" and
        whenBroadcast = someDate)."""
        result = db.query(
            'select SimpleNewscast where (title = "60 Minutes" and '
            'whenBroadcast = "1992-11-01")'
        )
        assert len(result) == 1
        assert db.get(result[0]).title == "60 Minutes"

    def test_select_without_where(self, db):
        assert len(db.query("select SimpleNewscast")) == 3


class TestOperators:
    def test_comparisons(self, db):
        assert len(db.query("select SimpleNewscast where year > 1992")) == 1
        assert len(db.query("select SimpleNewscast where year >= 1992")) == 3
        assert len(db.query("select SimpleNewscast where rating < 3.0")) == 1
        assert len(db.query('select SimpleNewscast where title != "Late Show"')) == 2

    def test_between(self, db):
        assert len(db.query(
            "select SimpleNewscast where rating between 2.5 and 4.0"
        )) == 1

    def test_contains(self, db):
        assert len(db.query(
            'select SimpleNewscast where keywords contains "politics"'
        )) == 1

    def test_like(self, db):
        assert len(db.query('select SimpleNewscast where title like "news"')) == 1

    def test_is_null(self, db):
        assert len(db.query("select SimpleNewscast where archived is null")) == 1

    def test_booleans(self, db):
        assert len(db.query("select SimpleNewscast where archived = true")) == 1
        assert len(db.query("select SimpleNewscast where archived = false")) == 1

    def test_and_or_not_precedence(self, db):
        # or binds looser than and: (year=1993) or (year=1992 and rating>4)
        result = db.query(
            "select SimpleNewscast where year = 1993 or year = 1992 "
            "and rating > 4.0"
        )
        titles = sorted(db.get(o).title for o in result)
        assert titles == ["60 Minutes", "Late Show"]

    def test_not(self, db):
        result = db.query(
            'select SimpleNewscast where not title = "60 Minutes"'
        )
        assert len(result) == 2

    def test_parentheses_override(self, db):
        result = db.query(
            "select SimpleNewscast where (year = 1993 or year = 1992) "
            "and rating > 2.5"
        )
        assert len(result) == 2


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "select",                            # missing class
        "where title = 3",                   # missing select
        "select X where",                    # missing expression
        "select X where title",              # missing operator
        "select X where title = ",           # missing literal
        "select X where (title = 3",         # unbalanced paren
        "select X where title = 3 extra",    # trailing tokens
        "select X where title between 1",    # incomplete between
    ])
    def test_malformed_queries(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_predicate_only_parser(self):
        predicate = parse_predicate('title = "x" and year > 1990')
        assert "title" in repr(predicate)
        with pytest.raises(QueryError):
            parse_predicate("select X")


class TestSessionIntegration:
    def test_session_accepts_strings(self, db):
        from repro.avdb import AVDatabaseSystem
        system = AVDatabaseSystem(database=db)
        session = system.open_session()
        hits = session.select("SimpleNewscast", 'title = "60 Minutes"')
        assert len(hits) == 1


class TestParserProperties:
    @given(st.text(alphabet="abcdefg \"'()=<>", max_size=40))
    @settings(max_examples=80)
    def test_parser_never_crashes_unexpectedly(self, text):
        """Any input either parses or raises QueryError — never another
        exception type."""
        try:
            parse_query("select C where " + text)
        except QueryError:
            pass

    @given(st.integers(-10**6, 10**6))
    def test_numbers_roundtrip(self, n):
        _, predicate = parse_query(f"select X where year = {n}")
        from repro.db.objects import DBObject, OID
        obj = DBObject(OID("X", 1), ("year",), (n,))
        assert predicate.matches(obj)
