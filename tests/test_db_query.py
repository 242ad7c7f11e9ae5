"""Query engine: predicates, index plans, content-based retrieval."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import AttributeSpec, ClassDef, Database, Q
from repro.errors import QueryError, SchemaError


@pytest.fixture
def db():
    database = Database()
    database.define_class(ClassDef("Newscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("year", int, indexed=True),
        AttributeSpec("keywords", list, keyword_indexed=True),
        AttributeSpec("summary", str),
        AttributeSpec("rating", float),
    ]))
    database.insert("Newscast", title="60 Minutes", year=1992,
                    keywords=["politics", "interview"],
                    summary="A political interview special", rating=4.5)
    database.insert("Newscast", title="Evening News", year=1992,
                    keywords=["news", "daily"],
                    summary="Daily headlines", rating=3.0)
    database.insert("Newscast", title="Morning Show", year=1993,
                    keywords=["news", "weather"],
                    summary="Weather and headlines", rating=2.5)
    return database


def titles(db, oids):
    return sorted(db.get(o).title for o in oids)


class TestPredicates:
    def test_eq_and_paper_query(self, db):
        """select SimpleNewscast where (title = '60 Minutes' and ...)."""
        result = db.select("Newscast",
                           Q.eq("title", "60 Minutes") & Q.eq("year", 1992))
        assert titles(db, result) == ["60 Minutes"]

    def test_comparisons(self, db):
        assert len(db.select("Newscast", Q.gt("year", 1992))) == 1
        assert len(db.select("Newscast", Q.ge("year", 1992))) == 3
        assert len(db.select("Newscast", Q.lt("rating", 3.0))) == 1
        assert len(db.select("Newscast", Q.ne("title", "Morning Show"))) == 2

    def test_between(self, db):
        assert len(db.select("Newscast", Q.between("rating", 2.5, 3.5))) == 2
        with pytest.raises(QueryError):
            Q.between("rating", 5, 1)

    def test_boolean_combinators(self, db):
        result = db.select(
            "Newscast",
            (Q.eq("year", 1993) | Q.gt("rating", 4.0)) & ~Q.like("title", "morning"),
        )
        assert titles(db, result) == ["60 Minutes"]

    def test_contains_keywords(self, db):
        """Content-based retrieval on the keywords attribute."""
        assert len(db.select("Newscast", Q.contains("keywords", "news"))) == 2
        both = db.select("Newscast", Q.contains("keywords", "news", "weather"))
        assert titles(db, both) == ["Morning Show"]
        assert db.select("Newscast", Q.contains("keywords", "sports")) == []

    def test_contains_on_text_attribute(self, db):
        result = db.select("Newscast", Q.contains("summary", "headlines"))
        assert len(result) == 2

    def test_like_substring(self, db):
        assert titles(db, db.select("Newscast", Q.like("title", "news"))) == \
            ["Evening News"]

    def test_is_null(self, db):
        db.insert("Newscast", title="Untitled")
        assert len(db.select("Newscast", Q.is_null("year"))) == 1

    def test_true_selects_all(self, db):
        assert len(db.select("Newscast", Q.true())) == 3
        assert len(db.select("Newscast")) == 3

    def test_comparison_with_none_attribute_is_false(self, db):
        db.insert("Newscast", title="No Year")
        assert all(db.get(o).year is not None
                   for o in db.select("Newscast", Q.gt("year", 0)))


class TestIndexUsage:
    def test_indexed_eq_uses_index(self, db):
        before = db.stats["index_scans"]
        db.select("Newscast", Q.eq("title", "60 Minutes"))
        assert db.stats["index_scans"] == before + 1

    def test_unindexed_attribute_scans(self, db):
        before = db.stats["full_scans"]
        db.select("Newscast", Q.eq("summary", "Daily headlines"))
        assert db.stats["full_scans"] == before + 1

    def test_and_intersects_plans(self, db):
        result = db.select("Newscast",
                           Q.eq("year", 1992) & Q.contains("keywords", "news"))
        assert titles(db, result) == ["Evening News"]

    def test_or_needs_both_plans(self, db):
        before = db.stats["full_scans"]
        # 'summary' has no index: OR falls back to a scan.
        db.select("Newscast", Q.eq("title", "x") | Q.eq("summary", "y"))
        assert db.stats["full_scans"] == before + 1

    def test_range_uses_ordered_index(self, db):
        before = db.stats["index_scans"]
        result = db.select("Newscast", Q.between("year", 1992, 1992))
        assert len(result) == 2
        assert db.stats["index_scans"] == before + 1

    def test_index_and_scan_agree(self, db):
        """The index plan must return exactly what a scan returns."""
        for predicate in (Q.eq("year", 1992), Q.ge("year", 1993),
                          Q.contains("keywords", "news"),
                          Q.between("rating", 2.0, 4.0)):
            via_index = db.select("Newscast", predicate)
            db_scan = [
                oid for oid in db.select("Newscast")
                if predicate.matches(db.get(oid))
            ]
            assert via_index == db_scan

    @pytest.mark.parametrize("populated", [False, True])
    def test_eq_none_agrees_with_scan(self, populated):
        """No index holds None, so ``year = None`` must find what a scan
        finds: the rows without a year, whether or not the index has keys."""
        database = Database()
        database.define_class(ClassDef("Item", attributes=[
            AttributeSpec("year", int, indexed=True),
        ]))
        undated = database.insert("Item")
        if populated:
            database.insert("Item", year=1992)
        predicate = Q.eq("year", None)
        scan = [oid for oid in database.select("Item")
                if predicate.matches(database.get(oid))]
        assert scan == [undated]
        assert database.select("Item", predicate) == scan

    def test_index_maintained_on_update_and_delete(self, db):
        oid = db.select("Newscast", Q.eq("title", "60 Minutes"))[0]
        db.update(oid, title="Sixty Minutes")
        assert db.select("Newscast", Q.eq("title", "60 Minutes")) == []
        assert db.select("Newscast", Q.eq("title", "Sixty Minutes")) == [oid]
        db.delete(oid)
        assert db.select("Newscast", Q.eq("title", "Sixty Minutes")) == []


class TestSelectOne:
    def test_exactly_one(self, db):
        oid = db.select_one("Newscast", Q.eq("title", "60 Minutes"))
        assert db.get(oid).year == 1992

    def test_zero_or_many_rejected(self, db):
        with pytest.raises(SchemaError, match="expected exactly 1"):
            db.select_one("Newscast", Q.eq("title", "ghost"))
        with pytest.raises(SchemaError, match="expected exactly 1"):
            db.select_one("Newscast", Q.eq("year", 1992))

    def test_unknown_class(self, db):
        with pytest.raises(SchemaError, match="unknown class"):
            db.select("Ghost")


class TestQueryProperties:
    @given(st.lists(st.integers(1980, 2000), min_size=1, max_size=30),
           st.integers(1980, 2000))
    @settings(max_examples=25)
    def test_range_query_equivalent_to_filter(self, years, pivot):
        db = Database()
        db.define_class(ClassDef("Item", attributes=[
            AttributeSpec("year", int, indexed=True),
        ]))
        for year in years:
            db.insert("Item", year=year)
        result = db.select("Item", Q.le("year", pivot))
        expected = sum(1 for y in years if y <= pivot)
        assert len(result) == expected
