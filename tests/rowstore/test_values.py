"""Tests for column types, schemas and row validation."""

import pytest

from repro.rowstore import Column, ColumnType, Schema


def make_schema():
    return Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
            Column("c1", ColumnType.VARCHAR2),
        ]
    )


class TestColumnType:
    def test_number_accepts_ints_and_floats(self):
        assert ColumnType.NUMBER.validate(1)
        assert ColumnType.NUMBER.validate(2.5)

    def test_number_rejects_strings_and_bools(self):
        assert not ColumnType.NUMBER.validate("x")
        assert not ColumnType.NUMBER.validate(True)

    def test_number_ints_stop_at_two_to_the_53(self):
        """The IMCS holds NUMBER as float64: every int up to 2**53 is
        exact there, the next one is not."""
        for value in (2**53, -(2**53), 2.0**60):
            assert ColumnType.NUMBER.validate(value)
        for value in (2**53 + 1, -(2**53) - 1, 2**70):
            assert not ColumnType.NUMBER.validate(value)

    def test_varchar_accepts_strings_only(self):
        assert ColumnType.VARCHAR2.validate("abc")
        assert not ColumnType.VARCHAR2.validate(3)

    def test_null_is_valid_for_any_type(self):
        assert ColumnType.NUMBER.validate(None)
        assert ColumnType.VARCHAR2.validate(None)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Column("a", ColumnType.NUMBER), Column("a", ColumnType.NUMBER)])

    def test_column_index(self):
        schema = make_schema()
        assert schema.column_index("id") == 0
        assert schema.column_index("c1") == 2

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            make_schema().column_index("nope")

    def test_validate_row_happy_path(self):
        make_schema().validate_row((1, 2.5, "x"))

    def test_validate_row_wrong_arity(self):
        with pytest.raises(ValueError):
            make_schema().validate_row((1, 2.5))

    def test_validate_row_type_mismatch(self):
        with pytest.raises(ValueError):
            make_schema().validate_row((1, "not a number", "x"))

    def test_not_null_enforced(self):
        with pytest.raises(ValueError):
            make_schema().validate_row((None, 1, "x"))

    def test_project(self):
        schema = make_schema()
        assert schema.project((1, 2.5, "x"), ["c1", "id"]) == ("x", 1)


class TestDropColumn:
    def test_drop_hides_column_but_keeps_arity(self):
        schema = make_schema()
        schema.drop_column("n1")
        assert schema.arity == 3  # stored rows unchanged
        assert [c.name for c in schema.live_columns] == ["id", "c1"]
        with pytest.raises(KeyError):
            schema.column_index("n1")

    def test_drop_twice_raises(self):
        schema = make_schema()
        schema.drop_column("n1")
        with pytest.raises(KeyError):
            schema.drop_column("n1")

    def test_validate_row_ignores_dropped_column(self):
        schema = make_schema()
        schema.drop_column("n1")
        # old rows keep a (now-ignored) value in the dropped position
        schema.validate_row((1, "garbage-ok-here", "x"))


def test_an_int_beyond_two_to_the_53_fails_on_the_primary_before_any_redo():
    from repro.db import Deployment
    from tests.db.conftest import simple_table_def

    deployment = Deployment.build()
    deployment.create_table(simple_table_def())
    primary = deployment.primary

    def logged():
        return [len(log) for log in primary.redo_logs]

    txn = primary.begin()
    before = logged()
    with pytest.raises(ValueError, match="invalid for column n1"):
        primary.insert(txn, "T", (1, 2**53 + 1, "x"))
    assert logged() == before
    rowid = primary.insert(txn, "T", (2, 2**53, "y"))
    before = logged()
    with pytest.raises(ValueError, match="invalid for column n1"):
        primary.update(txn, "T", rowid, {"n1": -(2**53) - 1})
    assert logged() == before
    primary.commit(txn)
