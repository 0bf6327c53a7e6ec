"""Unit tests for the schema model (attributes, domains, schemas)."""

import math

import pytest

from repro.database.schema import Attribute, AttributeKind, Domain, NumericBucket, Schema
from repro.exceptions import DomainValueError, SchemaError, UnknownAttributeError


class TestDomain:
    def test_boolean_domain_has_exactly_false_and_true(self):
        domain = Domain.boolean()
        assert domain.kind is AttributeKind.BOOLEAN
        assert set(domain.values) == {False, True}
        assert domain.size == 2

    def test_categorical_domain_preserves_order(self):
        domain = Domain.categorical(("b", "a", "c"))
        assert domain.values == ("b", "a", "c")

    def test_categorical_domain_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Domain.categorical(("a", "a"))

    def test_categorical_domain_rejects_empty(self):
        with pytest.raises(SchemaError):
            Domain.categorical(())

    def test_boolean_domain_rejects_wrong_values(self):
        with pytest.raises(SchemaError):
            Domain(AttributeKind.BOOLEAN, values=(True, "yes"))

    def test_numeric_domain_builds_buckets_from_edges(self):
        domain = Domain.numeric_buckets((0.0, 10.0, 20.0))
        assert domain.kind is AttributeKind.NUMERIC
        assert domain.size == 2
        assert domain.values == ("0-10", "10-20")

    def test_numeric_domain_requires_two_edges(self):
        with pytest.raises(SchemaError):
            Domain.numeric_buckets((5.0,))

    def test_numeric_buckets_cannot_overlap(self):
        with pytest.raises(SchemaError):
            Domain(
                AttributeKind.NUMERIC,
                buckets=(NumericBucket(0.0, 10.0), NumericBucket(5.0, 15.0)),
            )

    def test_bucket_for_maps_raw_values(self):
        domain = Domain.numeric_buckets((0.0, 10.0, 20.0))
        assert domain.bucket_for(3.0).label == "0-10"
        assert domain.bucket_for(10.0).label == "10-20"
        assert domain.bucket_for(25.0) is None

    def test_bucket_for_raises_on_non_numeric_domain(self):
        with pytest.raises(SchemaError):
            Domain.categorical(("a",)).bucket_for(1.0)

    def test_selectable_value_for_numeric_is_the_bucket_label(self):
        domain = Domain.numeric_buckets((0.0, 10.0, 20.0))
        assert domain.selectable_value_for(12.5) == "10-20"

    def test_selectable_value_for_out_of_range_numeric_raises(self):
        domain = Domain.numeric_buckets((0.0, 10.0))
        with pytest.raises(DomainValueError):
            domain.selectable_value_for(999.0)

    def test_selectable_value_for_numeric_agrees_with_bucket_for_everywhere(self):
        # Buckets given out of order, with a gap between 20 and 50, and
        # labels that need ``:g`` formatting.
        buckets = (NumericBucket(50.0, 1e6), NumericBucket(-2.5, 0.125), NumericBucket(0.125, 20.0))
        domain = Domain(AttributeKind.NUMERIC, buckets=buckets)
        edges = sorted({edge for bucket in buckets for edge in (bucket.low, bucket.high)})
        points = [
            *edges,
            *(math.nextafter(edge, -math.inf) for edge in edges),
            *(math.nextafter(edge, math.inf) for edge in edges),
            *((low + high) / 2 for low, high in zip(edges, edges[1:])),
            -math.inf,
            math.inf,
            math.nan,
            7,
            True,
            "3.5",
        ]
        for point in points:
            bucket = domain.bucket_for(point)
            if bucket is None:
                with pytest.raises(DomainValueError) as raised:
                    domain.selectable_value_for(point)
                assert str(raised.value) == str(DomainValueError("<numeric>", point))
            else:
                label = domain.selectable_value_for(point)
                assert label == bucket.label and type(label) is str
        with pytest.raises(DomainValueError):
            domain.selectable_value_for(20.0)  # the gap opens at 20
        assert [domain.selectable_value_for(b.low) for b in buckets] == [b.label for b in buckets]

    def test_selectable_value_for_categorical_is_identity(self):
        domain = Domain.categorical(("x", "y"))
        assert domain.selectable_value_for("x") == "x"

    def test_selectable_value_for_unknown_categorical_raises(self):
        domain = Domain.categorical(("x", "y"))
        with pytest.raises(DomainValueError):
            domain.selectable_value_for("z")

    def test_membership_and_iteration(self):
        domain = Domain.categorical(("x", "y"))
        assert "x" in domain
        assert "z" not in domain
        assert list(domain) == ["x", "y"]

    def test_equality_and_hash(self):
        assert Domain.categorical(("x", "y")) == Domain.categorical(("x", "y"))
        assert Domain.categorical(("x",)) != Domain.categorical(("y",))
        assert hash(Domain.boolean()) == hash(Domain.boolean())

    def test_numeric_bucket_requires_low_below_high(self):
        with pytest.raises(SchemaError):
            NumericBucket(5.0, 5.0)


class TestAttribute:
    def test_attribute_exposes_kind_and_cardinality(self):
        attribute = Attribute("color", Domain.categorical(("red", "blue")))
        assert attribute.kind is AttributeKind.CATEGORICAL
        assert attribute.cardinality == 2

    def test_attribute_name_must_be_nonempty(self):
        with pytest.raises(SchemaError):
            Attribute("  ", Domain.boolean())

    def test_attribute_name_rejects_url_unsafe_characters(self):
        with pytest.raises(SchemaError):
            Attribute("a=b", Domain.boolean())

    def test_validate_value(self):
        attribute = Attribute("color", Domain.categorical(("red", "blue")))
        attribute.validate_value("red")
        with pytest.raises(DomainValueError):
            attribute.validate_value("green")


class TestSchema:
    def test_schema_requires_at_least_one_attribute(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_schema_rejects_duplicate_names(self):
        attribute = Attribute("a", Domain.boolean())
        with pytest.raises(SchemaError):
            Schema([attribute, Attribute("a", Domain.boolean())])

    def test_attribute_lookup(self, tiny_schema):
        assert tiny_schema.attribute("make").name == "make"
        assert tiny_schema["color"].cardinality == 2
        with pytest.raises(UnknownAttributeError):
            tiny_schema.attribute("missing")

    def test_contains_and_len_and_iteration(self, tiny_schema):
        assert "make" in tiny_schema
        assert "missing" not in tiny_schema
        assert len(tiny_schema) == 3
        assert [a.name for a in tiny_schema] == ["make", "color", "price"]

    def test_project_preserves_order_and_validates(self, tiny_schema):
        projected = tiny_schema.project(["price", "make"])
        assert projected.attribute_names == ("price", "make")
        with pytest.raises(UnknownAttributeError):
            tiny_schema.project(["nope"])

    def test_total_combinations_is_product_of_cardinalities(self, tiny_schema):
        assert tiny_schema.total_combinations() == 3 * 2 * 3

    def test_validate_assignment(self, tiny_schema):
        tiny_schema.validate_assignment({"make": "Toyota", "color": "red"})
        with pytest.raises(DomainValueError):
            tiny_schema.validate_assignment({"make": "Tesla"})

    def test_describe_mentions_every_attribute(self, tiny_schema):
        text = tiny_schema.describe()
        for name in tiny_schema.attribute_names:
            assert name in text

    def test_equality(self, tiny_schema):
        clone = Schema(tiny_schema.attributes, name="other")
        assert clone == tiny_schema
