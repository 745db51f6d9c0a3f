"""The field-driven JSON codec: any JSON value, and any document built from a
registry tag with arbitrary field values, either decodes to a spec that
round-trips or raises SpecError."""

from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

from hypothesis import given, settings, strategies as st

from spcop.copula import COPULA_NODES, copula_from_json, copula_to_json
from spcop.dist import DIST_KINDS, dist_from_json, dist_to_json
from spcop.errors import SpecError

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# values near the parameter domains, so that many documents are valid
numbers = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, -0.5, float("nan"), float("inf")])


def shaped(tp):
    """JSON values shaped like the field annotation tp."""
    if tp is float:
        return numbers
    if tp is bool:
        return st.booleans()
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if args[-1] is Ellipsis:
            return st.lists(shaped(args[0]), max_size=3)
        return st.tuples(*map(shaped, args)).map(list)
    return copula_docs


def tagged(registry, key):
    """Documents for every registry tag: either every field well-shaped, or
    each field well-shaped, arbitrary JSON or missing."""
    def for_tag(tag):
        cls = registry[tag]
        hints = get_type_hints(cls)
        well = {f.name: shaped(hints[f.name]) for f in fields(cls)}
        return (st.fixed_dictionaries({key: st.just(tag), **well})
                | st.fixed_dictionaries({key: st.just(tag)}, optional={
                    name: value | json_values for name, value in well.items()}))
    return st.sampled_from(sorted(registry)).flatmap(for_tag)


copula_docs = st.deferred(lambda: tagged(COPULA_NODES, "node"))
dist_docs = tagged(DIST_KINDS, "kind")


def assert_roundtrip_or_spec_error(from_json, to_json, doc):
    try:
        spec = from_json(doc)
    except SpecError:
        return
    assert from_json(to_json(spec)) == spec


@settings(max_examples=300, derandomize=True)
@given(doc=st.one_of(json_values, copula_docs))
def test_copula_documents(doc):
    assert_roundtrip_or_spec_error(copula_from_json, copula_to_json, doc)


@settings(max_examples=300, derandomize=True)
@given(doc=st.one_of(json_values, dist_docs))
def test_distribution_documents(doc):
    assert_roundtrip_or_spec_error(dist_from_json, dist_to_json, doc)
