"""Property-based tests: yamlish, dotted paths, schemas, expressions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema import Schema, diff_schemas
from repro.util import yamlish
from repro.util.paths import get_path, set_path, walk_leaves
from repro.util.safeexpr import SafeExpression
from repro.util.yamlish import _parse_scalar

_keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=8
)
_safe_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=10
)
_scalars = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.booleans(),
    st.none(),
    _safe_text,
)
_nested = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.dictionaries(_keys, children, min_size=1, max_size=4),
        st.lists(children, min_size=1, max_size=4),
    ),
    max_leaves=16,
)


class TestYamlishProperties:
    @given(data=st.dictionaries(_keys, _nested, max_size=5))
    def test_dumps_parse_roundtrip(self, data):
        assert yamlish.parse(yamlish.dumps(data)) == data

    @given(data=st.dictionaries(_keys, _nested, min_size=1, max_size=5))
    def test_parse_is_deterministic(self, data):
        text = yamlish.dumps(data)
        assert yamlish.parse(text) == yamlish.parse(text)


class TestPathProperties:
    @given(
        parts=st.lists(_keys, min_size=1, max_size=4),
        value=st.integers(),
    )
    def test_set_then_get(self, parts, value):
        # Path components must not collide with a prefix being a scalar:
        # build into an empty dict, which set_path handles by creation.
        obj = {}
        path = ".".join(parts)
        set_path(obj, path, value)
        assert get_path(obj, path) == value
        leaves = dict(walk_leaves(obj))
        assert leaves == {tuple(parts): value}


_field_types = st.sampled_from(
    ["string", "number", "integer", "boolean", "object", "array",
     "array<string>", "array<number>"]
)
_annotations = st.sampled_from(
    [None, "+kr: external", "+kr: ingest", "+kr: secret",
     "+kr: external, immutable"]
)

_field_names = _keys.filter(
    lambda k: k.isidentifier()
    and k != "schema"
    and _parse_scalar(k) == k  # excludes yes/no/true/nan/inf/...
)


@st.composite
def schemas(draw, name="App/v1/Svc/Res"):
    field_names = draw(
        st.lists(_field_names, min_size=1, max_size=8, unique=True)
    )
    lines = [f"schema: {name}"]
    for field_name in field_names:
        type_name = draw(_field_types)
        annotation = draw(_annotations)
        suffix = f" # {annotation}" if annotation else ""
        lines.append(f"{field_name}: {type_name}{suffix}")
    return Schema.from_text("\n".join(lines) + "\n")


class TestSchemaProperties:
    @settings(max_examples=60)
    @given(schema=schemas())
    def test_text_roundtrip(self, schema):
        assert Schema.from_text(schema.to_text()) == schema

    @settings(max_examples=60)
    @given(schema=schemas())
    def test_dict_roundtrip(self, schema):
        assert Schema.from_dict(schema.to_dict()) == schema

    @settings(max_examples=60)
    @given(schema=schemas())
    def test_self_diff_is_empty_and_compatible(self, schema):
        delta = diff_schemas(schema, schema)
        assert delta.empty and delta.is_backward_compatible()

    @settings(max_examples=60)
    @given(schema=schemas())
    def test_external_fields_exactly_the_annotated_ones(self, schema):
        externals = {f.path for f in schema.external_fields()}
        expected = {
            f.path for f in schema.fields if "external" in f.annotations.tokens
        }
        assert externals == expected


class TestExpressionProperties:
    @given(
        a=st.integers(min_value=-1000, max_value=1000),
        b=st.integers(min_value=-1000, max_value=1000),
        c=st.integers(min_value=1, max_value=1000),
    )
    def test_arithmetic_matches_python(self, a, b, c):
        expr = SafeExpression("x + y * 2 - (x // z)")
        assert expr.evaluate({"x": a, "y": b, "z": c}) == a + b * 2 - (a // c)

    @given(
        values=st.lists(st.integers(min_value=-100, max_value=100),
                        min_size=0, max_size=10)
    )
    def test_builtins_match_python(self, values):
        expr = SafeExpression("sum(v) + len(v)")
        assert expr.evaluate({"v": values}) == sum(values) + len(values)

    @given(cost=st.floats(min_value=0, max_value=10000, allow_nan=False))
    def test_fig6_conditional_total(self, cost):
        expr = SafeExpression('"air" if C.order.cost > 1000 else "ground"')
        result = expr.evaluate({"C": {"order": {"cost": cost}}})
        assert result == ("air" if cost > 1000 else "ground")

    @given(
        items=st.lists(
            st.dictionaries(st.just("name"), _safe_text, min_size=1, max_size=1),
            max_size=8,
        )
    )
    def test_fig6_comprehension(self, items):
        expr = SafeExpression("[item.name for item in C.order.items]")
        data = {f"k{i}": item for i, item in enumerate(items)}
        result = expr.evaluate({"C": {"order": {"items": data}}})
        assert sorted(result) == sorted(item["name"] for item in items)

    @given(value=_nested)
    def test_results_are_plain_python(self, value):
        """Evaluation must never leak wrapper objects into stores."""
        expr = SafeExpression("v")
        result = expr.evaluate({"v": value})
        assert result == value
        assert type(result) in (type(value), list)  # tuples become lists
