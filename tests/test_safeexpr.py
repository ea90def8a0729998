"""Unit tests for the safe expression evaluator (the DXG's sandbox)."""

import pytest

from repro.errors import ExpressionError
from repro.util.safeexpr import SAFE_BUILTINS, SafeExpression, unwrap


class TestParsing:
    def test_empty_rejected(self):
        for bad in ("", "   ", None, 42):
            with pytest.raises(ExpressionError):
                SafeExpression(bad)

    def test_syntax_error_rejected(self):
        with pytest.raises(ExpressionError):
            SafeExpression("a +")

    @pytest.mark.parametrize(
        "evil",
        [
            "__import__('os')",
            "().__class__",
            "open('/etc/passwd')",  # unknown call name fails at eval, but
            "lambda: 1",  # lambdas are disallowed syntax
            "[x for x in ().__class__.__mro__]",
            "exec('1')",
            "x := 5",
            "a.__dict__",
            "f'{x}'",
        ],
    )
    def test_dangerous_syntax_rejected_or_unresolvable(self, evil):
        try:
            expr = SafeExpression(evil)
        except ExpressionError:
            return  # rejected at parse: good
        with pytest.raises(ExpressionError):
            expr.evaluate({"x": 1, "a": {}})

    def test_method_calls_rejected(self):
        with pytest.raises(ExpressionError):
            SafeExpression("x.upper()")


class TestNamesAndPaths:
    def test_root_names(self):
        expr = SafeExpression("A.x + B.y.z + this.w")
        assert expr.names == {"A", "B", "this"}

    def test_comprehension_variable_not_free(self):
        expr = SafeExpression("[i.name for i in A.items]")
        assert expr.names == {"A"}

    def test_name_bound_in_one_comprehension_is_free_outside_it(self):
        expr = SafeExpression("[x for x in L] + [x]")
        assert expr.names == {"L", "x"}
        assert ("x",) in expr.paths
        assert expr.evaluate({"L": [1, 2], "x": 9}) == [1, 2, 9]

    def test_first_iterable_runs_in_the_enclosing_scope(self):
        # `x` in the first iterable is the outer x, not the target.
        expr = SafeExpression("[x for x in x]")
        assert expr.names == {"x"}
        assert expr.evaluate({"x": [3, 4]}) == [3, 4]

    def test_later_generators_see_earlier_targets(self):
        expr = SafeExpression("[y for x in L for y in x if y > k]")
        assert expr.names == {"L", "k"}
        assert expr.evaluate({"L": [[1, 5], [7]], "k": 2}) == [5, 7]

    def test_dependency_paths(self):
        expr = SafeExpression("currency_convert(S.quote.price, S.quote.currency, this.currency)")
        assert ("S", "quote", "price") in expr.paths
        assert ("S", "quote", "currency") in expr.paths
        assert ("this", "currency") in expr.paths
        assert ("currency_convert",) not in expr.paths

    def test_subscript_path_partial(self):
        expr = SafeExpression("A.rows[0]")
        assert ("A", "rows") in expr.paths


class TestEvaluation:
    def test_missing_name_raises(self):
        with pytest.raises(ExpressionError, match="unbound"):
            SafeExpression("nope + 1").evaluate({})

    def test_missing_field_raises(self):
        with pytest.raises(ExpressionError, match="no field"):
            SafeExpression("A.missing").evaluate({"A": {"present": 1}})

    def test_context_shadows_functions(self):
        """Data wins over builtins, like Python locals over builtins."""
        assert SafeExpression("len").evaluate({"len": 5}) == 5
        assert SafeExpression("len('abc')").evaluate({}) == 3

    def test_context_field_named_like_a_builtin_is_data(self):
        context = {"max": {"a": 3}, "n": 1}
        assert SafeExpression("max.a + n").evaluate(context) == 4
        # Without the field, the same name is the builtin again.
        assert SafeExpression("max(n, 2)").evaluate({"n": 1}) == 2

    def test_functions_shadow_builtins(self):
        expr = SafeExpression("len(x)")
        assert expr.evaluate({"x": [1, 2]}, {"len": lambda v: -1}) == -1

    def test_comprehension_body_sees_outer_names(self):
        expr = SafeExpression("[max(x, floor) for x in L]")
        assert expr.evaluate({"L": [1, 5], "floor": 3}) == [3, 5]
        expr = SafeExpression("[double(x) for x in L]")
        assert expr.evaluate({"L": [1, 2]}, {"double": lambda v: v * 2}) == [2, 4]

    def test_only_read_names_are_bound(self):
        """Unused context entries are neither required nor touched."""
        class Untouchable(list):
            def __iter__(self):
                raise AssertionError("an unread context value was wrapped")

        assert SafeExpression("a + 1").evaluate({"a": 1, "b": Untouchable()}) == 2

    def test_missing_names_listed_sorted(self):
        with pytest.raises(ExpressionError, match=r"\['x', 'y'\]"):
            SafeExpression("y + x + n").evaluate({"n": 1})

    def test_attribute_chains_on_dicts(self):
        value = SafeExpression("A.b.c").evaluate({"A": {"b": {"c": 42}}})
        assert value == 42

    def test_subscript_access(self):
        value = SafeExpression("A['key'][1]").evaluate({"A": {"key": [10, 20]}})
        assert value == 20

    def test_dict_method_names_resolve_to_fields(self):
        """'items', 'keys', 'values' are data, not dict methods."""
        context = {"A": {"items": [1], "keys": 2, "values": 3}}
        assert SafeExpression("A.items").evaluate(context) == [1]
        assert SafeExpression("A.keys").evaluate(context) == 2
        assert SafeExpression("A.values").evaluate(context) == 3

    def test_object_iteration_yields_values(self):
        """Record semantics: iterating an object walks its field values."""
        context = {"A": {"items": {"k1": {"n": 1}, "k2": {"n": 2}}}}
        result = SafeExpression("[i.n for i in A.items]").evaluate(context)
        assert sorted(result) == [1, 2]

    def test_results_deeply_unwrapped(self):
        result = SafeExpression("A.nested").evaluate({"A": {"nested": {"x": [1]}}})
        assert type(result) is dict and type(result["x"]) is list

    def test_custom_functions(self):
        expr = SafeExpression("double(x)")
        assert expr.evaluate({"x": 21}, {"double": lambda v: v * 2}) == 42

    def test_runtime_error_wrapped(self):
        with pytest.raises(ExpressionError, match="failed"):
            SafeExpression("1 / x").evaluate({"x": 0})

    def test_builtin_coverage(self):
        assert set(SAFE_BUILTINS) >= {"len", "sum", "min", "max", "round"}

    def test_conditional_and_boolean_ops(self):
        expr = SafeExpression("'yes' if a and not b else 'no'")
        assert expr.evaluate({"a": True, "b": False}) == "yes"
        assert expr.evaluate({"a": True, "b": True}) == "no"

    def test_membership(self):
        assert SafeExpression("'x' in A.tags").evaluate({"A": {"tags": ["x"]}})


class TestUnwrap:
    def test_unwrap_nested(self):
        from repro.util.safeexpr import _wrap

        wrapped = _wrap({"a": {"b": [{"c": 1}]}})
        restored = unwrap(wrapped)
        assert restored == {"a": {"b": [{"c": 1}]}}
        assert type(restored) is dict

    def test_unwrap_plain_passthrough(self):
        assert unwrap(5) == 5
        assert unwrap("x") == "x"
        assert unwrap((1, 2)) == [1, 2]
