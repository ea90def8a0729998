"""Safe evaluation of DXG / query expressions.

The paper's DXG specifications (Fig. 6) embed small expressions::

    currency_convert(S.quote.price, S.quote.currency, this.currency)
    [item.name for item in C.order.items]
    "air" if C.order.cost > 1000 else "ground"

These are parsed with :mod:`ast` and evaluated against a context of named
data-store states.  Only a whitelisted set of node types is allowed -- no
attribute access on arbitrary objects (attributes resolve to dict keys), no
imports, no dunder access, and calls may only target functions explicitly
registered by the integrator author.
"""

import ast

from repro.errors import ExpressionError

_ALLOWED_NODES = (
    ast.Expression,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Store,  # comprehension targets bind names
    ast.Attribute,
    ast.Subscript,
    ast.Slice,
    ast.Tuple,
    ast.List,
    ast.Dict,
    ast.Set,
    ast.Call,
    ast.keyword,
    ast.IfExp,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.UAdd,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.In,
    ast.NotIn,
    ast.Is,
    ast.IsNot,
    ast.ListComp,
    ast.SetComp,
    ast.GeneratorExp,
    ast.comprehension,
)

#: Builtin functions available in every expression (pure, total-ish).
SAFE_BUILTINS = {
    "abs": abs,
    "len": len,
    "min": min,
    "max": max,
    "sum": sum,
    "round": round,
    "sorted": sorted,
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "any": any,
    "all": all,
}


class _AttrView:
    """Read-only dict wrapper exposing keys as attributes.

    Deliberately NOT a dict subclass, and with no public methods at all:
    field names like ``items`` or ``keys`` must resolve to the *data*,
    not to dict methods (the paper's own Fig. 6 reads ``C.order.items``).
    Use :func:`unwrap` to get plain dicts back for interop.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        object.__setattr__(self, "_data", data)

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        try:
            return _wrap(self._data[name])
        except KeyError:
            raise ExpressionError(f"no field {name!r}") from None

    def __getitem__(self, key):
        try:
            return _wrap(self._data[key])
        except KeyError:
            raise ExpressionError(f"no field {key!r}") from None

    def __iter__(self):
        # Iterating an *object* yields its field VALUES (record semantics,
        # like Zed's `items[]`): Fig. 6's `[item.name for item in
        # C.order.items]` works with Fig. 5's `items: object`.
        return iter(_wrap(v) for v in self._data.values())

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def __eq__(self, other):
        if isinstance(other, _AttrView):
            return self._data == other._data
        return self._data == other

    def __ne__(self, other):
        return not self.__eq__(other)

    def __bool__(self):
        return bool(self._data)

    def __repr__(self):
        return f"AttrView({self._data!r})"

    __hash__ = None


def _wrap(value):
    if isinstance(value, _AttrView):
        return value
    if isinstance(value, dict):
        return _AttrView(value)
    if isinstance(value, list):
        return [_wrap(v) for v in value]
    return value


def unwrap(value):
    """Deep-convert wrapped views back into plain dicts/lists."""
    if isinstance(value, _AttrView):
        return unwrap(value._data)
    if isinstance(value, dict):
        return {k: unwrap(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [unwrap(v) for v in value]
    return value


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp)


def _visit_scoped(node, bound, visit):
    """Call ``visit(node, bound)`` on ``node`` and, unless it returns True,
    on every descendant.

    ``bound`` holds the comprehension-target names in scope at a node.
    As in Python, a comprehension's targets are bound throughout it,
    except in its first iterable, which runs in the enclosing scope.
    """
    if visit(node, bound):
        return
    if isinstance(node, _COMPREHENSIONS):
        inner = bound | {
            target.id
            for generator in node.generators
            for target in ast.walk(generator.target)
            if isinstance(target, ast.Name)
        }
        for index, generator in enumerate(node.generators):
            _visit_scoped(generator.iter, bound if index == 0 else inner, visit)
            _visit_scoped(generator.target, inner, visit)
            for condition in generator.ifs:
                _visit_scoped(condition, inner, visit)
        _visit_scoped(node.elt, inner, visit)
        return
    for child in ast.iter_child_nodes(node):
        _visit_scoped(child, bound, visit)


class SafeExpression:
    """A parsed, validated expression ready for repeated evaluation."""

    def __init__(self, source):
        if not isinstance(source, str) or not source.strip():
            raise ExpressionError(f"expression must be a non-empty string: {source!r}")
        self.source = source.strip()
        try:
            tree = ast.parse(self.source, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"syntax error in {self.source!r}: {exc}") from exc
        self._validate(tree)
        self._tree = tree
        self._code = compile(tree, "<dxg-expr>", "eval")
        self.names = self._root_names(tree)
        self.paths = self._dependency_paths(tree)

    def _validate(self, tree):
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ExpressionError(
                    f"disallowed syntax {type(node).__name__!r} in {self.source!r}"
                )
            if isinstance(node, ast.Attribute) and node.attr.startswith("__"):
                raise ExpressionError(f"dunder access forbidden in {self.source!r}")
            if isinstance(node, ast.Name) and node.id.startswith("__"):
                raise ExpressionError(f"dunder name forbidden in {self.source!r}")
            if isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Name):
                    raise ExpressionError(
                        f"only plain function calls are allowed in {self.source!r}"
                    )

    @staticmethod
    def _root_names(tree):
        """The exact free names: loads outside every comprehension binding them."""
        names = set()

        def visit(node, bound):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id not in bound):
                names.add(node.id)
            return False

        _visit_scoped(tree, frozenset(), visit)
        return frozenset(names)

    def _dependency_paths(self, tree):
        """Dotted paths the expression reads, e.g. ``{("S","quote","price")}``.

        Paths rooted at names a comprehension binds (within that
        comprehension) and at function names are excluded.  An attribute
        chain contributes its longest prefix of plain attribute accesses.
        """
        called = {
            node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        paths = set()

        def chain(node):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(node.id)
                return tuple(reversed(parts))
            return None

        def visit(node, bound):
            if isinstance(node, ast.Attribute):
                path = chain(node)
                if path is not None and path[0] not in bound:
                    paths.add(path)
                    return True
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id not in bound and node.id not in called):
                paths.add((node.id,))
            return False

        _visit_scoped(tree, frozenset(), visit)
        # Drop paths shadowed by a longer recorded path with the same root:
        # 'S.quote.price' subsumes nothing here, but a bare ('S',) recorded
        # from a different sub-expression is kept -- it is a real read.
        return frozenset(paths)

    def evaluate(self, context, functions=None):
        """Evaluate against ``context`` (name -> state dict / scalar).

        Only the names the expression reads are bound.  Context (data)
        shadows functions, which shadow the safe builtins -- like local
        names shadow builtins in Python: a record field named ``max`` is
        data.  The names are bound as the expression's globals, so a
        comprehension body sees them too.
        """
        scope = {"__builtins__": {}}
        missing = []
        for name in self.names:
            if name in context:
                scope[name] = _wrap(context[name])
            elif functions and name in functions:
                scope[name] = functions[name]
            elif name in SAFE_BUILTINS:
                scope[name] = SAFE_BUILTINS[name]
            else:
                missing.append(name)
        if missing:
            raise ExpressionError(
                f"unbound name(s) {sorted(missing)} in {self.source!r}"
            )
        try:
            result = eval(self._code, scope)  # noqa: S307 -- validated AST
            return unwrap(result)
        except ExpressionError:
            raise
        except Exception as exc:
            raise ExpressionError(
                f"evaluation of {self.source!r} failed: {exc}"
            ) from exc

    def __repr__(self):
        return f"<SafeExpression {self.source!r}>"
