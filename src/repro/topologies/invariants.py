"""Per-family invariant specifications — what the paper says must hold.

Every topology family registers an :class:`InvariantSpec` describing the
structural facts its implementation is supposed to satisfy: the paper's
degree formula, regularity, the parameter grids at which the facts are
checked exhaustively, and the larger grids at which the codec's
``neighbors_block`` is run live over every rank.  The specs are *data*:
the checker that consumes them (``hyperbutterfly prove``) lives above
this layer, so declaring a spec never pulls in numpy, fastgraph, or
devtools.

Registrations are written as inline ``register_invariants(InvariantSpec(...))``
calls in each family's module, next to the class they describe.

Degree formulas are strings over the spec's parameters (``"m + 4"``) so
they read like the paper; :func:`eval_param_expr` evaluates them over a
restricted arithmetic-only expression language.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.topologies.base import Topology

__all__ = [
    "InvariantSpec",
    "register_invariants",
    "invariant_spec",
    "all_invariant_specs",
    "eval_param_expr",
]


@dataclass(frozen=True)
class InvariantSpec:
    """Declarative invariants of one topology family.

    ``family`` is the topology class name — the same key the fastgraph
    codec registry uses, so the two registries can be joined.  ``small``
    lists parameter tuples (in ``params`` order) for exhaustive
    enumeration; ``large`` lists tuples past enumeration, where ``prove``
    runs the codec's ``neighbors_block`` over every rank and checks label
    safety and (for regular families) the degree formula.
    """

    #: topology class name (codec-registry key)
    family: str
    #: constructor parameter names, in positional order
    params: tuple[str, ...]
    #: ``build(*values) -> Topology`` for a ``params``-ordered value tuple
    build: Callable[..., "Topology"] = field(compare=False)
    #: parameter tuples verified by exhaustive enumeration
    small: tuple[tuple[int, ...], ...] = ()
    #: parameter tuples checked live through the codec's ``neighbors_block``
    large: tuple[tuple[int, ...], ...] = ()
    #: exact degree of every vertex (regular families), expr over params
    degree: str | None = None
    #: degree bounds for irregular families, exprs over params
    degree_min: str | None = None
    degree_max: str | None = None
    #: whether every vertex has the same degree
    regular: bool = True
    #: where the paper states the invariant (e.g. ``"Theorem 2(1)"``)
    paper: str = ""

    def build_instance(self, values: tuple[int, ...]) -> "Topology":
        """Instantiate the family at one parameter tuple."""
        if len(values) != len(self.params):
            raise InvalidParameterError(
                f"{self.family} expects {len(self.params)} parameter(s) "
                f"{self.params}, got {values!r}"
            )
        return self.build(*values)

    def degree_at(self, values: tuple[int, ...]) -> int | None:
        """The paper's exact degree at one parameter tuple, or ``None``."""
        if self.degree is None:
            return None
        return eval_param_expr(self.degree, dict(zip(self.params, values, strict=True)))

    def degree_bounds_at(
        self, values: tuple[int, ...]
    ) -> tuple[int | None, int | None]:
        """``(min, max)`` degree bounds at one parameter tuple."""
        env = dict(zip(self.params, values, strict=True))
        exact = self.degree_at(values)
        if exact is not None:
            return (exact, exact)
        lo = eval_param_expr(self.degree_min, env) if self.degree_min else None
        hi = eval_param_expr(self.degree_max, env) if self.degree_max else None
        return (lo, hi)


_SPECS: dict[str, InvariantSpec] = {}


def register_invariants(spec: InvariantSpec) -> InvariantSpec:
    """Register (or replace) the invariant spec for ``spec.family``.

    Re-registration replaces silently so interactive reloads and test
    doubles behave; the checker reads whatever is current.
    """
    _SPECS[spec.family] = spec
    return spec


def invariant_spec(family: str) -> InvariantSpec | None:
    """The registered spec for a family name, or ``None``."""
    return _SPECS.get(family)


def all_invariant_specs() -> dict[str, InvariantSpec]:
    """Every registered spec, keyed and sorted by family name."""
    return {k: _SPECS[k] for k in sorted(_SPECS)}


# -- restricted expression evaluation ---------------------------------------

_ALLOWED_CALLS = {"min", "max", "abs"}


def eval_param_expr(expr: str, env: dict[str, int]) -> int:
    """Evaluate an arithmetic expression over integer parameters.

    Supports integer literals, the parameter names in ``env``, the binary
    operators ``+ - * // %`` and ``<< >>``, unary minus, parentheses, and
    ``min``/``max``/``abs`` calls — enough for every degree/diameter
    formula in the paper, and nothing that could execute code.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InvalidParameterError(f"bad invariant expression {expr!r}: {exc.msg}") from exc
    return _eval_expr_node(tree.body, env, expr)


def _eval_expr_node(node: ast.expr, env: dict[str, int], expr: str) -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise InvalidParameterError(
            f"invariant expression {expr!r} uses unknown parameter {node.id!r}"
        )
    if isinstance(node, ast.BinOp):
        left = _eval_expr_node(node.left, env, expr)
        right = _eval_expr_node(node.right, env, expr)
        op = node.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv):
            return left // right
        if isinstance(op, ast.Mod):
            return left % right
        if isinstance(op, ast.LShift):
            return left << right
        if isinstance(op, ast.RShift):
            return left >> right
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_expr_node(node.operand, env, expr)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ALLOWED_CALLS
        and not node.keywords
    ):
        values = [_eval_expr_node(arg, env, expr) for arg in node.args]
        if node.func.id == "min":
            return min(values)
        if node.func.id == "max":
            return max(values)
        return abs(values[0])
    raise InvalidParameterError(
        f"invariant expression {expr!r} uses an unsupported construct "
        f"({type(node).__name__})"
    )
