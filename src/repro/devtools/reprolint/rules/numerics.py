"""Numerics rules (HB3xx).

The analysis layer compares measured quantities (mean stretch, delivery
ratios, bisection bounds) against the paper's closed forms.  Exact
``==``/``!=`` on float arithmetic is how those comparisons silently rot
across numpy versions and platforms — require ``math.isclose`` or an
explicit tolerance instead.  HB604 keeps platform-width integer dtypes
(``np.intp``, ``dtype=int``) out of the packed-label kernels and the
artefacts they feed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.reprolint.context import FileContext
from repro.devtools.reprolint.findings import Finding
from repro.devtools.reprolint.registry import register_rule
from repro.devtools.reprolint.rules.base import FileRule

__all__ = [
    "FloatLiteralEqualityRule",
    "DivisionEqualityRule",
    "PlatformWidthDTypeRule",
]


def _compare_sides(node: ast.Compare) -> Iterator[tuple[ast.cmpop, ast.expr, ast.expr]]:
    left = node.left
    for op, right in zip(node.ops, node.comparators, strict=True):
        yield op, left, right
        left = right


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # cover the unary-minus spelling: -1.5
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


@register_rule
class FloatLiteralEqualityRule(FileRule):
    rule_id = "HB301"
    title = "no ==/!= against float literals"
    rationale = (
        "exact equality against a float literal (ratio == 0.5) is only "
        "correct when the computation is bit-for-bit stable; use "
        "math.isclose(x, 0.5, ...) with an explicit tolerance, or suppress "
        "with justification where exactness is itself the property under "
        "test"
    )

    fixture_hits = (
        "def check(ratio):\n"
        "    return ratio == 0.5\n"
    )
    fixture_clean = (
        "import math\n"
        "\n"
        "def check(ratio, count):\n"
        "    return math.isclose(ratio, 0.5, rel_tol=1e-9) and count == 3\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            for op, lhs, rhs in _compare_sides(node):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(lhs) or _is_float_literal(rhs):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "exact ==/!= against a float literal; use "
                        "math.isclose with an explicit tolerance",
                    )
                    break


@register_rule
class DivisionEqualityRule(FileRule):
    rule_id = "HB302"
    title = "no ==/!= on true-division results"
    rationale = (
        "a / b produces a float even for int operands, so comparing the "
        "quotient exactly inherits rounding; compare cross-multiplied "
        "integers (a * d == c * b), use //, or math.isclose"
    )

    fixture_hits = (
        "def same_rate(a, b, c, d):\n"
        "    return a / b == c / d\n"
    )
    fixture_clean = (
        "def same_rate(a, b, c, d):\n"
        "    return a * d == c * b or a // b == c // d\n"
    )

    @staticmethod
    def _is_true_division(node: ast.expr) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            for op, lhs, rhs in _compare_sides(node):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_true_division(lhs) or self._is_true_division(rhs):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "exact ==/!= on a true-division result; compare "
                        "cross-multiplied integers or use math.isclose",
                    )
                    break


@register_rule
class PlatformWidthDTypeRule(FileRule):
    rule_id = "HB604"
    title = "no platform-width dtypes in library code"
    rationale = (
        "np.int_/np.intp/np.uint/np.uintp (and dtype=int) resolve to "
        "whatever width the platform's C toolchain picked — artefacts, "
        "codecs, and on-disk caches written with them are not portable "
        "and silently change meaning across platforms; always spell the "
        "width (np.int64, np.uint64, ...)"
    )

    _PLATFORM = frozenset(
        {
            "numpy.int_",
            "numpy.intp",
            "numpy.intc",
            "numpy.uint",
            "numpy.uintp",
            "numpy.uintc",
            "numpy.long",
            "numpy.ulong",
            "numpy.longlong",
            "numpy.ulonglong",
        }
    )

    fixture_hits = (
        "import numpy as np\n"
        "\n"
        "def persist(n: int) -> np.ndarray:\n"
        "    return np.zeros(n, dtype=np.intp)\n"
    )
    fixture_clean = (
        "import numpy as np\n"
        "\n"
        "def persist(n: int) -> np.ndarray:\n"
        "    return np.zeros(n, dtype=np.int64)\n"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_library:
            return
        imports = ctx.imports
        for node in ctx.nodes:
            if isinstance(node, (ast.Attribute, ast.Name)):
                canonical = imports.resolve(node)
                if canonical in self._PLATFORM:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{canonical.rsplit('.', 1)[-1]} is a platform-width "
                        "alias; spell the width explicitly (np.int64, "
                        "np.uint64, ...)",
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "dtype"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id == "int"
                        and imports.resolve(kw.value) == "int"
                    ):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            "dtype=int means the platform default integer; "
                            "spell the width explicitly (np.int64)",
                        )
