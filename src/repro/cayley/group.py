"""Finite groups underlying the topologies of the paper.

Three groups matter here:

* ``HypercubeGroup(m)`` — the elementary abelian group ``(Z_2)^m`` whose
  Cayley graph over the ``m`` unit generators is the hypercube ``H_m``.
* ``ButterflyGroup(n)`` — the semidirect product ``Z_n ⋉ (Z_2)^n`` (the
  wreath-like group of Vadapalli & Srimani [4]); its Cayley graph over
  ``{g, f, g^{-1}, f^{-1}}`` is the wrapped butterfly ``B_n``.
* ``DirectProductGroup`` — used to realise ``HB(m, n)`` as the Cayley graph
  of ``(Z_2)^m × (Z_n ⋉ (Z_2)^n)`` over the ``m + 4`` generators of
  Definition 3 / Remark 3.

Element encodings are hashable tuples/ints so they can serve directly as
graph node labels.

Butterfly element encoding
--------------------------

A butterfly group element is a pair ``(x, c)`` where ``x ∈ Z_n`` is the
*permutation index* (Definition 1 of the paper: the number of left shifts
from the identity permutation) and ``c`` is an ``n``-bit word of
complementation flags indexed **by symbol** (bit ``k`` of ``c`` says whether
symbol ``t_k`` is complemented), so ``c`` encodes the *complementation
index* of Definition 2 directly as ``CI = c``.

The product rule is ``(x1, c1) · (x2, c2) = (x1 + x2 mod n,
c1 XOR rot(c2, x1))`` with ``rot`` the bit rotation of :mod:`repro._bits`.
Under this rule the four paper generators are::

    g    = (1, 0)          f    = (1, e_0)
    g^-1 = (n-1, 0)        f^-1 = (n-1, e_{n-1})

and right-multiplication reproduces exactly the label rewritings of
Section 2.1 of the paper (verified in ``tests/cayley/test_group.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

from repro._bits import rotate_left
from repro.errors import InvalidParameterError

__all__ = [
    "Group",
    "HypercubeGroup",
    "ButterflyGroup",
    "DirectProductGroup",
    "GeneratorSet",
]


class Group:
    """Minimal finite-group interface used by the Cayley machinery.

    Subclasses define the element universe (any hashable objects), the
    product, the inverse, and the identity.  The interface is deliberately
    small: it is exactly what :class:`repro.cayley.graph.CayleyGraph` needs.
    """

    def identity(self) -> Hashable:
        raise NotImplementedError

    def multiply(self, a: Hashable, b: Hashable) -> Hashable:
        raise NotImplementedError

    def inverse(self, a: Hashable) -> Hashable:
        raise NotImplementedError

    def order(self) -> int:
        """Number of elements of the group."""
        raise NotImplementedError

    def elements(self) -> Iterator[Hashable]:
        """Iterate over every element (lexicographic where meaningful)."""
        raise NotImplementedError

    def contains(self, a: Hashable) -> bool:
        """Whether ``a`` is a valid element encoding for this group."""
        raise NotImplementedError

    # Convenience derived operations -------------------------------------

    def conjugate(self, a: Hashable, b: Hashable) -> Hashable:
        """Return ``b^{-1} a b``."""
        return self.multiply(self.multiply(self.inverse(b), a), b)

    def quotient(self, a: Hashable, b: Hashable) -> Hashable:
        """Return ``a^{-1} b`` — the translation taking ``a`` to ``b``.

        In a Cayley graph, ``dist(a, b) = dist(identity, a^{-1} b)``; this is
        the workhorse of the exact vertex-transitive routers.
        """
        return self.multiply(self.inverse(a), b)

    def power(self, a: Hashable, k: int) -> Hashable:
        """Return ``a^k`` (``k`` may be negative)."""
        if k < 0:
            return self.power(self.inverse(a), -k)
        result = self.identity()
        base = a
        while k:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result


class HypercubeGroup(Group):
    """The group ``(Z_2)^m`` with elements encoded as ``m``-bit ints."""

    def __init__(self, m: int) -> None:
        if m < 0:
            raise InvalidParameterError(f"hypercube dimension must be >= 0, got {m}")
        self.m = m

    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return a ^ b

    def inverse(self, a: int) -> int:
        return a  # every element is an involution

    def order(self) -> int:
        return 1 << self.m

    def elements(self) -> Iterator[int]:
        return iter(range(1 << self.m))

    def contains(self, a: Any) -> bool:
        return isinstance(a, int) and 0 <= a < (1 << self.m)

    def unit_generators(self) -> list[int]:
        """The ``m`` generators ``h_i = e_i`` whose Cayley graph is ``H_m``."""
        return [1 << i for i in range(self.m)]

    def __repr__(self) -> str:
        return f"HypercubeGroup(m={self.m})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HypercubeGroup) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("HypercubeGroup", self.m))


class ButterflyGroup(Group):
    """The semidirect product ``Z_n ⋉ (Z_2)^n`` behind the wrapped butterfly.

    Elements are pairs ``(x, c)`` — see the module docstring for the
    encoding and product rule.  The Cayley graph of this group over
    :meth:`butterfly_generators` is the wrapped butterfly ``B_n`` of [4]
    (and of Section 2.1 of the paper).
    """

    def __init__(self, n: int) -> None:
        if n < 3:
            raise InvalidParameterError(
                f"butterfly dimension must be >= 3 (paper Remark 3), got {n}"
            )
        self.n = n

    def identity(self) -> tuple[int, int]:
        return (0, 0)

    def multiply(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        x1, c1 = a
        x2, c2 = b
        return ((x1 + x2) % self.n, c1 ^ rotate_left(c2, x1, self.n))

    def inverse(self, a: tuple[int, int]) -> tuple[int, int]:
        x, c = a
        return ((-x) % self.n, rotate_left(c, -x, self.n))

    def order(self) -> int:
        return self.n << self.n

    def elements(self) -> Iterator[tuple[int, int]]:
        for x in range(self.n):
            for c in range(1 << self.n):
                yield (x, c)

    def contains(self, a: Any) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and isinstance(a[0], int)
            and isinstance(a[1], int)
            and 0 <= a[0] < self.n
            and 0 <= a[1] < (1 << self.n)
        )

    # The four paper generators ------------------------------------------

    def g(self) -> tuple[int, int]:
        """Left shift (paper generator ``g``)."""
        return (1, 0)

    def f(self) -> tuple[int, int]:
        """Left shift complementing the wrapped symbol (paper ``f``)."""
        return (1, 1)  # e_0

    def g_inv(self) -> tuple[int, int]:
        """Right shift (paper ``g^{-1}``)."""
        return (self.n - 1, 0)

    def f_inv(self) -> tuple[int, int]:
        """Right shift complementing the wrapped symbol (paper ``f^{-1}``)."""
        return (self.n - 1, 1 << (self.n - 1))  # e_{n-1}

    def butterfly_generators(self) -> list[tuple[int, int]]:
        """``[g, f, g^{-1}, f^{-1}]`` in the paper's order."""
        return [self.g(), self.f(), self.g_inv(), self.f_inv()]

    def __repr__(self) -> str:
        return f"ButterflyGroup(n={self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ButterflyGroup) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("ButterflyGroup", self.n))


class DirectProductGroup(Group):
    """Direct product ``G × H`` with elements ``(g, h)``.

    The hyper-butterfly group is
    ``DirectProductGroup(HypercubeGroup(m), ButterflyGroup(n))``.
    """

    def __init__(self, left: Group, right: Group) -> None:
        self.left = left
        self.right = right

    def identity(self) -> tuple[Hashable, Hashable]:
        return (self.left.identity(), self.right.identity())

    def multiply(self, a: Hashable, b: Hashable) -> tuple[Hashable, Hashable]:
        return (self.left.multiply(a[0], b[0]), self.right.multiply(a[1], b[1]))

    def inverse(self, a: Hashable) -> tuple[Hashable, Hashable]:
        return (self.left.inverse(a[0]), self.right.inverse(a[1]))

    def order(self) -> int:
        return self.left.order() * self.right.order()

    def elements(self) -> Iterator[tuple[Hashable, Hashable]]:
        for g in self.left.elements():
            for h in self.right.elements():
                yield (g, h)

    def contains(self, a: Any) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and self.left.contains(a[0])
            and self.right.contains(a[1])
        )

    def embed_left(self, g: Hashable) -> tuple[Hashable, Hashable]:
        """Lift a left-factor element to the product (identity on the right)."""
        return (g, self.right.identity())

    def embed_right(self, h: Hashable) -> tuple[Hashable, Hashable]:
        """Lift a right-factor element to the product (identity on the left)."""
        return (self.left.identity(), h)

    def __repr__(self) -> str:
        return f"DirectProductGroup({self.left!r}, {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectProductGroup)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("DirectProductGroup", self.left, self.right))


@dataclass(frozen=True)
class GeneratorSet:
    """A named, inverse-closed set of generators for a Cayley graph.

    ``names[i]`` is a human-readable name for ``generators[i]`` (for example
    ``"h_2"`` or ``"f^-1"``).  ``inverse_index[i]`` gives the position of the
    inverse of generator ``i`` (an involution maps to itself); it is computed
    on construction and validated against the group.
    """

    group: Group
    generators: tuple[Hashable, ...]
    names: tuple[str, ...]
    inverse_index: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.names):
            raise InvalidParameterError("generators and names must have equal length")
        if len(set(self.generators)) != len(self.generators):
            raise InvalidParameterError("generator set contains duplicates")
        identity = self.group.identity()
        index = {s: i for i, s in enumerate(self.generators)}
        inverse_index = []
        for i, s in enumerate(self.generators):
            if s == identity:
                raise InvalidParameterError(f"generator {self.names[i]} is the identity")
            s_inv = self.group.inverse(s)
            if s_inv not in index:
                raise InvalidParameterError(
                    f"generator set is not closed under inverse: "
                    f"{self.names[i]} has no inverse in the set"
                )
            inverse_index.append(index[s_inv])
        object.__setattr__(self, "inverse_index", tuple(inverse_index))

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.generators)

    def name_of(self, i: int) -> str:
        return self.names[i]

    def apply(self, node: Hashable, i: int) -> Hashable:
        """Right-multiply ``node`` by generator ``i`` (follow that edge)."""
        return self.group.multiply(node, self.generators[i])

    def neighbors(self, node: Hashable) -> list[Hashable]:
        """All Cayley-graph neighbors of ``node`` (may repeat if degenerate)."""
        return [self.group.multiply(node, s) for s in self.generators]

    def is_fixed_point_free(self, sample: Iterable[Hashable] | None = None) -> bool:
        """Check ``σ(v) != v`` and ``σ1(v) != σ2(v)`` for sampled vertices.

        Remark 3 of the paper asserts both properties for the hyper-butterfly
        generators whenever ``n > 2``; for a Cayley graph they only need to be
        checked at a single vertex, but a caller may pass extra samples.
        """
        nodes = list(sample) if sample is not None else [self.group.identity()]
        for v in nodes:
            images = [self.group.multiply(v, s) for s in self.generators]
            if v in images:
                return False
            if len(set(images)) != len(images):
                return False
        return True
