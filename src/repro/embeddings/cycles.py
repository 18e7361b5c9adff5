"""Cycle embeddings (Remark 9, Lemma 1, Lemma 2).

Three layers, mirroring the paper's argument:

1. **Factor cycles.**  ``hypercube_cycle(m, k)`` constructs a ``k``-cycle in
   ``H_m`` for every even ``4 ≤ k ≤ 2^m`` (two Gray-code rows).
   ``butterfly_cycle(n, L)`` constructs cycles in ``B_n`` by *hook
   expansion*: starting from the straight ``n``-cycle of word 0, a straight
   edge can be replaced by a +2 short hook or a +n full lap into a fresh
   word (see :class:`_CycleBuilder`).  Lapping every word along the
   binomial spanning tree of the word hypercube yields a fully constructive
   Hamiltonian cycle; mixing laps and short hooks realises the paper's
   ``kn + 2k'`` family — every even length in ``[4, n·2^n]``.

2. **Torus cycles** (Lemma 1).  ``torus_cycle(n1, n2, k)`` builds every even
   ``4 ≤ k ≤ n1·n2`` inside the wrap-around mesh when a side is even, via a
   two-row base plus comb teeth, with a boustrophedon special case for the
   Hamiltonian length.

3. **Hyper-butterfly cycles** (Lemma 2).  ``hb_even_cycle(hb, k)`` picks a
   hypercube cycle ``C(n1)`` and a butterfly cycle ``C(n2)`` with
   ``n1·n2 ≥ k``, embeds the torus ``C(n1) × C(n2)`` into
   ``H_m × B_n = HB``, and places the Lemma 1 cycle inside it (with a prism
   construction when ``n1 = 2`` and direct butterfly cycles when ``m = 0``).

Reproduction note: Lemma 2's full range ``4 ≤ k ≤ n·2^{m+n}`` needs a
Hamiltonian cycle of ``B_n``, which the paper inherits from [7] without
proof.  We supply an explicit construction (binomial-tree lap expansion,
:func:`butterfly_hamiltonian_cycle`), making the whole range constructive
for every ``n``; :func:`hb_even_cycle_max_length` reports the range.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro._bits import gray_code
from repro.errors import EmbeddingError, InvalidParameterError
from repro.topologies.butterfly_cayley import classic_to_cayley

if TYPE_CHECKING:
    from repro.core.hyperbutterfly import HyperButterfly

__all__ = [
    "hypercube_cycle",
    "butterfly_cycle",
    "butterfly_cycle_lengths",
    "butterfly_hamiltonian_cycle",
    "torus_cycle",
    "hb_even_cycle",
    "hb_even_cycle_max_length",
]


# --------------------------------------------------------------------------
# Hypercube cycles (Remark 9, first half)
# --------------------------------------------------------------------------


def hypercube_cycle(m: int, k: int) -> list[int]:
    """A ``k``-cycle in ``H_m`` as a word list, for even ``4 <= k <= 2^m``.

    Construction: a Gray-code path of ``k/2`` words in ``H_{m-1}`` (low
    bits), traversed forward in the bottom row and backward in the top row
    (high bit set); the two rung edges close the cycle.
    """
    if k % 2 or not 4 <= k <= (1 << m):
        raise EmbeddingError(
            f"H_{m} contains k-cycles exactly for even 4 <= k <= {1 << m}; got {k}"
        )
    half = k // 2
    top = 1 << (m - 1)
    row = [gray_code(i) for i in range(half)]
    return row + [w | top for w in reversed(row)]


# --------------------------------------------------------------------------
# Butterfly cycles (Remark 9, second half; [7])
# --------------------------------------------------------------------------


class _CycleBuilder:
    """Grows a ``B_n`` cycle by *hook expansion* (classic coordinates).

    Start from the straight ``n``-cycle of word 0.  Two expansion moves,
    both replacing a straight edge ``(w, ℓ)–(w, ℓ+1)`` currently on the
    cycle (write ``w' = w ⊕ e_ℓ`` for the hook word):

    * **short hook** (+2): detour through ``(w', ℓ+1)`` and ``(w', ℓ)`` —
      the cross/straight/cross triangle — usable when both nodes are free;
    * **full lap** (+n): cross into ``(w', ℓ+1)``, run straight all the way
      around ``w'`` to ``(w', ℓ)``, cross back to ``(w, ℓ+1)`` — covers
      *every* node of ``w'``, usable when the whole word is free.

    Lapping words along the binomial spanning tree of the word hypercube
    (parent = clear the lowest set bit; the entry position of ``x`` is
    ``low(x)``, strictly above the positions of all its children, so the
    needed straight edge is always still present) visits every word —
    a fully constructive **Hamiltonian cycle** of ``B_n`` for every ``n``,
    a construction the paper only cites ([7]) without giving.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.cycle: list[tuple[int, int]] = [(0, level) for level in range(n)]
        self.used: set[tuple[int, int]] = set(self.cycle)
        self.used_words: set[int] = {0}

    def __len__(self) -> int:
        return len(self.cycle)

    def _find_straight_edge(
        self, predicate: Callable[[int, int], bool]
    ) -> tuple[int, int, int] | None:
        """First cycle index with a straight edge whose hook satisfies
        ``predicate(hook_word)``; returns ``(index, word, position)``."""
        n = self.n
        for idx, a in enumerate(self.cycle):
            b = self.cycle[(idx + 1) % len(self.cycle)]
            if a[0] != b[0]:
                continue
            la, lb = a[1], b[1]
            pos = n - 1 if {la, lb} == {0, n - 1} else min(la, lb)
            hook_word = a[0] ^ (1 << pos)
            if predicate(hook_word, pos):
                return idx, a[0], pos
        return None

    def _insert(self, idx: int, nodes: list[tuple[int, int]]) -> None:
        self.cycle[idx + 1 : idx + 1] = nodes
        self.used.update(nodes)

    def short_hook(self) -> bool:
        """Apply one +2 short hook; ``False`` if no straight edge admits one."""
        n = self.n

        def ok(word: int, pos: int) -> bool:
            return (word, (pos + 1) % n) not in self.used and (
                word,
                pos,
            ) not in self.used

        found = self._find_straight_edge(ok)
        if found is None:
            return False
        idx, w, pos = found
        up = (pos + 1) % n
        hook_word = w ^ (1 << pos)
        a_level = self.cycle[idx][1]
        pair = [(hook_word, up), (hook_word, pos)]
        if a_level != pos:  # edge traversed downward: reverse the hook
            pair.reverse()
        self._insert(idx, pair)
        return True

    def lap(self, target_word: int | None = None) -> bool:
        """Apply one +n full lap into a completely fresh word."""
        n = self.n

        def ok(word: int, pos: int) -> bool:
            if word in self.used_words:
                return False
            return target_word is None or word == target_word

        found = self._find_straight_edge(ok)
        if found is None:
            return False
        idx, w, pos = found
        hook_word = w ^ (1 << pos)
        a_level = self.cycle[idx][1]
        # lap path from (hook, pos+1) straight around to (hook, pos)
        lap_nodes = [(hook_word, (pos + 1 + t) % n) for t in range(n)]
        if a_level != pos:  # edge traversed downward: reverse the lap
            lap_nodes.reverse()
        self._insert(idx, lap_nodes)
        self.used_words.add(hook_word)
        return True


def butterfly_hamiltonian_cycle(n: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle of ``B_n``, Cayley ``(PI, CI)`` coordinates.

    Constructive for every ``n >= 3``: lap every nonzero word in binomial-
    spanning-tree order (see :class:`_CycleBuilder`).  ``O(n·2^n)`` output
    size dominates the cost.
    """
    if n < 3:
        raise InvalidParameterError(f"butterfly order must be >= 3, got {n}")
    builder = _CycleBuilder(n)
    words = sorted(range(1, 1 << n), key=lambda x: (x.bit_count(), x))
    for word in words:
        if not builder.lap(target_word=word):
            raise EmbeddingError(
                f"binomial lap order failed at word {word:b} (internal bug)"
            )
    assert len(builder) == n << n
    return [classic_to_cayley(v) for v in builder.cycle]


def _four_cycle_classic(n: int) -> list[tuple[int, int]]:
    """The 4-cycle alternating straight and cross edges at position 0:
    ``(0,0) –s– (0,1) –x– (e_0,0) –s– (e_0,1) –x– (0,0)``."""
    return [(0, 0), (0, 1), (1, 0), (1, 1)]


def _butterfly_cycle_classic(n: int, length: int) -> list[tuple[int, int]] | None:
    """Core constructor; returns classic coordinates or ``None``.

    Decomposes ``length = k·n + 2s`` (``k`` lapped words, ``s`` short
    hooks) and expands greedily; special cases for the straight ``n``-cycle
    and the 4-cycle.  Together these realise every even length in
    ``[4, n·2^n]`` (and, for odd ``n``, many odd lengths as well) — the
    ``kn + 2k'`` family of [7] plus its Hamiltonian endpoint.
    """
    if length < 3 or length > n << n:
        return None
    if length == n:
        return [(0, level) for level in range(n)]
    if length == 4:
        return _four_cycle_classic(n)
    words_sorted = sorted(range(1, 1 << n), key=lambda x: (x.bit_count(), x))
    for k in range(min(1 << n, length // n), 0, -1):
        rest = length - k * n
        if rest < 0 or rest % 2:
            continue
        s = rest // 2
        builder = _CycleBuilder(n)
        ok = True
        for word in words_sorted[: k - 1]:  # word 0 is the base
            if not builder.lap(target_word=word):
                ok = False
                break
        if not ok:
            continue
        while s and builder.short_hook():
            s -= 1
        if s == 0:
            return builder.cycle
    return None


def butterfly_cycle(n: int, length: int) -> list[tuple[int, int]]:
    """A simple cycle of the given ``length`` in ``B_n``, Cayley coords.

    Raises :class:`EmbeddingError` if this constructor cannot realise the
    length (see module docstring for the reachable family).
    """
    classic = _butterfly_cycle_classic(n, length)
    if classic is None:
        raise EmbeddingError(
            f"no constructive {length}-cycle in B_{n} "
            f"(reachable lengths: butterfly_cycle_lengths({n}))"
        )
    return [classic_to_cayley(v) for v in classic]


def butterfly_cycle_lengths(n: int, *, limit: int | None = None) -> list[int]:
    """All lengths ``butterfly_cycle(n, ·)`` can realise, by direct probing."""
    top = n << n
    if limit is not None:
        top = min(top, limit)
    out = []
    for length in range(3, top + 1):
        if _butterfly_cycle_classic(n, length) is not None:
            out.append(length)
    return out


# --------------------------------------------------------------------------
# Torus cycles (Lemma 1)
# --------------------------------------------------------------------------


def _torus_hamiltonian(n1: int, n2: int) -> list[tuple[int, int]]:
    """Boustrophedon Hamiltonian cycle of the ``n1 × n2`` torus, needing one
    even side (the only case Lemma 2 uses: hypercube cycles are even)."""
    if n2 % 2 == 0:
        cycle = []
        for j in range(n2):
            rows = range(n1) if j % 2 == 0 else range(n1 - 1, -1, -1)
            cycle.extend((i, j) for i in rows)
        return cycle
    if n1 % 2 == 0:
        return [(i, j) for (j, i) in _torus_hamiltonian(n2, n1)]
    raise EmbeddingError("torus Hamiltonian cycle requires one even side")


def torus_cycle(n1: int, n2: int, k: int) -> list[tuple[int, int]]:
    """An even ``k``-cycle in the ``n1 × n2`` wrap-around mesh (Lemma 1).

    Requires even ``k`` with ``4 <= k <= n1·n2`` and (for ``k > 2·n2``)
    an even ``n2`` or full-size boustrophedon fit; the HB layer always
    calls it with an even ``n2``.  Rows/columns are ``(i, j)`` pairs,
    ``0 <= i < n1``, ``0 <= j < n2``.
    """
    if k % 2 or k < 4 or k > n1 * n2:
        raise EmbeddingError(
            f"torus M({n1},{n2}) even cycles need 4 <= k <= {n1 * n2}, got {k}"
        )
    if k <= 2 * n2:
        t = k // 2
        return [(0, j) for j in range(t)] + [(1, j) for j in range(t - 1, -1, -1)]
    if k == n1 * n2:
        return _torus_hamiltonian(n1, n2)
    if n2 % 2:
        raise EmbeddingError(
            "comb construction needs an even number of columns for k > 2·n2"
        )
    # two-row base over all n2 columns plus comb teeth of tailored depth
    extra = (k - 2 * n2) // 2  # total extra depth over all teeth
    teeth = n2 // 2
    max_depth = n1 - 2
    if extra > teeth * max_depth:
        raise EmbeddingError(f"k={k} exceeds comb capacity of M({n1},{n2})")
    depths = [0] * teeth
    for t in range(teeth):
        grab = min(max_depth, extra)
        depths[t] = grab
        extra -= grab
        if extra == 0:
            break
    # top row rightwards; return along row 1 leftwards, dipping into each
    # comb tooth (down the right edge, across the bottom, up the left edge)
    cycle: list[tuple[int, int]] = [(0, j) for j in range(n2)]
    for j in range(n2 - 1, -1, -1):
        tooth = j // 2
        d = depths[tooth]
        if j % 2 == 1:  # right edge: walk down then across at the bottom
            cycle.extend((1 + r, j) for r in range(0, d + 1))
        else:  # left edge: arrive at the bottom, walk back up
            cycle.extend((1 + d - r, j) for r in range(0, d + 1))
    return cycle


# --------------------------------------------------------------------------
# Hyper-butterfly cycles (Lemma 2)
# --------------------------------------------------------------------------


def _lift_torus_cycle(
    cube_cycle: list[int],
    fly_cycle: list[tuple[int, int]],
    torus_nodes: list[tuple[int, int]],
) -> list:
    """Map torus coordinates ``(i, j)`` to HB nodes via the two cycles."""
    return [(cube_cycle[i], fly_cycle[j]) for (i, j) in torus_nodes]


def _best_even_butterfly_length(n: int, *, at_least: int = 0) -> int | None:
    """Largest even constructible cycle length in ``B_n`` (≥ ``at_least``).

    Since the Hamiltonian construction exists for every ``n`` this is
    simply ``n·2^n`` (always even); kept as a function so the HB layer
    stays correct if the catalog is ever restricted."""
    full = n << n
    best = None
    for length in range(full, max(4, at_least) - 1, -2):
        if _butterfly_cycle_classic(n, length) is not None:
            best = length
            break
    return best


def hb_even_cycle_max_length(hb: HyperButterfly) -> int:
    """The largest even cycle length :func:`hb_even_cycle` can construct.

    Equals the paper's full ``n·2^{m+n}`` (Lemma 2) for every ``(m, n)``,
    thanks to the constructive butterfly Hamiltonian cycle.
    """
    best_fly = _best_even_butterfly_length(hb.n)
    if best_fly is None:
        raise EmbeddingError(f"no even butterfly cycle found for n={hb.n}")
    if hb.m == 0:
        return best_fly
    return (1 << hb.m) * best_fly


def hb_even_cycle(hb: HyperButterfly, k: int) -> list:
    """An even ``k``-cycle in ``HB(m, n)`` (Lemma 2), as an HB node list.

    Strategy: pick an even butterfly cycle length ``n2`` and a hypercube
    cycle length ``n1`` (even, or the prism ``n1 = 2``) with ``n1·n2 >= k``,
    then run Lemma 1's construction inside the product torus.
    """
    if k % 2 or k < 4:
        raise EmbeddingError(f"HB even-cycle lengths must be even and >= 4, got {k}")
    m, n = hb.m, hb.n
    if m == 0:
        fly = butterfly_cycle(n, k)
        return [(0, b) for b in fly]

    # choose n2: smallest even constructible butterfly length with
    # 2^m * n2 >= k, preferring small tori; fall back to the largest.
    full_fly = n << n
    n2 = None
    needed = (k + (1 << m) - 1) >> m
    for candidate in range(max(4, needed + (needed % 2)), full_fly + 1, 2):
        if _butterfly_cycle_classic(n, candidate) is not None:
            n2 = candidate
            break
    if n2 is None:
        n2 = _best_even_butterfly_length(n, at_least=4)
    if n2 is None or (1 << m) * n2 < k:
        raise EmbeddingError(
            f"k={k} exceeds constructible range {hb_even_cycle_max_length(hb)}"
        )
    fly_cycle = butterfly_cycle(n, n2)

    # choose n1: smallest usable row count with n1 * n2 >= k
    n1 = max(2, -(-k // n2))
    if n1 % 2:
        n1 += 1
    n1 = min(n1, 1 << m)
    if n1 * n2 < k:
        raise EmbeddingError(f"k={k} exceeds torus capacity {n1 * n2}")

    if n1 == 2:
        # prism over the butterfly cycle: k = 2t, t <= n2
        t = k // 2
        cube0, cube1 = 0, 1
        top = [(cube0, fly_cycle[j]) for j in range(t)]
        bottom = [(cube1, fly_cycle[j]) for j in range(t - 1, -1, -1)]
        return top + bottom

    cube_cycle = hypercube_cycle(m, n1)
    torus_nodes = torus_cycle(n1, n2, k)
    return _lift_torus_cycle(cube_cycle, fly_cycle, torus_nodes)
