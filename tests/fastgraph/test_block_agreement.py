"""Property-grid agreement: ``neighbors_block`` vs ``Topology.neighbors``.

The implicit BFS backend trusts ``NodeCodec.neighbors_block`` rows to be
exactly the ranked scalar adjacency (padding aside) — the contract
``hyperbutterfly prove`` checks at its spec grids.  This test keeps the
same contract inside the tier-1 suite: it sweeps *every* registered codec
family over its invariant-spec small grids, so a new codec cannot land
without its vectorised kernel being held to the scalar one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro  # noqa: F401  — registers every family's invariant spec
from repro.fastgraph.codecs import codec_for, registered_codec_families
from repro.topologies.invariants import all_invariant_specs

#: grids larger than this are left to `hyperbutterfly prove`
NODE_CAP = 1 << 13


def _grid():
    specs = all_invariant_specs()
    cases = []
    for family in registered_codec_families():
        spec = specs.get(family)
        if spec is None:
            continue
        for point in spec.small:
            cases.append(pytest.param(spec, point, id=f"{family}{point}"))
    return cases


@pytest.mark.parametrize("spec, point", _grid())
def test_block_rows_equal_ranked_scalar_neighbors(spec, point):
    topo = spec.build_instance(point)
    if topo.num_nodes > NODE_CAP:
        pytest.skip(f"{spec.family}{point}: past the enumeration cap")
    codec = codec_for(topo)
    if codec is None:
        pytest.skip(f"{spec.family}: factory declined the instance")
    if not codec.supports_implicit():
        pytest.skip(f"{spec.family}: codec has no implicit adjacency")
    n = topo.num_nodes
    rows = codec.neighbors_block(np.arange(n, dtype=np.int64))
    assert rows.shape[0] == n
    for idx in range(n):
        block = [int(e) for e in rows[idx] if e >= 0]
        scalar = [codec.rank(u) for u in topo.neighbors(codec.unrank(idx))]
        assert block == scalar, (spec.family, point, idx)
        # padding may sit anywhere in the row (the implicit BFS kernel
        # masks negatives, it does not stop at the first one) but must be
        # exactly -1 so out-of-range ranks can never masquerade as padding
        assert all(int(e) == -1 for e in rows[idx] if e < 0), (
            spec.family,
            point,
            idx,
        )


def test_every_registered_family_is_swept():
    # the grid must actually cover the paper families — an empty
    # parametrization would pass vacuously
    families = {spec.family for spec, _ in (p.values for p in _grid())}
    for family in ("HyperButterfly", "Hypercube", "WrappedButterfly",
                   "CayleyButterfly", "DeBruijn", "Cycle", "Torus"):
        assert family in families, family
