"""Reference Cayley route expansion: the per-generator masked walk.

A verbatim copy of the route builder's original hop expansion and
factor-split generator-matrix assembly, kept as the pin for the
move-table walk in :mod:`repro.simulation.flow`: for every flow batch the
production builder must return the same ``hops``, ``lengths`` and
``gen_idx`` arrays, dtypes and shapes included.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fastgraph.codecs import codec_for


def _expand_gen_matrix(
    codec: Any,
    generators: tuple[Any, ...],
    sources: np.ndarray,
    gen_mat: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Turn per-flow generator words into per-flow node-rank hop arrays."""
    flows, max_len = gen_mat.shape
    hops = np.full((flows, max_len), -1, dtype=np.int64)
    cur = sources.astype(np.int64, copy=True)
    for k in range(max_len):
        active = np.flatnonzero(lengths > k)
        if not len(active):
            break
        col = gen_mat[active, k]
        for gi, gen in enumerate(generators):
            sub = active[col == gi]
            if len(sub):
                cur[sub] = codec.apply_generator(cur[sub], gen)
        hops[active, k] = cur[active]
    return hops


def reference_routes(
    topology: Any, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hops, lengths, gen_idx)`` of the original Cayley route builder."""
    gens = topology.gens
    codec = codec_for(topology)
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    oracle = topology.cayley.oracle
    delta = codec.multiply_block(codec.inverse_block(src), dst)
    split = oracle.factor_split()
    if split is not None:
        left, left_index, right, right_index = split
        lw, ld = left.word_table()
        rw, rd = right.word_table()
        # lift factor-local generator indices to parent positions
        lw = np.where(lw >= 0, np.asarray(left_index, dtype=np.int16)[lw], np.int16(-1))
        rw = np.where(rw >= 0, np.asarray(right_index, dtype=np.int16)[rw], np.int16(-1))
        nr = codec.right.num_nodes
        dl, dr = np.divmod(delta, nr)
        len_l = ld[dl]
        len_r = rd[dr]
        lengths = len_l + len_r
        gen_mat = np.full((len(src), lw.shape[1] + rw.shape[1]), -1, dtype=np.int16)
        gen_mat[:, : lw.shape[1]] = lw[dl]
        right_rows = rw[dr]
        for k in range(rw.shape[1]):
            rows = np.flatnonzero(len_r > k)
            if not len(rows):
                break
            gen_mat[rows, len_l[rows] + k] = right_rows[rows, k]
    else:
        words, dist = oracle.word_table()
        gen_mat = words[delta]
        lengths = dist[delta]
    max_len = int(lengths.max()) if len(lengths) else 0
    gen_mat = gen_mat[:, :max_len]
    hops = _expand_gen_matrix(codec, gens.generators, src, gen_mat, lengths)
    return hops, lengths.astype(np.int64), gen_mat
