"""Dense integer-index fast graph backend (codecs + CSR + array BFS).

See :mod:`repro.fastgraph.codecs` for the node ↔ dense-int codecs and the
registry, :mod:`repro.fastgraph.csr` for CSR adjacency construction and
the disk cache, :mod:`repro.fastgraph.kernels` for the vectorized BFS
kernels, :mod:`repro.fastgraph.implicit` for the CSR-free kernels that
expand frontiers straight from packed ranks, :mod:`repro.fastgraph.parallel`
for the process-pool all-sources sweep (either substrate), and
:mod:`repro.fastgraph.backend` for the per-topology integration point
(:func:`get_fastgraph`).

Only the backend and the codec registry are re-exported here; ``csr``,
``kernels``, ``implicit`` and ``parallel`` are imported by their
consumers.  numpy (>= 2.0) is a hard requirement of every module.

The "Fast backend" section of ``docs/architecture.md`` documents how a
topology gets its codec and which substrate answers a call.
"""

from repro.fastgraph.backend import FastGraph, get_fastgraph
from repro.fastgraph.codecs import (
    NodeCodec,
    codec_for,
    codec_for_group,
    register_codec,
)
__all__ = [
    "FastGraph",
    "get_fastgraph",
    "NodeCodec",
    "codec_for",
    "codec_for_group",
    "register_codec",
]
