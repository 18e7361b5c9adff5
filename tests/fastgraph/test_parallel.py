"""Process-pool sweep tests: bit-identical to the serial reference.

The pooled sweep is only admissible because its reduction is provably
order-independent — these tests pin that the result is *exactly* the
serial one for every job count, batch size, and consumer-facing metric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.distance_stats import distance_profile
from repro.analysis.metrics import exact_diameter
from repro.core.hyperbutterfly import HyperButterfly
from repro.errors import DisconnectedError, InvalidParameterError
from repro.fastgraph.backend import get_fastgraph
from repro.fastgraph.parallel import SweepResult, parallel_sweep, source_chunks
from repro.topologies.debruijn import DeBruijn
from repro.topologies.mesh import Mesh
from tests.fastgraph._reference_sweep import reference_sweep


def _assert_result_dtypes(result: SweepResult) -> None:
    """Exact widths: equality checks alone pass an ``int8`` eccentricity array."""
    assert result.eccentricities.dtype == np.int64
    assert all(
        type(d) is int and type(c) is int for d, c in result.histogram.items()
    )


class TestSourceChunks:
    def test_covers_range_exactly(self):
        bounds = source_chunks(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_chunk(self):
        assert source_chunks(5, 128) == [(0, 5)]

    def test_empty(self):
        assert source_chunks(0, 4) == []


class TestDeterminism:
    @pytest.fixture(scope="class")
    def csr(self):
        return get_fastgraph(HyperButterfly(2, 3)).csr

    @pytest.fixture(scope="class")
    def serial(self, csr):
        return reference_sweep(csr)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_matches_serial_kernels_for_any_job_count(
        self, csr, serial, jobs
    ):
        ecc, hist = serial
        # 16-source chunks, so jobs > 1 really runs a pool
        result = parallel_sweep(csr, jobs=jobs, batch=16, name="HB(2,3)")
        _assert_result_dtypes(result)
        assert np.array_equal(result.eccentricities, ecc)
        assert result.histogram == hist
        assert result.diameter() == int(ecc.max())

    @pytest.mark.parametrize("batch", [1, 7, 96, 128])
    def test_batch_size_never_changes_the_result(self, csr, serial, batch):
        ecc, hist = serial
        result = parallel_sweep(csr, jobs=2, batch=batch, name="HB(2,3)")
        assert np.array_equal(result.eccentricities, ecc)
        assert result.histogram == hist

    def test_irregular_topology(self):
        csr = get_fastgraph(DeBruijn(3), allow_enumeration=True).csr
        serial = parallel_sweep(csr, jobs=1, check_connected=False)
        pooled = parallel_sweep(csr, jobs=2, batch=3, check_connected=False)
        assert np.array_equal(
            pooled.eccentricities, serial.eccentricities
        )
        assert pooled.histogram == serial.histogram


class TestStartMethod:
    """The pool pins the spawn start method; spawned workers match serial."""

    def test_spawn_pool_is_bit_identical_to_serial(self):
        csr = get_fastgraph(HyperButterfly(2, 3)).csr
        serial = parallel_sweep(csr, jobs=1, batch=16, name="HB(2,3)")
        pooled = parallel_sweep(csr, jobs=2, batch=16, name="HB(2,3)")
        assert np.array_equal(pooled.eccentricities, serial.eccentricities)
        assert pooled.histogram == serial.histogram


class TestValidation:
    def test_rejects_bad_jobs(self):
        csr = get_fastgraph(HyperButterfly(2, 3)).csr
        with pytest.raises(InvalidParameterError):
            parallel_sweep(csr, jobs=0)
        with pytest.raises(InvalidParameterError):
            parallel_sweep(csr, batch=0)

    def test_disconnected_raises(self):
        # two isolated nodes: indptr [0,0,0], no arcs
        from repro.fastgraph.csr import CSRAdjacency

        csr = CSRAdjacency(
            indptr=np.array([0, 0, 0], dtype=np.int64),
            indices=np.array([], dtype=np.int32),
        )
        with pytest.raises(DisconnectedError):
            parallel_sweep(csr, jobs=1, name="two points")
        result = parallel_sweep(csr, jobs=1, check_connected=False)
        assert isinstance(result, SweepResult)
        assert result.histogram == {0: 2}


class TestPayloadKinds:
    """Codec (implicit) payloads vs CSR payloads: bit-identical reductions.

    The pool ships either CSR arrays or a tiny picklable codec; both kinds
    must reduce to exactly the same result for every job count, and the
    implicit workers must never require a CSR at all.
    """

    @pytest.fixture(scope="class")
    def fast(self):
        return get_fastgraph(HyperButterfly(2, 3))

    @pytest.fixture(scope="class")
    def csr_reference(self, fast):
        return parallel_sweep(fast.csr, jobs=1, batch=16, name="HB(2,3)")

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_codec_payload_matches_csr_payload(self, fast, csr_reference, jobs):
        result = parallel_sweep(fast.codec, jobs=jobs, batch=16, name="HB(2,3)")
        _assert_result_dtypes(result)
        assert np.array_equal(
            result.eccentricities, csr_reference.eccentricities
        )
        assert result.histogram == csr_reference.histogram

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_irregular_codec_payload(self, jobs):
        fast = get_fastgraph(DeBruijn(3))
        reference = parallel_sweep(fast.csr, jobs=1, batch=3, check_connected=False)
        pooled = parallel_sweep(
            fast.codec, jobs=jobs, batch=3, check_connected=False
        )
        assert np.array_equal(pooled.eccentricities, reference.eccentricities)
        assert pooled.histogram == reference.histogram

    def test_rejects_codec_without_implicit_support(self):
        from repro.topologies.mesh import Torus

        fast = get_fastgraph(Mesh(4, 3))
        with pytest.raises(InvalidParameterError):
            parallel_sweep(fast.codec, jobs=1)
        # a supported codec of the same pair shape sails through
        torus = get_fastgraph(Torus(3, 4))
        result = parallel_sweep(torus.codec, jobs=1, name="M(3,4)")
        assert isinstance(result, SweepResult)


class TestConsumers:
    """jobs>1 plumbed through the public metric entry points."""

    def test_exact_diameter_jobs_matches_serial(self):
        mesh = Mesh(4, 5)  # not vertex transitive, not a product
        serial = exact_diameter(mesh, force_generic=True)
        pooled = exact_diameter(mesh, force_generic=True, jobs=2)
        assert serial == pooled == 7

    def test_distance_profile_jobs_matches_serial(self, hb23):
        serial = distance_profile(hb23, force_generic=True)
        pooled = distance_profile(hb23, force_generic=True, jobs=2)
        assert serial == pooled
