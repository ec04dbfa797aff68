"""Tests for repro.simulation.comparison and experiment presets."""

import pytest

from repro.errors import SimulationError
from repro.simulation.comparison import (
    PAPER_CLUSTER_SIZES,
    PAPER_SCHEMES,
    build_scheme,
    compare_schemes,
    results_by_scheme,
    run_scheme,
    single_node_deduplication_ratio,
)
from repro.simulation.experiment import standard_workload
from repro.workloads.mail import MailWorkload
from repro.workloads.trace import materialize_workload
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.chunking.fixed import StaticChunker


@pytest.fixture(scope="module")
def linux_snapshots():
    workload = VersionedSourceWorkload(num_versions=4, files_per_version=40, mean_file_size=4096)
    return materialize_workload(workload, chunker=StaticChunker(1024))


@pytest.fixture(scope="module")
def mail_snapshots():
    return materialize_workload(MailWorkload(num_days=3, chunks_per_day=2000))


class TestBuildScheme:
    def test_known_names(self):
        for name in PAPER_SCHEMES:
            assert build_scheme(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError):
            build_scheme("teleport")

    def test_kwargs_forwarded(self):
        scheme = build_scheme("sigma", use_load_balance=False)
        assert scheme.use_load_balance is False


class TestRunScheme:
    def test_accepts_name_or_instance(self, linux_snapshots):
        by_name = run_scheme(linux_snapshots, "stateless", 4, superchunk_size=16 * 1024)
        by_instance = run_scheme(
            linux_snapshots, build_scheme("stateless"), 4, superchunk_size=16 * 1024
        )
        assert by_name.cluster_deduplication_ratio == by_instance.cluster_deduplication_ratio

    def test_single_node_dr_computed_automatically(self, linux_snapshots):
        result = run_scheme(linux_snapshots, "sigma", 2, superchunk_size=16 * 1024)
        expected = single_node_deduplication_ratio(linux_snapshots)
        assert result.single_node_deduplication_ratio == pytest.approx(expected)

    def test_single_node_cluster_achieves_exact_dedup(self, linux_snapshots):
        result = run_scheme(linux_snapshots, "sigma", 1, superchunk_size=16 * 1024)
        assert result.normalized_deduplication_ratio == pytest.approx(1.0)


class TestCompareSchemes:
    def test_produces_one_result_per_scheme_and_size(self, linux_snapshots):
        results = compare_schemes(
            linux_snapshots,
            schemes=("sigma", "stateless"),
            cluster_sizes=(1, 2, 4),
            superchunk_size=16 * 1024,
        )
        assert len(results) == 6

    def test_file_scheme_skipped_on_traces(self, mail_snapshots):
        results = compare_schemes(
            mail_snapshots,
            schemes=("sigma", "extreme_binning"),
            cluster_sizes=(2,),
            superchunk_size=64 * 4096,
        )
        assert {result.scheme for result in results} == {"sigma"}

    def test_file_scheme_error_when_not_skipping(self, mail_snapshots):
        with pytest.raises(SimulationError):
            compare_schemes(
                mail_snapshots,
                schemes=("extreme_binning",),
                cluster_sizes=(2,),
                skip_unsupported=False,
            )

    def test_results_by_scheme_sorted(self, linux_snapshots):
        results = compare_schemes(
            linux_snapshots,
            schemes=("sigma",),
            cluster_sizes=(4, 1, 2),
            superchunk_size=16 * 1024,
        )
        grouped = results_by_scheme(results)
        assert [r.num_nodes for r in grouped["sigma"]] == [1, 2, 4]

    def test_paper_constants(self):
        assert PAPER_CLUSTER_SIZES[-1] == 128
        assert set(PAPER_SCHEMES) == {"sigma", "stateful", "stateless", "extreme_binning"}


class TestOrderingInvariants:
    """Qualitative invariants from the paper on a small but sufficient trace."""

    def test_sigma_beats_stateless_on_linux(self, linux_snapshots):
        sigma = run_scheme(linux_snapshots, "sigma", 8, superchunk_size=16 * 1024)
        stateless = run_scheme(linux_snapshots, "stateless", 8, superchunk_size=16 * 1024)
        assert (
            sigma.normalized_effective_deduplication_ratio
            >= stateless.normalized_effective_deduplication_ratio
        )

    def test_stateful_has_highest_cluster_dedup_ratio(self, linux_snapshots):
        stateful = run_scheme(linux_snapshots, "stateful", 8, superchunk_size=16 * 1024)
        stateless = run_scheme(linux_snapshots, "stateless", 8, superchunk_size=16 * 1024)
        assert stateful.cluster_deduplication_ratio >= stateless.cluster_deduplication_ratio

    def test_stateful_messages_grow_with_cluster_size(self, linux_snapshots):
        small = run_scheme(linux_snapshots, "stateful", 4, superchunk_size=16 * 1024)
        large = run_scheme(linux_snapshots, "stateful", 16, superchunk_size=16 * 1024)
        # The broadcast (pre-routing) component scales linearly with the
        # cluster size: 4x the nodes means 4x the pre-routing lookups.
        assert large.messages.pre_routing == 4 * small.messages.pre_routing
        assert large.fingerprint_lookup_messages > small.fingerprint_lookup_messages

    def test_sigma_messages_roughly_constant_in_cluster_size(self, linux_snapshots):
        # Once the cluster is larger than the handprint size, the candidate set
        # saturates at k nodes, so the pre-routing overhead stops growing.
        small = run_scheme(linux_snapshots, "sigma", 16, superchunk_size=16 * 1024)
        large = run_scheme(linux_snapshots, "sigma", 64, superchunk_size=16 * 1024)
        assert large.fingerprint_lookup_messages <= small.fingerprint_lookup_messages * 1.2

    def test_stateless_messages_independent_of_cluster_size(self, linux_snapshots):
        small = run_scheme(linux_snapshots, "stateless", 4, superchunk_size=16 * 1024)
        large = run_scheme(linux_snapshots, "stateless", 32, superchunk_size=16 * 1024)
        assert small.fingerprint_lookup_messages == large.fingerprint_lookup_messages

    def test_dedup_degrades_with_cluster_size(self, linux_snapshots):
        one = run_scheme(linux_snapshots, "sigma", 1, superchunk_size=16 * 1024)
        many = run_scheme(linux_snapshots, "sigma", 16, superchunk_size=16 * 1024)
        assert many.cluster_deduplication_ratio <= one.cluster_deduplication_ratio + 1e-9


class TestExperimentPresets:
    def test_standard_workload_names(self):
        for name in ("linux", "vm", "mail", "web"):
            workload = standard_workload(name, scale="tiny")
            assert workload.name == name

    def test_unknown_workload_raises(self):
        with pytest.raises(SimulationError):
            standard_workload("oracle", scale="tiny")

    def test_unknown_scale_raises(self):
        with pytest.raises(SimulationError):
            standard_workload("linux", scale="galactic")

    def test_scales_grow(self):
        tiny = standard_workload("mail", "tiny").describe()
        small = standard_workload("mail", "small").describe()
        assert small["logical_bytes"] > tiny["logical_bytes"]
