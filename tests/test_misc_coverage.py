"""Additional coverage for smaller public surfaces.

These tests exercise paths the module-focused suites do not: the packaging
metadata, the scheme registry, the row-major (ablation) variant of EB's index
packing, the modern-device profile, and a handful of small helpers.
"""

import pytest

import repro
from repro.air import SCHEME_REGISTRY, EllipticBoundaryScheme
from repro.air.base import QueryResult
from repro.broadcast.device import CHANNEL_2MBPS, MODERN_SMARTPHONE
from repro.broadcast.metrics import ClientMetrics
from repro.network.algorithms.dijkstra import shortest_path


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_exports(self):
        for name in ("air", "broadcast", "network", "partitioning", "experiments"):
            assert hasattr(repro, name)

    def test_scheme_registry_covers_all_paper_methods(self):
        assert set(SCHEME_REGISTRY) == {"DJ", "AF", "LD", "HiTi", "SPQ", "EB", "NR"}

    def test_scheme_registry_short_names_match_keys(self):
        for key, cls in SCHEME_REGISTRY.items():
            assert cls.short_name == key


class TestQueryResult:
    def test_found_flag(self):
        assert QueryResult(source=1, target=2, distance=3.0).found
        assert not QueryResult(source=1, target=2, distance=float("inf")).found

    def test_default_metrics(self):
        result = QueryResult(source=1, target=2, distance=0.0)
        assert isinstance(result.metrics, ClientMetrics)
        assert result.received_regions == []


class TestModernDevice:
    def test_larger_heap_than_paper_device(self):
        from repro.broadcast.device import J2ME_CLAMSHELL

        assert MODERN_SMARTPHONE.heap_bytes > J2ME_CLAMSHELL.heap_bytes

    def test_energy_model_still_charges_reception(self):
        energy = MODERN_SMARTPHONE.energy_joules(1000, 2000, 0.01, CHANNEL_2MBPS)
        assert energy > 0.0


class TestEBRowMajorPackingVariant:
    def test_row_major_scheme_still_answers_correctly(self, medium_network, query_pairs):
        scheme = EllipticBoundaryScheme(
            medium_network, num_regions=16, square_packing=False
        )
        client = scheme.client()
        for source, target in query_pairs[:4]:
            expected = shortest_path(medium_network, source, target).distance
            assert client.query(source, target).distance == pytest.approx(expected)

    def test_row_major_needed_packets_cover_more_of_the_index(self, medium_network):
        square = EllipticBoundaryScheme(medium_network, num_regions=16, square_packing=True)
        row_major = EllipticBoundaryScheme(
            medium_network, num_regions=16, square_packing=False
        )
        square_needed = len(square.needed_index_packets(0, 15))
        row_needed = len(row_major.needed_index_packets(0, 15))
        assert square_needed <= row_needed


class TestDatasetSeeds:
    def test_different_seeds_give_different_networks(self):
        from repro.network import datasets

        a = datasets.load("milan", scale=0.01, seed=1)
        b = datasets.load("milan", scale=0.01, seed=2)
        edges_a = sorted((e.source, e.target, round(e.weight, 6)) for e in a.edges())
        edges_b = sorted((e.source, e.target, round(e.weight, 6)) for e in b.edges())
        assert edges_a != edges_b
