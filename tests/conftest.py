"""Shared fixtures: small deterministic graphs and configurations."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.config import GraphRConfig
from repro.core.engine import GraphEngine
from repro.graph.coo import COOMatrix
from repro.graph.generators import chain_graph, erdos_renyi, rmat
from repro.graph.graph import Graph


@pytest.fixture
def tiny_graph() -> Graph:
    """The 8-vertex directed graph of the paper's Figure 5."""
    edges = [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (3, 0), (3, 1),
        (4, 1), (5, 0), (5, 1), (6, 0), (6, 1), (7, 1), (6, 2),
        (6, 3), (7, 2), (4, 6), (4, 7), (5, 6), (5, 7), (6, 4),
        (6, 5), (7, 4), (7, 6), (7, 7),
    ]
    return Graph.from_edges(edges, num_vertices=8, name="figure5")


@pytest.fixture
def small_weighted_graph() -> Graph:
    """64-vertex weighted R-MAT graph used across algorithm tests."""
    return rmat(6, 180, seed=5, weighted=True, name="rmat64w")


@pytest.fixture
def small_graph() -> Graph:
    """64-vertex unweighted R-MAT graph."""
    return rmat(6, 180, seed=5, weighted=False, name="rmat64")


@pytest.fixture
def medium_graph() -> Graph:
    """256-vertex uniform random graph."""
    return erdos_renyi(256, 1500, seed=9, name="er256")


@pytest.fixture
def path_graph() -> Graph:
    """Simple 10-vertex chain (known BFS/SSSP answers)."""
    return chain_graph(10)


@pytest.fixture
def sparse_matrix() -> COOMatrix:
    """The 4x4 example matrix of Figure 4a."""
    return COOMatrix(
        (4, 4),
        rows=[0, 0, 1, 2, 3, 3],
        cols=[2, 3, 2, 0, 1, 3],
        values=[3.0, 8.0, 7.0, 1.0, 4.0, 2.0],
    )


@pytest.fixture
def small_config() -> GraphRConfig:
    """Small functional-mode configuration for device-level tests."""
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                        mode="functional", max_iterations=80)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def forced_tiles():
    """Context-manager factory: inside ``with forced_tiles():`` every
    :class:`GraphEngine` reports its cell path inexact, so scans run
    tile batches even on clean configs.  The tile path at a batch size
    of one is the oracle the cell path and larger batches are compared
    with."""
    inexact = property(lambda self: False)
    return lambda: mock.patch.multiple(GraphEngine,
                                       exact_mac_cells=inexact,
                                       exact_addop_cells=inexact)
