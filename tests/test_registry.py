"""Unit tests for the algorithm registry and Table 2 consistency."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.algorithms.registry import (
    PROGRAM_INIT_KEYS,
    TABLE2_ROWS,
    get_program,
    list_algorithms,
    resolve_program,
    run_reference,
)
from repro.algorithms.vertex_program import (
    AlgorithmResult,
    IterationTrace,
    MappingPattern,
)
from repro.errors import ConfigError


class TestRegistry:
    def test_all_algorithms_listed(self):
        assert set(list_algorithms()) == {"pagerank", "bfs", "sssp",
                                          "spmv", "cf", "wcc",
                                          "kcore", "sswp", "ppr"}

    def test_get_program_case_insensitive(self):
        assert get_program("PageRank").name == "pagerank"

    def test_get_program_with_kwargs(self):
        program = get_program("bfs", source=3)
        assert program.source == 3

    def test_unknown_program(self):
        with pytest.raises(ConfigError):
            get_program("dfs")

    def test_unknown_reference(self):
        with pytest.raises(ConfigError):
            run_reference("dfs", None)

    def test_run_reference_dispatch(self, small_graph):
        result = run_reference("pagerank", small_graph, max_iterations=3)
        assert isinstance(result, AlgorithmResult)
        assert result.algorithm == "pagerank"

    def test_table2_covers_non_cf_algorithms(self):
        apps = {row.application for row in TABLE2_ROWS}
        assert apps == {"spmv", "pagerank", "bfs", "sssp"}

    def test_table2_agrees_with_programs(self):
        for row in TABLE2_ROWS:
            program = get_program(row.application)
            if "min" in row.reduce:
                assert program.reduce_op == "min"
            else:
                assert program.reduce_op == "add"
            assert program.needs_active_list == \
                row.active_vertex_list_required


#: A non-default value for every program-constructor keyword.
CTOR_VALUES = {"source": 3, "damping": 0.7, "tolerance": 1e-5,
               "features": 8, "epochs": 2, "k": 4}


class TestResolveProgram:
    @pytest.mark.parametrize("algorithm", list_algorithms())
    def test_routes_every_kwarg(self, algorithm):
        init_values = {"source": 3, "x": [1.0, 2.0], "seed": 7}
        kwargs = dict(CTOR_VALUES, **init_values, max_iterations=5)
        program, reference_kwargs, init_kwargs = resolve_program(
            algorithm, kwargs)
        for name in inspect.signature(type(program)).parameters:
            assert getattr(program, name) == CTOR_VALUES[name]
        assert reference_kwargs == kwargs
        assert not hasattr(program, "max_iterations")
        assert set(init_kwargs) == set(PROGRAM_INIT_KEYS)
        assert init_kwargs == init_values


class TestIterationTrace:
    def test_record_without_frontier(self):
        trace = IterationTrace()
        trace.record(10, 100)
        assert trace.iterations == 1
        assert trace.total_edges_processed == 100
        assert trace.frontiers is None

    def test_record_with_frontier(self):
        trace = IterationTrace(frontiers=[])
        trace.record(1, 5, frontier=np.array([True, False]))
        assert len(trace.frontiers) == 1
        assert trace.frontiers[0].dtype == bool

    def test_frontier_copied(self):
        trace = IterationTrace(frontiers=[])
        frontier = np.array([True, False])
        trace.record(1, 5, frontier=frontier)
        frontier[0] = False
        assert trace.frontiers[0][0]

    def test_pattern_enum_values(self):
        assert MappingPattern.PARALLEL_MAC.value == "parallel-mac"
        assert MappingPattern.PARALLEL_ADD_OP.value == "parallel-add-op"
