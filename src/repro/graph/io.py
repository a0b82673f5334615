"""Edge-list persistence: graphs as files.

This module provides a simple, dependency-free text format (one
``src dst [weight]`` triple per line, ``#`` comments) and a compact
binary format used by the examples.  The out-of-core deployment's
preprocessed, streaming-ordered shard (Figure 9) has its own packed
layout in :mod:`repro.core.outofcore`.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.coo import COOMatrix
from repro.graph.graph import Graph

__all__ = ["save_edge_list", "load_edge_list", "save_binary", "load_binary"]

_MAGIC = b"GRPR"
_VERSION = 1


def save_edge_list(graph: Graph, path: Union[str, Path]) -> None:
    """Write ``src dst weight`` lines, with a metadata header comment."""
    path = Path(path)
    adj = graph.adjacency
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# repro edge list: name={graph.name} "
                 f"vertices={graph.num_vertices} edges={graph.num_edges} "
                 f"weighted={int(graph.weighted)}\n")
        for src, dst, weight in adj:
            if graph.weighted:
                fh.write(f"{src} {dst} {weight:g}\n")
            else:
                fh.write(f"{src} {dst}\n")


def load_edge_list(path: Union[str, Path], num_vertices: int = 0,
                   name: str = "", weighted: bool = False) -> Graph:
    """Read a text edge list written by :func:`save_edge_list` (or any
    whitespace-separated ``src dst [weight]`` file)."""
    path = Path(path)
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    header_vertices = 0
    header_name = ""
    header_weighted = weighted
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("vertices="):
                        header_vertices = int(token.split("=", 1)[1])
                    elif token.startswith("name="):
                        header_name = token.split("=", 1)[1]
                    elif token.startswith("weighted="):
                        header_weighted = bool(int(token.split("=", 1)[1]))
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst [weight]', got {line!r}"
                )
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            values.append(float(parts[2]) if len(parts) == 3 else 1.0)
    n = num_vertices or header_vertices
    if n == 0:
        n = (max(max(rows), max(cols)) + 1) if rows else 0
    coo = COOMatrix((n, n), rows, cols, values)
    return Graph(adjacency=coo, name=name or header_name or path.stem,
                 weighted=header_weighted)


def save_binary(graph: Graph, path: Union[str, Path]) -> None:
    """Write a compact little-endian binary: header + (i64, i64, f64) rows."""
    path = Path(path)
    adj = graph.adjacency
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQB", _VERSION, graph.num_vertices,
                             graph.num_edges, int(graph.weighted)))
        fh.write(np.asarray(adj.rows, dtype="<i8").tobytes())
        fh.write(np.asarray(adj.cols, dtype="<i8").tobytes())
        fh.write(np.asarray(adj.values, dtype="<f8").tobytes())


def load_binary(path: Union[str, Path], name: str = "") -> Graph:
    """Read a file written by :func:`save_binary`."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise GraphFormatError(f"{path}: not a repro binary graph file")
        version, vertices, edges, weighted = struct.unpack("<IQQB",
                                                           fh.read(21))
        if version != _VERSION:
            raise GraphFormatError(f"{path}: unsupported version {version}")
        rows = np.frombuffer(fh.read(8 * edges), dtype="<i8")
        cols = np.frombuffer(fh.read(8 * edges), dtype="<i8")
        values = np.frombuffer(fh.read(8 * edges), dtype="<f8")
    coo = COOMatrix((vertices, vertices), rows, cols, values)
    return Graph(adjacency=coo, name=name or path.stem,
                 weighted=bool(weighted))
