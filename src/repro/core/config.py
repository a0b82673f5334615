"""GraphR node configuration (architecture parameters of Figure 9/12).

The evaluation configuration of the paper (Section 5.2) is the default:
crossbar size ``S = 8``, ``C = 32`` crossbars per graph engine and
``G = 64`` graph engines, 16-bit fixed-point data on 4-bit cells.

Naming note: the paper overloads ``C`` (crossbar size in Figure 12,
crossbars-per-GE in Section 5.2).  Here ``crossbar_size`` is always the
array dimension and ``crossbars_per_ge`` the *physical* crossbar count
per GE; since each 16-bit value needs ``data_bits / cell_bits`` bit-
slice arrays, the *logical* (full-precision) crossbars per GE are
``crossbars_per_ge / slices``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.hw.params import (TechnologyParams, default_technology,
                             technology_from_dict, technology_to_dict)

__all__ = ["GraphRConfig"]


@dataclass(frozen=True)
class GraphRConfig:
    """Architecture and simulation knobs of one GraphR node.

    Attributes
    ----------
    crossbar_size:
        ``S`` — rows/columns of one ReRAM crossbar (8 in the paper).
    crossbars_per_ge:
        ``C`` — physical crossbars per graph engine (32).
    num_ges:
        ``G`` — graph engines per node (64).
    block_size:
        ``B`` — vertices per out-of-core block.  ``None`` sizes the
        block to the whole graph (pure in-memory setting).
    data_bits / frac_bits:
        Fixed-point width and fractional bits of vertex properties and
        edge coefficients (16 / 8).
    streaming_order:
        ``"column"`` (paper default: smaller RegO, fewer ReRAM writes)
        or ``"row"`` (the Figure 11b alternative, kept for the
        ablation).
    skip_empty_subgraphs:
        Skip subgraph tiles with no edges (paper behaviour).  Disabling
        it quantifies how much sparsity-skipping buys.
    noise_sigma:
        Gaussian read-noise level (in cell-level units) injected in
        functional crossbar MVMs; 0 disables.
    programming_sigma / ir_drop_alpha:
        Device non-idealities applied to MAC coefficients in functional
        mode (see :mod:`repro.reram.variation`); 0 disables.
    selective_block_scan:
        Optimisation study (off by default, the paper scans every
        block): skip streaming blocks that contain no active-source
        edges during frontier algorithms.
    mode:
        ``"functional"`` — execute every tile through the device models
        (exact algorithm semantics);
        ``"analytic"`` — run the exact reference algorithm and charge
        time/energy from vectorised event counts (very large graphs);
        ``"auto"`` — functional below ``functional_tile_budget``
        projected streamed tiles, analytic above.
    functional_tile_budget:
        Max projected (tiles x iterations) the auto mode will simulate
        functionally.  The batched engine streams tiles vectorised, so
        the default covers paper-scale runs (WV/SD PageRank and SSSP).
    functional_batch_size:
        Non-empty ``S x S`` crossbar tiles per engine call on the tile
        path; must be positive.  Clean configs (no read noise; for MAC
        also no programming variation or IR drop, and column sums of
        codes below 2**53) take the cell path, which contracts
        programmed crossbar cells without building dense tiles and
        ignores this knob; the others take the tile path.  Every batch
        size and both paths are bit-identical.
    mem_bandwidth_bps:
        Internal sequential bandwidth of the memory-ReRAM region
        feeding the GEs (edge fetch).
    controller_edges_per_second:
        COO -> matrix conversion throughput of the controller.
    iteration_overhead_s / setup_overhead_s:
        Controller bookkeeping charged per iteration and once per run
        (convergence check, block orchestration, metadata setup).
    max_iterations:
        Iteration budget of the controller loop.
    tolerance:
        Convergence tolerance passed to iterative programs.
    technology:
        Device constants bundle.
    """

    crossbar_size: int = 8
    crossbars_per_ge: int = 32
    num_ges: int = 64
    block_size: Optional[int] = None
    data_bits: int = 16
    frac_bits: int = 8
    streaming_order: str = "column"
    skip_empty_subgraphs: bool = True
    noise_sigma: float = 0.0
    programming_sigma: float = 0.0
    ir_drop_alpha: float = 0.0
    selective_block_scan: bool = False
    mode: str = "auto"
    functional_tile_budget: int = 2_000_000
    functional_batch_size: int = 256
    mem_bandwidth_bps: float = 320e9
    controller_edges_per_second: float = 8e9
    iteration_overhead_s: float = 2e-6
    setup_overhead_s: float = 4e-5
    max_iterations: int = 100
    tolerance: float = 1e-4
    seed: int = 0
    technology: TechnologyParams = field(default_factory=default_technology)

    def __post_init__(self) -> None:
        if min(self.crossbar_size, self.crossbars_per_ge, self.num_ges) <= 0:
            raise ConfigError("crossbar_size, crossbars_per_ge and num_ges "
                              "must be positive")
        if self.block_size is not None and self.block_size <= 0:
            raise ConfigError("block_size must be positive when given")
        if self.data_bits <= 0 or self.data_bits % self.technology.reram.cell_bits:
            raise ConfigError(
                f"data_bits {self.data_bits} must be a positive multiple of "
                f"cell_bits {self.technology.reram.cell_bits}"
            )
        if not 0 <= self.frac_bits < self.data_bits:
            raise ConfigError("frac_bits must be in [0, data_bits)")
        if self.streaming_order not in ("column", "row"):
            raise ConfigError("streaming_order must be 'column' or 'row'")
        if self.mode not in ("auto", "functional", "analytic"):
            raise ConfigError("mode must be auto, functional or analytic")
        if self.functional_tile_budget < 0:
            raise ConfigError("functional_tile_budget must be non-negative")
        if self.functional_batch_size <= 0:
            raise ConfigError("functional_batch_size must be positive")
        if self.crossbars_per_ge % self.slices:
            raise ConfigError(
                f"crossbars_per_ge {self.crossbars_per_ge} must be a "
                f"multiple of the slice count {self.slices}"
            )
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.programming_sigma < 0:
            raise ConfigError("programming_sigma must be non-negative")
        if not 0.0 <= self.ir_drop_alpha < 1.0:
            raise ConfigError("ir_drop_alpha must be in [0, 1)")
        if self.max_iterations <= 0:
            raise ConfigError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if min(self.mem_bandwidth_bps, self.controller_edges_per_second) <= 0:
            raise ConfigError("bandwidth parameters must be positive")

    # ------------------------------------------------------------------
    @property
    def slices(self) -> int:
        """Bit-slice arrays per full-precision value."""
        return self.data_bits // self.technology.reram.cell_bits

    @property
    def logical_crossbars_per_ge(self) -> int:
        """Full-precision ``S x S`` tiles one GE holds at a time."""
        return self.crossbars_per_ge // self.slices

    @property
    def logical_crossbars(self) -> int:
        """Full-precision tiles across the whole node."""
        return self.logical_crossbars_per_ge * self.num_ges

    @property
    def tile_rows(self) -> int:
        """Subgraph height (source vertices per streaming step)."""
        return self.crossbar_size

    @property
    def tile_cols(self) -> int:
        """Subgraph width (destination vertices per streaming step)."""
        return self.crossbar_size * self.logical_crossbars

    @property
    def adcs_per_ge(self) -> int:
        """ADCs needed so one GE's bitlines convert within a GE cycle
        (the paper's 8-crossbars-per-ADC sizing)."""
        conversions = self.crossbar_size * self.crossbars_per_ge
        per_adc = (self.technology.adc.sample_rate_sps
                   * self.technology.reram.ge_cycle_s)
        return max(1, int(-(-conversions // per_adc)))

    def effective_block_size(self, num_vertices: int) -> int:
        """The block size actually used for a graph (``B`` or ``|V|``)."""
        if self.block_size is None:
            return num_vertices
        return min(self.block_size, num_vertices)

    def with_overrides(self, **kwargs) -> "GraphRConfig":
        """Copy with fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Canonical serialization — the parallel runtime keys its result
    # cache on this, so the dictionary must round-trip exactly and the
    # hash must be stable across processes and machines.
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary of every configuration field.

        Round-trips exactly through :meth:`from_dict`; the technology
        bundle is expanded to plain numbers so two configs with equal
        constants serialize identically.
        """
        payload: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "technology":
                value = technology_to_dict(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "GraphRConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Partial dictionaries are allowed (absent fields keep their
        defaults) so job files can specify only overrides; unknown
        fields raise :class:`ConfigError`.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown config field(s): {', '.join(sorted(unknown))}")
        kwargs = dict(payload)
        if "technology" in kwargs:
            kwargs["technology"] = technology_from_dict(kwargs["technology"])
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Deterministic JSON text of :meth:`to_dict` (sorted keys,
        no whitespace) — the hashing pre-image."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON form.

        Equal configurations hash equally in every process; the batch
        runtime folds this into each job's content key.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
