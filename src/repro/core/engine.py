"""Functional graph engine (Figure 8): tile-level crossbar math.

The engine executes subgraph tiles' worth of analog work with the
same arithmetic the device chain (driver -> bit-sliced crossbars ->
S/H -> ADC -> shift-add) produces, but vectorised at tile granularity:
values are quantised through the configured fixed-point format, the
dot products are computed exactly on the quantised codes, and optional
Gaussian noise models analog read disturbance.  Unit tests assert this
shortcut is bit-equivalent to composing the individual device models.

The tile primitives are *batched*: :meth:`GraphEngine.mac_batch` and
:meth:`GraphEngine.addop_batch` take ``(B, S, W)`` stacks of dense
tiles and contract a whole batch with a single einsum / fold.  The
per-tile entry points (:meth:`mac_tile`, :meth:`addop_tile`) delegate
to the batched kernels with ``B = 1``, so both granularities execute
the exact same arithmetic (einsum reduction order, RNG draw order) and
stay bit-identical.

A clean engine (no read noise; for MAC also no programming variation
or IR drop, and column sums that stay below 2**53) skips the dense
tiles altogether: :meth:`mac_cells` contracts only the programmed
cells of a partition and :meth:`addop_cells` relaxes one candidate per
edge.  :attr:`exact_mac_cells` / :attr:`exact_addop_cells` say when
that is bit-identical to the tile path: integer-valued float64 column
sums below 2**53 are exact in any order, the scales are powers of two,
and min/max folds do not depend on order.  Noisy and variational
engines keep the tiles, because their RNG draw order is part of the
result.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.config import GraphRConfig
from repro.core.cost import IterationEvents
from repro.errors import DeviceError
from repro.obs import metrics
from repro.reram.fixed_point import FixedPointFormat
from repro.reram.variation import VariationModel

if TYPE_CHECKING:
    from repro.core.streaming import MacCells

__all__ = ["GraphEngine"]

#: Integers up to this bound are exact in float64.
_EXACT_INTEGER_BOUND = 2 ** 53


def _saturated_candidates(weights: np.ndarray, sources: np.ndarray,
                          absent_value: float, reduce_op: str
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Saturating add-op candidates of cells holding ``weights`` driven
    by ``sources`` (broadcast together), and the mask of absent cells.

    ``"min"``: ``w + src``, with anything involving an absent cell
    (``w >= absent``) pinned at the absent value.  ``"max"``:
    ``min(w, src)``, with absent cells (``w <= absent``) pinned there.
    """
    if reduce_op == "min":
        candidates = weights + sources
        absent_cells = weights >= absent_value
        candidates = np.where(absent_cells, absent_value, candidates)
        candidates = np.minimum(candidates, absent_value)
    else:
        candidates = np.minimum(weights, sources)
        absent_cells = weights <= absent_value
        candidates = np.where(absent_cells, absent_value, candidates)
        candidates = np.maximum(candidates, absent_value)
    return candidates, absent_cells


class GraphEngine:
    """Tile-level functional model of a GE array.

    Parameters
    ----------
    config:
        Node configuration (crossbar size, slices, noise).
    coeff_fmt / input_fmt:
        Fixed-point formats for stored coefficients and driven inputs.
    """

    def __init__(self, config: GraphRConfig,
                 coeff_fmt: Optional[FixedPointFormat] = None,
                 input_fmt: Optional[FixedPointFormat] = None) -> None:
        self.config = config
        self.coeff_fmt = coeff_fmt or FixedPointFormat(
            config.data_bits, config.data_bits - 1)
        self.input_fmt = input_fmt or FixedPointFormat(
            config.data_bits, config.data_bits - 1)
        # Read noise and programming variation are physically distinct
        # processes; spawn independent child streams off the one config
        # seed so their draws never correlate.  (Results therefore
        # differ from engines that shared the raw seed between both;
        # this fix adds no config field, so any noisy/variational
        # cached stats keyed on an unchanged config simply regenerate
        # with the decorrelated draws.)
        noise_seq, variation_seq = \
            np.random.SeedSequence(config.seed).spawn(2)
        self._rng = np.random.default_rng(noise_seq)
        if config.programming_sigma > 0 or config.ir_drop_alpha > 0:
            # Variation is applied to the composed coefficient codes —
            # a first-order stand-in for per-slice cell variation.
            self._variation: Optional[VariationModel] = VariationModel(
                programming_sigma=config.programming_sigma,
                ir_drop_alpha=config.ir_drop_alpha,
                seed=variation_seq,
            )
        else:
            self._variation = None

    # ------------------------------------------------------------------
    # Parallel-MAC (Section 4.1)
    # ------------------------------------------------------------------
    def mac_batch(self, dense_tiles: np.ndarray,
                  inputs: np.ndarray) -> Tuple[np.ndarray, IterationEvents]:
        """Parallel-MAC presentations for a stack of tiles.

        ``dense_tiles`` is ``(B, S, W)`` coefficients, ``inputs`` is
        ``(B, S)``; returns the ``(B, W)`` bitline sums.  Both operands
        are quantised to their fixed-point formats; the contraction is
        exact on the quantised codes (the bit-sliced shift-add chain
        reconstructs full precision), done in one einsum for the whole
        batch.
        """
        tiles = np.asarray(dense_tiles, dtype=np.float64)
        x = np.asarray(inputs, dtype=np.float64)
        if tiles.ndim != 3 or x.shape != tiles.shape[:2]:
            raise DeviceError(
                f"tile batch {tiles.shape} incompatible with inputs "
                f"{x.shape}"
            )
        observing = metrics.enabled()
        t0 = time.perf_counter() if observing else 0.0
        coeff_codes = self.coeff_fmt.encode(tiles)
        input_codes = self.input_fmt.encode(x)
        effective = coeff_codes.astype(np.float64)
        if self._variation is not None:
            effective = self._variation.effective_levels_batch(effective)
        raw = np.einsum("bs,bsw->bw", input_codes.astype(np.float64),
                        effective)
        out = raw * self.coeff_fmt.scale * self.input_fmt.scale
        out = self._maybe_noise(out)
        events = self._batch_events(coeff_codes != 0,
                                    presentations_per_tile=1)
        if observing:
            registry = metrics.get_registry()
            registry.counter(
                "repro_engine_mac_batches_total",
                "Batched parallel-MAC contractions executed").inc()
            registry.counter(
                "repro_engine_tiles_total",
                "Dense tiles pushed through the functional engine").inc(
                    tiles.shape[0])
            registry.counter(
                "repro_engine_einsum_seconds_total",
                "Host seconds inside the functional tile kernels").inc(
                    time.perf_counter() - t0)
        return out, events

    def mac_tile(self, dense_tile: np.ndarray,
                 inputs: np.ndarray) -> Tuple[np.ndarray, IterationEvents]:
        """Single-tile parallel-MAC presentation: ``out = inputs @ tile``.

        ``dense_tile`` is ``(S, W)`` coefficients, ``inputs`` length S.
        Delegates to :meth:`mac_batch` with a batch of one.
        """
        tile = np.asarray(dense_tile, dtype=np.float64)
        x = np.asarray(inputs, dtype=np.float64)
        if tile.ndim != 2 or x.ndim != 1 or tile.shape[0] != x.shape[0]:
            raise DeviceError(
                f"tile {tile.shape} incompatible with inputs {x.shape}"
            )
        out, events = self.mac_batch(tile[None], x[None])
        return out[0], events

    # ------------------------------------------------------------------
    # Parallel-add-op (Section 4.2, Figure 16 c3)
    # ------------------------------------------------------------------
    def addop_batch(self, dense_tiles: np.ndarray,
                    source_values: np.ndarray,
                    absent_value: float,
                    active_mask: Optional[np.ndarray] = None,
                    reduce_op: str = "min",
                    ) -> Tuple[np.ndarray, IterationEvents]:
        """Parallel-add-op presentations for a stack of tiles.

        With ``reduce_op="min"`` (SSSP-style relaxation): for every
        tile ``b`` and row ``r``, compute ``w[b, r, :] +
        source_values[b, r]`` with absent cells pinned at
        ``absent_value`` (the reserved cell maximum ``M``), then fold
        rows with elementwise minimum — the comparator array the sALU
        provides.  With ``reduce_op="max"`` (SSWP-style widening):
        candidates are ``min(w[b, r, :], source_values[b, r])`` — the
        bottleneck of extending row ``r``'s path over each cell — with
        absent cells pinned at ``absent_value`` (the reserved width 0),
        folded with elementwise maximum (the same comparators, other
        polarity).  In both polarities rows whose cells are all absent
        contribute only the identity, so folding every row is
        equivalent to folding the active ones; ``active_mask``
        (``(B, S)`` booleans) additionally silences rows that hold
        edges but whose sources are inactive.  Returns the folded
        ``(B, W)`` candidate block.
        """
        if reduce_op not in ("min", "max"):
            raise DeviceError(f"unsupported add-op reduce {reduce_op!r}")
        observing = metrics.enabled()
        t0 = time.perf_counter() if observing else 0.0
        w = np.asarray(dense_tiles, dtype=np.float64)
        src = np.asarray(source_values, dtype=np.float64)
        if w.ndim != 3 or src.shape != w.shape[:2]:
            raise DeviceError("weights/source shape mismatch")
        candidates, absent_cells = _saturated_candidates(
            w, src[:, :, None], absent_value, reduce_op)
        if active_mask is not None:
            candidates = np.where(active_mask[:, :, None], candidates,
                                  absent_value)
        if reduce_op == "min":
            out = candidates.min(axis=1)
            out = self._maybe_noise(out, clip_max=absent_value)
        else:
            out = candidates.max(axis=1)
            # The comparator output still saturates at the physical
            # cell maximum (the min polarity's absent value), so noisy
            # widths cannot exceed what a real read can produce.
            out = self._maybe_noise(
                out, clip_max=float(2 ** self.config.data_bits - 1))

        # A cell is "stored" when an edge exists (absent cells hold M
        # but belong to the same written rows).
        events = self._batch_events(~absent_cells,
                                    presentations_per_tile=0)
        # One presentation per (non-empty crossbar tile, active row)
        # pair: each time slot drives one wordline of the tiles that
        # hold that row's edges.
        events.presentations = events.touched_rows
        events.reduce_ops = events.presentations * self.config.crossbar_size
        if observing:
            registry = metrics.get_registry()
            registry.counter(
                "repro_engine_addop_batches_total",
                "Batched parallel-add-op folds executed").inc()
            registry.counter(
                "repro_engine_tiles_total",
                "Dense tiles pushed through the functional engine").inc(
                    w.shape[0])
            registry.counter(
                "repro_engine_einsum_seconds_total",
                "Host seconds inside the functional tile kernels").inc(
                    time.perf_counter() - t0)
        return out, events

    def addop_tile(self, dense_weights: np.ndarray,
                   source_values: np.ndarray,
                   active_rows: np.ndarray,
                   absent_value: float,
                   reduce_op: str = "min"
                   ) -> Tuple[np.ndarray, IterationEvents]:
        """Single-tile parallel-add-op presentations.

        ``active_rows`` lists the source rows driven this iteration;
        delegates to :meth:`addop_batch` with a batch of one.
        """
        w = np.asarray(dense_weights, dtype=np.float64)
        src = np.asarray(source_values, dtype=np.float64)
        active = np.asarray(active_rows, dtype=np.int64)
        if w.ndim != 2 or src.shape != (w.shape[0],):
            raise DeviceError("weights/source shape mismatch")
        if active.size == 0:
            return np.full(w.shape[1], absent_value), IterationEvents()
        if active.min() < 0 or active.max() >= w.shape[0]:
            raise DeviceError("active row out of range")
        mask = np.zeros((1, w.shape[0]), dtype=bool)
        mask[0, active] = True
        out, events = self.addop_batch(w[None], src[None], absent_value,
                                       active_mask=mask,
                                       reduce_op=reduce_op)
        return out[0], events

    # ------------------------------------------------------------------
    # Cell path (clean engines)
    # ------------------------------------------------------------------
    @property
    def exact_mac_cells(self) -> bool:
        """True when :meth:`mac_cells` equals the MAC tile path bit for
        bit: no read noise, no programming variation or IR drop, and a
        crossbar column of full-scale codes sums below 2**53."""
        cfg = self.config
        return (cfg.noise_sigma <= 0 and self._variation is None
                and cfg.crossbar_size * self.coeff_fmt.max_code
                * self.input_fmt.max_code < _EXACT_INTEGER_BOUND)

    @property
    def exact_addop_cells(self) -> bool:
        """True when :meth:`addop_cells` equals the add-op tile path bit
        for bit: no read noise (:meth:`addop_batch` never applies
        variation)."""
        return self.config.noise_sigma <= 0

    def mac_cells(self, cells: "MacCells",
                  padded_inputs: np.ndarray) -> np.ndarray:
        """Bitline sums of a partition's programmed cells, one per
        (crossbar, column) segment of ``cells`` in crossbar order.

        Each sum is an exact integer over the quantised codes (see
        :attr:`exact_mac_cells`), scaled like :meth:`mac_batch`.
        """
        # Encoding is elementwise, so encode the register or just the
        # inputs the cells read, whichever is smaller (out-of-core
        # blocks read few).  The products are formed in place and freed
        # before scaling: a pass holds at most one cell-sized
        # temporary, so a worker's heap does not creep up across jobs.
        if cells.sources.size < padded_inputs.size:
            products = self.input_fmt.encode(padded_inputs[cells.sources])
        else:
            products = self.input_fmt.encode(padded_inputs)[cells.sources]
        products *= cells.codes
        raw = np.add.reduceat(products, cells.segment_starts)
        del products
        return raw * self.coeff_fmt.scale * self.input_fmt.scale

    def addop_cells(self, weights: np.ndarray, source_values: np.ndarray,
                    absent_value: float, reduce_op: str = "min"
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Parallel-add-op candidates edge by edge.

        Returns ``(candidates, stored)``: the saturating candidate
        :meth:`addop_batch` forms for a cell holding each edge's weight,
        and which edges hold a weight rather than the absent value.
        Folding them per destination equals folding the tile path's
        merged parallel edges, since the candidate is monotone in the
        weight.
        """
        if reduce_op not in ("min", "max"):
            raise DeviceError(f"unsupported add-op reduce {reduce_op!r}")
        candidates, absent_cells = _saturated_candidates(
            np.asarray(weights, dtype=np.float64),
            np.asarray(source_values, dtype=np.float64),
            absent_value, reduce_op)
        return candidates, ~absent_cells

    # ------------------------------------------------------------------
    def _batch_events(self, stored: np.ndarray,
                      presentations_per_tile: int) -> IterationEvents:
        """Count non-empty S x S crossbar tiles and touched rows across
        a ``(B, rows, cols)`` boolean occupancy stack."""
        s = self.config.crossbar_size
        batch, rows, cols = stored.shape
        n_tiles = -(-cols // s)
        padded = np.zeros((batch, rows, n_tiles * s), dtype=bool)
        padded[:, :, :cols] = stored
        per_tile = padded.reshape(batch, rows, n_tiles, s)
        row_touched = per_tile.any(axis=3)          # (B, rows, n_tiles)
        tile_nonempty = row_touched.any(axis=1)     # (B, n_tiles)
        tiles = int(tile_nonempty.sum())
        touched = int(row_touched.sum())
        presentations = tiles * presentations_per_tile
        return IterationEvents(
            tiles=tiles,
            touched_rows=touched,
            presentations=presentations,
            reduce_ops=presentations * s,
        )

    def _maybe_noise(self, values: np.ndarray,
                     clip_max: Optional[float] = None) -> np.ndarray:
        """Inject analog read noise when configured.

        Draws are consumed in C order, so one call over a ``(B, W)``
        batch reads the same stream as B sequential ``(W,)`` calls —
        batched and per-tile execution share noise realisations.
        """
        if self.config.noise_sigma <= 0:
            return values
        sigma = self.config.noise_sigma * self.coeff_fmt.scale
        noisy = values + self._rng.normal(0.0, sigma, size=values.shape)
        noisy = np.maximum(noisy, 0.0)
        if clip_max is not None:
            noisy = np.minimum(noisy, clip_max)
        return noisy
