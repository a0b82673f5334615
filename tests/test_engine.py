"""Unit tests for the functional graph engine, including equivalence to
the device-level chain (crossbar + shift-add).  Single tiles are
batches of one."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GraphRConfig
from repro.core.engine import GraphEngine
from repro.errors import DeviceError
from repro.reram.crossbar import Crossbar
from repro.reram.fixed_point import FixedPointFormat, bit_slices
from repro.reram.shift_add import ShiftAddUnit


@pytest.fixture
def cfg():
    return GraphRConfig(crossbar_size=4, crossbars_per_ge=8, num_ges=2,
                        mode="functional")


@pytest.fixture
def engine(cfg):
    return GraphEngine(cfg)


def _mac(engine, tile, inputs):
    """One tile's parallel-MAC presentation, as a batch of one."""
    out, events = engine.mac_batch(np.asarray(tile)[None],
                                   np.asarray(inputs)[None])
    return out[0], events


def _addop(engine, weights, source, absent):
    """One tile's parallel-add-op presentations, as a batch of one."""
    out, events = engine.addop_batch(np.asarray(weights)[None],
                                     np.asarray(source)[None], absent)
    return out[0], events


class TestMACTile:
    def test_exact_on_representable_values(self, cfg):
        fmt = FixedPointFormat(16, 8)
        engine = GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt)
        tile = np.array([[0.5, 0.25], [1.0, 0.0]])
        inputs = np.array([2.0, 4.0])
        out, events = _mac(engine, tile, inputs)
        assert np.allclose(out, inputs @ tile)
        assert events.tiles == 1
        assert events.presentations == 1

    def test_quantization_error_bounded(self, cfg, rng):
        engine = GraphEngine(cfg)
        tile = rng.random((4, 8)) * 0.1
        inputs = rng.random(4) * 0.1
        out, _ = _mac(engine, tile, inputs)
        assert np.allclose(out, inputs @ tile, atol=1e-3)

    def test_shape_mismatch(self, engine):
        with pytest.raises(DeviceError):
            _mac(engine, np.zeros((4, 4)), np.zeros(3))

    def test_events_count_nonempty_crossbar_tiles(self, cfg):
        engine = GraphEngine(cfg)
        # 4 x 8 tile = two 4x4 crossbar tiles; only the right one used.
        tile = np.zeros((4, 8))
        tile[1, 6] = 0.5
        _, events = _mac(engine, tile, np.ones(4))
        assert events.tiles == 1
        assert events.touched_rows == 1

    def test_equivalence_to_device_chain(self, cfg, rng):
        """Tile-level math == bit-sliced crossbars + shift-add."""
        fmt = FixedPointFormat(16, 8)
        engine = GraphEngine(cfg, coeff_fmt=fmt, input_fmt=fmt)
        tile = rng.integers(0, 200, (4, 4)) / 256.0
        inputs = rng.integers(0, 100, 4) / 256.0

        out_engine, _ = _mac(engine, tile, inputs)

        # Device chain: four 4-bit slice crossbars, recombined.
        cell_bits = cfg.technology.reram.cell_bits
        codes = fmt.encode(tile)
        input_codes = fmt.encode(inputs).astype(float)
        slices = bit_slices(codes.ravel(), cell_bits, 16)
        outputs = []
        for payload in slices:
            xb = Crossbar(4, 4, params=cfg.technology.reram)
            xb.program(payload.reshape(4, 4))
            out, _ = xb.mvm(input_codes)
            outputs.append(out)
        combined = ShiftAddUnit(cell_bits, 4).combine(outputs)
        device_result = combined * fmt.scale * fmt.scale
        assert np.allclose(out_engine, device_result)


class TestAddOpTile:
    def test_relaxation_semantics(self, cfg):
        engine = GraphEngine(cfg,
                             coeff_fmt=FixedPointFormat(16, 0),
                             input_fmt=FixedPointFormat(16, 0))
        absent = 65535.0
        w = np.full((4, 4), absent)
        w[0, 1] = 5.0
        w[2, 3] = 2.0
        source = np.array([10.0, absent, 1.0, absent])
        out, events = _addop(engine, w, source, absent)
        assert out[1] == 15.0          # 10 + 5
        assert out[3] == 3.0           # 1 + 2
        assert out[0] == absent
        assert events.presentations == 2

    def test_figure16_example(self, cfg):
        """Figure 16 c3 t=1: W row for i0 is [M, 1, 5, M], dist(i0)=4,
        old dist(v)=[7, 6, M, M] -> [7, 5, 9, M]."""
        engine = GraphEngine(cfg,
                             coeff_fmt=FixedPointFormat(16, 0),
                             input_fmt=FixedPointFormat(16, 0))
        m = 65535.0
        w = np.full((4, 4), m)
        w[0] = [m, 1, 5, m]
        source = np.array([4.0, m, m, m])
        out, _ = _addop(engine, w, source, m)
        candidates = np.minimum(np.array([7.0, 6.0, m, m]), out)
        assert np.array_equal(candidates, [7, 5, 9, m])

    def test_no_active_rows(self, cfg):
        engine = GraphEngine(cfg)
        # Every cell holds the absent value, so no row is presented.
        out, events = _addop(engine, np.full((4, 4), 9.0), np.zeros(4),
                             9.0)
        assert np.all(out == 9.0)
        assert events.presentations == 0

    def test_saturation_at_absent(self, cfg):
        engine = GraphEngine(cfg,
                             coeff_fmt=FixedPointFormat(16, 0),
                             input_fmt=FixedPointFormat(16, 0))
        absent = 100.0
        w = np.full((2, 2), absent)
        w[0, 0] = 99.0
        out, _ = _addop(engine, w, np.array([50.0, absent]), absent)
        # 99 + 50 saturates at the absent value, not beyond.
        assert out[0] == absent

    def test_shape_mismatch(self, cfg):
        engine = GraphEngine(cfg)
        with pytest.raises(DeviceError):
            _addop(engine, np.zeros((2, 2)), np.zeros(3), 9.0)


class TestNoise:
    def test_noise_changes_output(self, cfg, rng):
        noisy_cfg = cfg.with_overrides(noise_sigma=2.0)
        tile = rng.random((4, 8)) * 0.1
        inputs = rng.random(4)
        clean, _ = _mac(GraphEngine(cfg), tile, inputs)
        noisy, _ = _mac(GraphEngine(noisy_cfg), tile, inputs)
        assert not np.array_equal(clean, noisy)

    def test_noise_output_never_negative(self, cfg):
        noisy_cfg = cfg.with_overrides(noise_sigma=100.0)
        engine = GraphEngine(noisy_cfg)
        out, _ = _mac(engine, np.zeros((4, 8)), np.zeros(4))
        assert np.all(out >= 0)
