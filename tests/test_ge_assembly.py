"""Tests for the device-level graph engine assembly (Figure 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GraphRConfig
from repro.core.engine import GraphEngine
from repro.errors import DeviceError
from repro.reram.fixed_point import FixedPointFormat
from repro.reram.ge_assembly import DeviceGraphEngine


@pytest.fixture
def ge():
    return DeviceGraphEngine(crossbar_size=4, logical_crossbars=2,
                             fmt=FixedPointFormat(16, 8))


class TestAssembly:
    def test_geometry(self, ge):
        assert ge.width == 8
        assert ge.slices == 4
        assert len(ge.crossbars) == 2
        assert len(ge.crossbars[0]) == 4

    def test_invalid_geometry(self):
        with pytest.raises(DeviceError):
            DeviceGraphEngine(crossbar_size=0)

    def test_indivisible_width(self):
        from repro.hw.params import ReRAMParams
        with pytest.raises(DeviceError):
            DeviceGraphEngine(fmt=FixedPointFormat(18, 0),
                              reram=ReRAMParams(cell_bits=4))

    def test_repr(self, ge):
        assert "DeviceGraphEngine" in repr(ge)


class TestProgramAndPresent:
    def test_program_counts(self, ge, rng):
        tile = rng.random((4, 8))
        counts = ge.program_tile(tile)
        # 2 logical x 4 slices x 16 cells.
        assert counts.cells_written == 2 * 4 * 16

    def test_program_bad_shape(self, ge):
        with pytest.raises(DeviceError):
            ge.program_tile(np.zeros((4, 4)))

    def test_presentation_computes_dot_products(self, ge):
        tile = np.zeros((4, 8))
        tile[0, 0] = 0.5
        tile[2, 5] = 1.25
        ge.program_tile(tile)
        out, counts = ge.present(np.array([2.0, 0.0, 4.0, 0.0]))
        assert out[0] == pytest.approx(1.0)
        assert out[5] == pytest.approx(5.0)
        assert counts.mvm_ops == 2 * 4  # every slice crossbar fired

    def test_adc_path_quantizes(self, ge, rng):
        tile = rng.random((4, 8)) * 0.2
        ge.program_tile(tile)
        inputs = rng.random(4)
        exact, _ = ge.present(inputs, exact=True)
        coarse, _ = ge.present(inputs, exact=False)
        # The ADC grid is coarse; outputs differ but stay in the
        # right neighbourhood.
        assert np.allclose(exact, coarse, atol=ge.adc.full_scale
                           * ge.fmt.scale * ge.fmt.scale / 100)

    def test_mac_subgraph_reduces_into_accumulator(self, ge):
        tile = np.zeros((4, 8))
        tile[1, 3] = 1.0
        acc = np.full(8, 10.0)
        out = ge.mac_subgraph(tile, np.array([0.0, 3.0, 0.0, 0.0]), acc)
        assert out[3] == pytest.approx(13.0)
        assert out[0] == pytest.approx(10.0)


class TestEquivalenceWithFastEngine:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_device_chain_matches_vectorised_engine(self, seed):
        """The production GraphEngine shortcut must equal the full
        device assembly bit for bit."""
        rng = np.random.default_rng(seed)
        fmt = FixedPointFormat(16, 8)
        device = DeviceGraphEngine(crossbar_size=4, logical_crossbars=2,
                                   fmt=fmt)
        config = GraphRConfig(crossbar_size=4, crossbars_per_ge=8,
                              num_ges=1)
        fast = GraphEngine(config, coeff_fmt=fmt, input_fmt=fmt)

        tile = rng.integers(0, 250, (4, 8)) / 256.0
        inputs = rng.integers(0, 100, 4) / 256.0

        device.program_tile(tile)
        device_out, _ = device.present(inputs)
        fast_out, _ = fast.mac_batch(tile[None], inputs[None])
        assert np.allclose(device_out, fast_out[0])
