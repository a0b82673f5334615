"""Unit tests for GraphRConfig validation and derived geometry."""

from __future__ import annotations

import pytest

from repro.core.config import GraphRConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_configuration(self):
        """Section 5.2: S=8, C=32, G=64, 16-bit data on 4-bit cells."""
        cfg = GraphRConfig()
        assert cfg.crossbar_size == 8
        assert cfg.crossbars_per_ge == 32
        assert cfg.num_ges == 64
        assert cfg.slices == 4
        assert cfg.logical_crossbars_per_ge == 8
        assert cfg.logical_crossbars == 512

    def test_tile_geometry(self):
        cfg = GraphRConfig()
        assert cfg.tile_rows == 8
        assert cfg.tile_cols == 8 * 512

    def test_adc_sizing_matches_paper(self):
        """8 x 32 = 256 bitlines per GE at 1 GSps over 64 ns -> 4 ADCs
        (one per eight 8-bitline crossbars, as Section 3.2 sizes)."""
        cfg = GraphRConfig()
        assert cfg.adcs_per_ge == 4

    def test_effective_block_size(self):
        assert GraphRConfig().effective_block_size(1000) == 1000
        assert GraphRConfig(block_size=64).effective_block_size(1000) == 64
        assert GraphRConfig(block_size=2000).effective_block_size(1000) \
            == 1000


class TestValidation:
    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            GraphRConfig(crossbar_size=0)
        with pytest.raises(ConfigError):
            GraphRConfig(num_ges=-1)

    def test_data_bits_must_divide(self):
        with pytest.raises(ConfigError):
            GraphRConfig(data_bits=10)

    def test_crossbars_must_cover_slices(self):
        with pytest.raises(ConfigError):
            GraphRConfig(crossbars_per_ge=2)  # 4 slices need >= 4

    def test_bad_frac_bits(self):
        with pytest.raises(ConfigError):
            GraphRConfig(frac_bits=16)

    def test_bad_streaming_order(self):
        with pytest.raises(ConfigError):
            GraphRConfig(streaming_order="diagonal")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            GraphRConfig(mode="hybrid")

    def test_bad_block_size(self):
        with pytest.raises(ConfigError):
            GraphRConfig(block_size=0)

    def test_bad_noise(self):
        with pytest.raises(ConfigError):
            GraphRConfig(noise_sigma=-0.5)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_must_be_positive(self, batch_size):
        with pytest.raises(ConfigError,
                           match="functional_batch_size must be positive"):
            GraphRConfig(functional_batch_size=batch_size)
        with pytest.raises(ConfigError):
            GraphRConfig.from_dict({"functional_batch_size": batch_size})
        assert GraphRConfig(functional_batch_size=1) \
            .functional_batch_size == 1

    def test_bad_iterations(self):
        with pytest.raises(ConfigError):
            GraphRConfig(max_iterations=0)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError):
            GraphRConfig(tolerance=-1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            GraphRConfig(mem_bandwidth_bps=0)

    def test_with_overrides(self):
        cfg = GraphRConfig().with_overrides(num_ges=8)
        assert cfg.num_ges == 8
        assert GraphRConfig().num_ges == 64

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GraphRConfig().num_ges = 7

    def test_cell_bits_interaction(self):
        from repro.hw.params import default_technology
        tech = default_technology().with_reram(cell_bits=2)
        cfg = GraphRConfig(technology=tech, crossbars_per_ge=32)
        assert cfg.slices == 8
        assert cfg.logical_crossbars_per_ge == 4


class TestCanonicalSerialization:
    def test_dict_round_trip(self):
        cfg = GraphRConfig(mode="analytic", num_ges=8,
                           block_size=1024)
        assert GraphRConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_keeps_defaults(self):
        cfg = GraphRConfig.from_dict({"num_ges": 8})
        assert cfg.num_ges == 8
        assert cfg.crossbar_size == GraphRConfig().crossbar_size

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            GraphRConfig.from_dict({"num_gpus": 2})

    def test_nested_technology_round_trip(self):
        from repro.hw.params import default_technology
        tech = default_technology().with_reram(cell_bits=2)
        cfg = GraphRConfig(technology=tech)
        clone = GraphRConfig.from_dict(cfg.to_dict())
        assert clone.technology.reram.cell_bits == 2
        assert clone == cfg

    def test_content_hash_stable_and_sensitive(self):
        a = GraphRConfig(mode="analytic")
        b = GraphRConfig(mode="analytic")
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 64
        assert a.content_hash() != \
            GraphRConfig(mode="analytic", num_ges=8).content_hash()
        tech = GraphRConfig(
            technology=GraphRConfig().technology.with_reram(
                cell_bits=2))
        assert a.content_hash() != tech.content_hash()

    def test_canonical_json_is_deterministic(self):
        text = GraphRConfig().canonical_json()
        assert text == GraphRConfig().canonical_json()
        import json
        assert json.loads(text)["crossbar_size"] == 8
