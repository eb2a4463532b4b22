"""Tests for path configuration helpers."""

import pytest

from repro.core.path import PathConfig
from repro.testgen import NO_DFT


class TestPathConfig:
    def test_defaults_are_paper_scale(self):
        config = PathConfig()
        assert config.n_defects == 25000
        assert config.seed == 1995
        assert config.include_noncat
        assert config.dft == NO_DFT
        assert not config.dynamic_test

    def test_frozen(self):
        config = PathConfig()
        with pytest.raises(Exception):
            config.n_defects = 1
