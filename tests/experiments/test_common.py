"""Tests for the shared experiment infrastructure."""


from repro.experiments.common import FULL, QUICK


class TestScales:
    def test_full_covers_paper_settings(self):
        assert FULL.thread_counts == (2, 4, 8)
        assert len(FULL.imb_configs) == 9
        assert len(FULL.mixes) == 6

    def test_quick_is_subset_of_full(self):
        assert set(QUICK.imb_configs) <= set(FULL.imb_configs)
        assert set(QUICK.mixes) <= set(FULL.mixes)
        assert QUICK.n_epochs <= FULL.n_epochs
