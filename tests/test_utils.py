"""Tests for RNG normalization, timers, and validation helpers."""

import time

import numpy as np
import pytest

from repro.utils import (
    Stopwatch,
    TimingBreakdown,
    check_epsilon,
    check_min_pts,
    check_random_state,
    check_rho,
    ensure_labels_array,
)
from repro.utils.rng import spawn


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_reproducible(self):
        a = check_random_state(7).integers(0, 1000, 10)
        b = check_random_state(7).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_numpy_integer_accepted(self):
        gen = check_random_state(np.int64(3))
        assert isinstance(gen, np.random.Generator)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            check_random_state("seed")

    def test_spawn_independent_reproducible(self):
        kids_a = spawn(check_random_state(1), 3)
        kids_b = spawn(check_random_state(1), 3)
        for ka, kb in zip(kids_a, kids_b):
            assert np.array_equal(ka.integers(0, 100, 5), kb.integers(0, 100, 5))

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(check_random_state(0), -1)


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        with sw:
            time.sleep(0.01)
        assert sw.elapsed > first >= 0.01

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()
        sw.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()


class TestTimingBreakdown:
    def test_phase_accumulation(self):
        tb = TimingBreakdown()
        with tb.phase("a"):
            time.sleep(0.005)
        with tb.phase("a"):
            time.sleep(0.005)
        with tb.phase("b"):
            pass
        assert tb.phases["a"] >= 0.01
        assert tb.total >= tb.phases["a"]
        assert 0.0 <= tb.fraction("a") <= 1.0

    def test_fraction_empty_is_zero(self):
        assert TimingBreakdown().fraction("anything") == 0.0

    def test_nested_phases_not_double_counted(self):
        # Regression: total used to sum the flat map, so a nested phase
        # counted its seconds twice (once itself, once via its parent).
        tb = TimingBreakdown()
        with tb.phase("outer"):
            time.sleep(0.005)
            with tb.phase("inner"):
                time.sleep(0.01)
        assert tb.phases["inner"] >= 0.01
        assert tb.phases["outer"] >= tb.phases["inner"]
        assert tb.total == pytest.approx(tb.phases["outer"])
        assert tb.total < tb.phases["outer"] + tb.phases["inner"]
        # The nested phase still reports its own share of the total.
        assert 0.0 < tb.fraction("inner") <= 1.0

    def test_hand_built_breakdown_total_unchanged(self):
        tb = TimingBreakdown({"x": 1.0, "y": 2.0})
        assert tb.total == pytest.approx(3.0)

    def test_as_dict_is_copy(self):
        tb = TimingBreakdown({"x": 1.0})
        d = tb.as_dict()
        d["x"] = 99.0
        assert tb.phases["x"] == 1.0


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_epsilon(self, bad):
        with pytest.raises(ValueError):
            check_epsilon(bad)

    def test_good_epsilon(self):
        assert check_epsilon(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_bad_min_pts(self, bad):
        with pytest.raises(ValueError):
            check_min_pts(bad)

    def test_good_min_pts(self):
        assert check_min_pts(10) == 10

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("inf")])
    def test_bad_rho(self, bad):
        with pytest.raises(ValueError):
            check_rho(bad)

    def test_rho_above_two_allowed(self):
        assert check_rho(3.0) == 3.0

    def test_labels_array_coercion(self):
        arr = ensure_labels_array([0, 1, -1])
        assert arr.dtype == np.int64

    def test_labels_length_check(self):
        with pytest.raises(ValueError):
            ensure_labels_array([0, 1], n=3)

    def test_labels_dim_check(self):
        with pytest.raises(ValueError):
            ensure_labels_array([[0, 1]])
