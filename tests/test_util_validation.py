"""Unit tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_in_range,
    check_load,
    check_positive,
    check_probability,
    check_side,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive(0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_rejects_negative_even_when_not_strict(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_positive(-1.0, strict=False)

    @pytest.mark.parametrize("strict", [True, False])
    def test_rejects_nan(self, strict):
        with pytest.raises(ValueError, match="must be"):
            check_positive(float("nan"), strict=strict)

    def test_non_strict_callers_reject_nan(self):
        from repro.queueing.md1 import MD1Queue

        with pytest.raises(ValueError, match="lam"):
            MD1Queue(float("nan"))

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_positive("3")

    def test_rejects_bool(self):
        # bools are ints in Python; we refuse them as rates.
        with pytest.raises(TypeError):
            check_positive(True)

    def test_error_names_parameter(self):
        with pytest.raises(ValueError, match="lam"):
            check_positive(-1, "lam")

    def test_coerces_int_to_float(self):
        out = check_positive(3)
        assert isinstance(out, float) and out == 3.0


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_probability(1.5)
        with pytest.raises(ValueError):
            check_probability(-0.1)

    def test_open_interval_rejects_bounds(self):
        with pytest.raises(ValueError):
            check_probability(0.0, open_interval=True)
        with pytest.raises(ValueError):
            check_probability(1.0, open_interval=True)
        assert check_probability(0.5, open_interval=True) == 0.5


class TestCheckLoad:
    def test_accepts_zero(self):
        assert check_load(0.0) == 0.0

    def test_rejects_one(self):
        with pytest.raises(ValueError, match="stable"):
            check_load(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_load(-0.2)

    def test_accepts_heavy_load(self):
        assert check_load(0.999) == 0.999


class TestCheckSide:
    def test_accepts_min(self):
        assert check_side(2) == 2

    def test_rejects_below_min(self):
        with pytest.raises(ValueError):
            check_side(1)

    def test_custom_minimum(self):
        assert check_side(3, minimum=3) == 3
        with pytest.raises(ValueError):
            check_side(2, minimum=3)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_side(4.0)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_side(True)


class TestCheckInRange:
    def test_inclusive(self):
        assert check_in_range(1.0, 1.0, 2.0) == 1.0
        assert check_in_range(2.0, 1.0, 2.0) == 2.0

    def test_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, 1.0, 2.0, inclusive=False)
        assert check_in_range(1.5, 1.0, 2.0, inclusive=False) == 1.5

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(3.0, 1.0, 2.0)
