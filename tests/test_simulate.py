"""Data generator and Dataset container tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ppmkit import (
    Dataset,
    simulate_classification,
    simulate_dataset,
    subsample_every_kth,
    true_mean,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


def csv_round_trip(data):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        p.write_text(data.to_csv_text())
        return Dataset.from_csv(p)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDataset:
    def test_rectangularity_enforced(self):
        with pytest.raises(ValueError):
            Dataset(x=np.arange(3.0), y=np.arange(4.0))

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.arange(3.0), y=np.arange(3.0), x_se=np.array([0.1, -0.1, 0.0]))

    def test_se_shape_must_match(self):
        with pytest.raises(ValueError):
            Dataset(x=np.arange(3.0), y=np.arange(3.0), y_se=np.array([0.1, 0.1]))

    @pytest.mark.parametrize("column", ["x", "y", "x_se", "y_se"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, column, bad):
        values = {name: np.full(3, 0.5) for name in ("x", "y", "x_se", "y_se")}
        values[column][1] = bad
        with pytest.raises(ValueError, match=f"{column} has a non-finite value"):
            Dataset(**values)

    def test_arrays_are_immutable(self):
        d = simulate_dataset(10, seed=0)
        with pytest.raises(ValueError):
            d.x[0] = 99.0

    def test_csv_round_trip_regression(self, tmp_path):
        d = Dataset(
            x=np.array([0.1, 0.2]),
            y=np.array([1.0, 2.0]),
            x_se=np.array([0.01, 0.0]),
            y_se=np.array([0.05, 0.05]),
        )
        p = tmp_path / "d.csv"
        d.to_csv(p)
        back = Dataset.from_csv(p)
        np.testing.assert_array_equal(back.x, d.x)
        np.testing.assert_array_equal(back.y, d.y)
        np.testing.assert_array_equal(back.x_se, d.x_se)
        np.testing.assert_array_equal(back.y_se, d.y_se)

    def test_csv_round_trip_two_features(self, tmp_path):
        d = simulate_classification(20, (0.0, 1.0, -1.0), seed=1)
        p = tmp_path / "c.csv"
        d.to_csv(p)
        back = Dataset.from_csv(p)
        np.testing.assert_array_equal(back.x, d.x)
        np.testing.assert_array_equal(back.y, d.y)
        assert back.n_features == 2

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        *(arrays(np.float64, n, elements=FINITE) for _ in range(2)),
        *(arrays(np.float64, n, elements=NONNEGATIVE) for _ in range(2)),
    )))
    def test_csv_round_trip_with_errors_is_bit_exact(self, cols):
        d = Dataset(*cols)
        back = csv_round_trip(d)
        for name in ("x", "y", "x_se", "y_se"):
            assert same_bits(getattr(back, name), getattr(d, name)), name

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, 2), elements=FINITE), arrays(np.float64, n, elements=FINITE),
    )))
    def test_csv_round_trip_two_features_is_bit_exact(self, cols):
        d = Dataset(*cols)
        back = csv_round_trip(d)
        assert same_bits(back.x, d.x) and same_bits(back.y, d.y)

    def test_one_feature_column_is_stored_as_a_single_feature(self, tmp_path):
        # an (n, 1) x would broadcast against y (n,) into an (n, n) likelihood
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.1,0.2\n0.3,0.5\n0.5,0.6\n")
        d = Dataset.from_csv(p)
        assert d.x.shape == (3,) and d.n_features == 1
        assert Dataset(x=d.x[:, None], y=d.y).x.shape == (3,)

    def test_one_column_x_se_is_stored_with_its_single_feature(self):
        d = Dataset(x=np.ones((3, 1)), y=[0, 1, 0], x_se=np.full((3, 1), 0.1))
        assert d.x.shape == d.x_se.shape == (3,)
        np.testing.assert_array_equal(d.x_se, np.full(3, 0.1))
        with pytest.raises(ValueError):
            d.x_se[0] = 0.0

    def test_one_feature_column_keeps_its_error_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y,x_se,y_se\n0.1,0.2,0.01,0.05\n0.3,0.5,0.0,0.04\n")
        d = Dataset.from_csv(p)
        assert d.n_features == 1
        np.testing.assert_array_equal(d.x_se, [0.01, 0.0])
        np.testing.assert_array_equal(d.y_se, [0.05, 0.04])
        assert csv_round_trip(d).x_se.tobytes() == d.x_se.tobytes()

    @pytest.mark.parametrize("column", ["x_se", "y_se"])
    def test_feature_vectors_refuse_standard_errors(self, column):
        # the x1,x2,y CSV form has no error columns, so they would vanish on save
        x = np.zeros((4, 2))
        se = {"x_se": np.zeros((4, 2)), "y_se": np.zeros(4)}[column]
        with pytest.raises(ValueError, match="x_se and y_se need a single feature, x has 2"):
            Dataset(x=x, y=np.zeros(4), **{column: se})

    def test_csv_reader_rejects_an_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match=r"d\.csv, line 1: no data rows"):
            Dataset.from_csv(p)

    def test_csv_reader_rejects_a_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.1,0.2\n0.3,0.4\n0.5\n")
        with pytest.raises(ValueError, match=r"d\.csv, line 4: expected 2 cells"):
            Dataset.from_csv(p)


    @pytest.mark.parametrize("text, message", [
        ("x,y\n0.1,0.2\n0.3,abc\n", "line 3: non-numeric cell"),
        ("x,y\n0.1,nan\n", "line 2: non-finite cell"),
        ("x,y\n0.1,0.2\n-inf,0.4\n", "line 3: non-finite cell"),
        ("x,x,y\n0.1,0.2,0.3\n", "line 1: column names must be distinct"),
        ("x,,y\n0.1,0.2,0.3\n", "line 1: column names must be distinct and non-empty"),
        ("x\n0.1\n", "line 1: dataset header .* has no y column"),
        ("x_se,y\n0.1,0.2\n", "line 1: dataset header .* has no x column"),
    ])
    def test_csv_reader_rejects_malformed_input(self, tmp_path, text, message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"d\.csv, " + message):
            Dataset.from_csv(p)


class TestSimulateDataset:
    def test_noiseless_at_origin(self):
        d = simulate_dataset(5, theta1=3.25, theta2=0.2, sigma=0.0, seed=0)
        assert d.x[0] == 0.0
        assert d.y[0] == pytest.approx(0.2, abs=1e-15)

    def test_grid_is_even_and_inclusive(self):
        d = simulate_dataset(101, seed=0)
        np.testing.assert_allclose(d.x, np.linspace(0.0, 1.0, 101))

    def test_residual_sd_near_generating_sigma(self):
        # chi-square band around sigma = 0.1 at n = 100
        d = simulate_dataset(100, theta1=3.25, theta2=0.2, sigma=0.1, seed=0)
        resid = d.y - true_mean(d.x, 3.25, 0.2)
        assert 0.08 <= resid.std(ddof=1) <= 0.12

    def test_same_seed_identical(self):
        a = simulate_dataset(50, seed=9)
        b = simulate_dataset(50, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_random_x_mode(self):
        d = simulate_dataset(50, seed=3, random_x=True)
        assert np.all((d.x >= 0.0) & (d.x <= 1.0))
        assert len(np.unique(np.round(np.diff(np.sort(d.x)), 12))) > 1

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            simulate_dataset(10, sigma=-1.0)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_dataset(0)

    @pytest.mark.parametrize("name", ["theta1", "theta2", "sigma"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_refused_up_front(self, name, value):
        with pytest.raises(ValueError, match="theta1, theta2 or sigma has a non-finite value"):
            simulate_dataset(10, **{name: value})


class TestSubsample:
    def test_every_eighth_of_hundred(self):
        d = simulate_dataset(100, seed=0)
        sub = subsample_every_kth(d, 8)
        assert sub.n == 12  # floor(100 / 8)
        np.testing.assert_array_equal(sub.x, d.x[7::8])

    def test_identity_when_k_is_one(self):
        d = simulate_dataset(10, seed=0)
        sub = subsample_every_kth(d, 1)
        np.testing.assert_array_equal(sub.x, d.x)
        np.testing.assert_array_equal(sub.y, d.y)

    def test_k_equal_n_keeps_one_row(self):
        d = simulate_dataset(100, seed=0)
        sub = subsample_every_kth(d, 100)
        assert sub.n == 1
        assert sub.x[0] == d.x[99]

    def test_k_beyond_n_is_an_error(self):
        d = simulate_dataset(10, seed=0)
        with pytest.raises(ValueError):
            subsample_every_kth(d, 11)

    def test_rows_preserved_bit_exactly(self):
        d = simulate_dataset(30, seed=1)
        sub = subsample_every_kth(d, 4)
        for i, j in enumerate(range(3, 30, 4)):
            assert sub.x[i] == d.x[j]
            assert sub.y[i] == d.y[j]

    def test_se_columns_follow_rows(self):
        d = Dataset(
            x=np.arange(6.0),
            y=np.arange(6.0),
            x_se=np.arange(6.0) * 0.01,
        )
        sub = subsample_every_kth(d, 2)
        np.testing.assert_array_equal(sub.x_se, d.x_se[1::2])


class TestSimulateClassification:
    def test_balanced_labels_under_null(self):
        d = simulate_classification(10_000, (0.0, 0.0, 0.0), seed=0)
        assert abs(d.y.mean() - 0.5) < 0.05

    def test_strong_coefficients_saturate(self):
        d = simulate_classification(5000, (0.0, 10.0, -10.0), seed=1)
        gap = d.x[:, 0] - d.x[:, 1]
        confident = np.abs(gap) > 1.0
        labels_match = d.y[confident] == (gap[confident] > 0).astype(float)
        assert labels_match.mean() > 0.99

    def test_features_in_box(self):
        d = simulate_classification(1000, (0.0, 1.0, 1.0), seed=2)
        assert np.all((d.x >= -3.0) & (d.x <= 3.0))

    def test_same_seed_identical(self):
        a = simulate_classification(100, (0.1, 1.0, -0.5), seed=7)
        b = simulate_classification(100, (0.1, 1.0, -0.5), seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            simulate_classification(1, (0.0, 1.0, 1.0))
