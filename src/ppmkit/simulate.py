"""Dataset container, synthetic data generators, and CSV I/O.

The regression generator draws noisy observations around a saturating
curve ``mu(x) = theta2 + tanh(theta1 * x / 2)`` on the unit interval; the
classification generator draws two uniform features and Bernoulli labels
through a linear logistic score.  Both are deterministic given their seed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .functions import MeanFunctionSpec, mean_values

TRUE_MODEL = MeanFunctionSpec("true_model")


def read_csv_rows(path) -> tuple[list[str], np.ndarray]:
    """(header, values) of a numeric CSV file: ``values`` holds one row of finite
    floats per data row.  A malformed file raises ``ValueError("<path>, line N: ...")``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}, line {len(rows) + 1}: no data rows")
    header, body = rows[0], rows[1:]
    if not header or not all(header) or len(set(header)) != len(header):
        raise ValueError(f"{path}, line 1: column names must be distinct and non-empty")
    values = []
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}, line {line}: expected {len(header)} cells, got {len(row)}")
        try:
            values.append(list(map(float, row)))
        except ValueError:
            raise ValueError(f"{path}, line {line}: non-numeric cell in {row}") from None
    values = np.array(values)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}, line {np.argmax(bad) + 2}: non-finite cell")
    return header, values


def csv_text(header, rows) -> str:
    """CSV text of ``rows`` under ``header``, floats by ``repr`` so they read back exactly."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    return buf.getvalue()


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Rectangular (x, y) rows with optional per-row standard errors.

    ``x`` is (n,) for single-feature problems or (n, d) for feature
    vectors; ``x_se``/``y_se``, when present, match the shapes of ``x``
    and ``y`` and must be nonnegative (zero means exactly known).
    """

    x: np.ndarray
    y: np.ndarray
    x_se: np.ndarray | None = None
    y_se: np.ndarray | None = None
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(self.x))
        object.__setattr__(self, "y", _readonly(self.y))
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        if self.y.ndim != 1:
            raise ValueError("y must be one-dimensional")
        for name in ("x_se", "y_se"):
            se = getattr(self, name)
            if se is None:
                continue
            se = _readonly(se)
            ref = self.x if name == "x_se" else self.y
            if se.shape != ref.shape:
                raise ValueError(f"{name} must match the shape of {name[0]}")
            if np.any(se < 0.0):
                raise ValueError("standard errors must be nonnegative")
            object.__setattr__(self, name, se)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return 1 if self.x.ndim == 1 else self.x.shape[1]

    # ---------- CSV ----------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        if self.x.ndim == 2:
            header = [f"x{j + 1}" for j in range(self.x.shape[1])] + ["y"]
            return csv_text(header, np.column_stack([self.x, self.y]))
        cols = {"x": self.x, "y": self.y, "x_se": self.x_se, "y_se": self.y_se}
        cols = {name: col for name, col in cols.items() if col is not None}
        return csv_text(list(cols), zip(*cols.values()))

    @classmethod
    def from_csv(cls, path, note: str = "") -> "Dataset":
        header, values = read_csv_rows(path)
        cols = dict(zip(header, values.T))
        if "y" not in cols:
            raise ValueError(f"{path}, line 1: dataset header {header!r} has no y column")
        if "x" in cols:
            return cls(
                x=cols["x"],
                y=cols["y"],
                x_se=cols.get("x_se"),
                y_se=cols.get("y_se"),
                note=note,
            )
        feature_names = sorted((n for n in cols if n[:1] == "x" and n[1:].isdigit()),
                               key=lambda n: int(n[1:]))
        if not feature_names:
            raise ValueError(f"{path}, line 1: dataset header {header!r} has no x column")
        x = np.column_stack([cols[n] for n in feature_names])
        return cls(x=x, y=cols["y"], note=note)


def true_mean(x, theta1: float, theta2: float):
    """The generating curve of the regression demo: bounded, saturating."""
    return mean_values(TRUE_MODEL, np.array([theta1, theta2]), x)


def simulate_dataset(
    n: int,
    theta1: float = 3.25,
    theta2: float = 0.2,
    sigma: float = 0.1,
    seed: int = 0,
    random_x: bool = False,
) -> Dataset:
    """Generate ``n`` rows of (x, y) with Gaussian noise around the true curve.

    ``x`` is an evenly spaced grid on [0, 1] by default so that the noise
    seed is the only randomness; ``random_x`` draws x uniformly instead.
    ``sigma=0`` is allowed for noiseless fixtures.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    if random_x:
        x = rng.uniform(0.0, 1.0, n)
    else:
        x = np.linspace(0.0, 1.0, n)
    mu = true_mean(x, theta1, theta2)
    y = mu + sigma * rng.standard_normal(n)
    mode = "random-x" if random_x else "grid-x"
    return Dataset(x=x, y=y, note=f"saturating-curve n={n} {mode} seed={seed}")


def subsample_every_kth(data: Dataset, k: int) -> Dataset:
    """Keep rows k, 2k, 3k, ... (1-based), preserving order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = np.arange(k - 1, data.n, k)
    if idx.size == 0:
        raise ValueError(f"subsampling every {k}th row of {data.n} leaves no data")
    return Dataset(
        x=data.x[idx],
        y=data.y[idx],
        x_se=None if data.x_se is None else data.x_se[idx],
        y_se=None if data.y_se is None else data.y_se[idx],
        note=f"{data.note} subsample-k={k}".strip(),
    )


def simulate_classification(
    n: int, coefficients: tuple[float, float, float], seed: int = 0
) -> Dataset:
    """Two uniform features on [-3, 3]^2 with Bernoulli labels.

    Label probability is logistic(theta0 + theta1*x1 + theta2*x2).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t0, t1, t2 = (float(c) for c in coefficients)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (n, 2))
    p = expit(t0 + t1 * x[:, 0] + t2 * x[:, 1])
    y = (rng.random(n) < p).astype(float)
    return Dataset(x=x, y=y, note=f"logistic-plane n={n} seed={seed}")
