"""Seeded inputs of the benchmark workloads.

Everything here is made from the run's seed with numpy alone; the program
under test sees only the files written here and the command-line flags.
"""

import os
from dataclasses import dataclass

import numpy as np

# prices are whole numbers of ticks, written with four decimals; a float of
# the written text equals ticks / TICKS_PER_UNIT exactly, so the checker's
# prices are bit-identical to the ones the program parses
TICKS_PER_UNIT = 10_000


@dataclass(frozen=True)
class PriceShape:
    rows: int
    cols: int
    factors: int


def price_ticks(shape: PriceShape, seed: int) -> np.ndarray:
    """Prices in ticks: a mean-reverting log price around 500 driven by
    ``factors`` common shocks plus idiosyncratic noise.

    The log deviation is clipped to +-0.6, so every price lies in
    [274, 912] and every cell is written with the same eight characters;
    parse work then does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    loadings = rng.uniform(-1.0, 1.0, (shape.factors, shape.cols))
    shocks = 0.006 * (rng.standard_normal((shape.rows, shape.factors)) @ loadings)
    shocks += 0.004 * rng.standard_normal((shape.rows, shape.cols))
    level = np.empty((shape.rows, shape.cols))
    y = np.zeros(shape.cols)
    for t in range(shape.rows):
        y = 0.98 * y + shocks[t]
        level[t] = y
    prices = 500.0 * np.exp(np.clip(level, -0.6, 0.6))
    return np.rint(prices * TICKS_PER_UNIT).astype(np.int64)


def write_price_csv(path, ticks: np.ndarray) -> None:
    cols = ticks.shape[1]
    row_format = ",".join(["%.4f"] * cols) + "\n"
    prices = ticks / TICKS_PER_UNIT
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"p{j + 1}" for j in range(cols)) + "\n")
        for row in prices:
            fh.write(row_format % tuple(row))
        # on disk before the timed run starts, so its write-back cannot
        # land inside it
        fh.flush()
        os.fsync(fh.fileno())


def percent_returns(ticks: np.ndarray) -> np.ndarray:
    """Percent returns of the written prices, computed from the ticks."""
    p = ticks / TICKS_PER_UNIT
    return 100.0 * (p[1:] - p[:-1]) / p[:-1]


@dataclass(frozen=True)
class LinShape:
    n: int
    m: int
    true_k: int
    noise: float


def lin_matrix(shape: LinShape, seed: int) -> np.ndarray:
    """The documented planted-rank recipe of ``mdlrank generate --kind lin``
    with default mixing bounds: ``true_k`` standard-normal source columns,
    then each further column a uniform(-1, 1) mixture of the sources plus
    Gaussian noise, all drawn from one PCG64 stream in that order."""
    rng = np.random.default_rng(seed)
    sources = rng.standard_normal((shape.n, shape.true_k))
    cols = [sources]
    for _ in range(shape.m - shape.true_k):
        coeffs = rng.uniform(-1.0, 1.0, size=shape.true_k)
        noise = rng.normal(0.0, shape.noise, size=shape.n)
        cols.append((sources @ coeffs + noise)[:, None])
    return np.hstack(cols)
