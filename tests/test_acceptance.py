"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test prints a ``[criterion N] PASS/FAIL`` line directly to the
terminal (bypassing capture) and then asserts, so a plain ``pytest -v``
run shows the scoreboard. Tolerances are pinned here, not configurable.

Known red: criterion 6b pins the advertised inner-product deviation bound
eps + m*eps^2/4 with zero violations over random orthogonal matrices. That
closed form underestimates the attainable worst case (rounding residuals
can align with the other column; the deterministic bound carries an extra
sqrt(m) factor on the linear term), so violations occur at a small but
nonzero rate and the check fails. It is kept as stated rather than loosened;
the corrected bound is verified separately in test_quantization.py.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mdlrank import (
    Spectrum,
    SyntheticSpec,
    frobenius_sq,
    generate_lin,
    inner_product_perturbation_bound,
    kaiser,
    kneedle,
    quantize,
    quantized_unitary_log_count_bound,
    score_table,
    select_rank,
    svd,
    tail_energy,
    truncate,
    verify_elimination_sandwich,
)
from mdlrank.datasets import bundled_fixture_path
from helpers import (
    chord_knee_oracle,
    gaussian_grid_model,
    planted_rank_matrix,
    random_discrete_model,
    random_orthonormal,
)


@pytest.fixture
def announce(capsys):
    """Print one scoreboard line per criterion on the live terminal."""

    def _emit(num, name, ok, detail=""):
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}{detail}"
        with capsys.disabled():
            print("\n" + line, flush=True)
        return ok

    return _emit


def test_criterion_1_truncation_residual_identity(announce):
    """Residual energy of every rank-k truncation equals the trailing
    squared singular values, over 100 seeded matrices."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 61))
        m = int(rng.integers(3, 31))
        m = min(m, n)
        x = rng.standard_normal((n, m)) * rng.uniform(0.05, 20.0)
        s = svd(x)
        budget = 1e-8 * max(1.0, frobenius_sq(x))
        for k in range(m + 1):
            gap = abs(frobenius_sq(x - truncate(s, k)) - tail_energy(s, k))
            worst = max(worst, gap / budget)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 30.0
    assert announce(
        1, "truncation residual identity", ok,
        f" (worst gap {worst:.3g} of budget, {elapsed:.1f}s)",
    )


def test_criterion_2_elimination_sandwich(announce):
    """Fixed-parameter sandwich bounds hold by exact enumeration on 20
    seeded models plus the 3 hand-built fixtures."""
    start = time.perf_counter()
    heights = {1: 1.0, 2: 0.5, 3: 0.25}
    from mdlrank import DiscreteModel

    fixtures = [
        gaussian_grid_model(n_points=51, sigmas=(1.0,)),  # single-b degenerate
        DiscreteModel(  # one b dominates every cell
            x_points=(0.0, 1.0, 2.0),
            weights=(1.0, 1.0, 1.0),
            a_family=(0.0,),
            b_family=(1, 2, 3),
            likelihood=lambda x, a, b: heights[b],
        ),
        gaussian_grid_model(n_points=201),  # location family, two scales
    ]
    models = fixtures + [random_discrete_model(seed) for seed in range(20)]
    min_slack = math.inf
    ok = True
    for model in models:
        check = verify_elimination_sandwich(model)
        ok = ok and check.upper_holds and check.lower_holds
        min_slack = min(min_slack, check.slack_upper, check.slack_lower)
    elapsed = time.perf_counter() - start
    ok = ok and min_slack >= -1e-9 and elapsed < 10.0
    assert announce(
        2, "elimination sandwich bounds", ok,
        f" (23 models, min slack {min_slack:.3g}, {elapsed:.1f}s)",
    )


def test_criterion_3_score_arithmetic(announce):
    """The k-score reproduces the worked four-term value and the slack
    closed form, against a 50-digit arithmetic oracle."""
    from mpmath import mp, mpf

    mp.dps = 50
    worked = float(
        8 * mp.log(2) + 4 * mp.log(100) + 7 * mp.log(mpf(3) / 2) - 5 * mp.log(4)
    )
    x = Spectrum(n=4, singular_values=np.array([math.sqrt(98.0), 1.0, 1.0]))
    table = score_table(x, log_gram=math.log(100.0), epsilon=1 / 6)
    gap_worked = abs(float(table.lower_total[1 - 1]) - worked)  # k = 1

    y = Spectrum(n=20, singular_values=np.arange(10, 0, -1.0))
    table2 = score_table(y, log_gram=0.0, epsilon=0.05)
    gap_delta = abs(float(table2.delta_upper[2 - 1]) - 20 * math.log(4.0))  # k = 2

    ok = gap_worked <= 1e-9 and gap_delta <= 1e-12
    assert announce(
        3, "score arithmetic vs high-precision oracle", ok,
        f" (worked gap {gap_worked:.2g}, slack gap {gap_delta:.2g})",
    )


def test_criterion_4_exact_regime_rank_recovery(announce):
    """20 seeded rank-r constructions with noise at 1e-6 of the smallest
    kept singular value: both argmins equal r."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    failures = []
    for trial in range(20):
        r = int(rng.choice([2, 3, 5]))
        m = int(rng.integers(max(r + 2, 6), 16))
        n = 10 * m
        x0 = planted_rank_matrix(rng, n, m, r)
        lam_r = np.linalg.svd(x0, compute_uv=False)[r - 1]
        x = x0 + rng.normal(0.0, 1e-6 * lam_r, (n, m))
        rep = select_rank(x)
        if not (rep.k_lower_opt == r == rep.k_upper_opt):
            failures.append((trial, r, rep.k_lower_opt, rep.k_upper_opt))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert announce(
        4, "exact-regime rank recovery", ok,
        f" (failures {failures}, {elapsed:.1f}s)",
    )


def test_criterion_5_planted_rank_analog(announce):
    """Planted-rank analogs at n=500, m=30, noise 0.1, shipped seed 7:
    the true source count lies in the selection bracket."""
    results = {}
    for true_k in (10, 5):
        spec = SyntheticSpec(n=500, m=30, true_k=true_k, noise_sigma=0.1, seed=7)
        rep = select_rank(generate_lin(spec))
        results[true_k] = (rep.k_bracket, rep.k_bracket[0] <= true_k <= rep.k_bracket[1])
    ok = all(contained for _, contained in results.values())
    assert announce(
        5, "planted-rank bracket containment", ok,
        f" (lin10 bracket {results[10][0]}, lin5 bracket {results[5][0]})",
    )


def _quantization_sweep():
    rng = np.random.default_rng(606)
    entry_viol = 0
    pair_viol = 0
    pairs = 0
    for _ in range(200):
        m = int(rng.integers(2, 17))
        v = random_orthonormal(rng, m)
        for eps in (1 / 8, 1 / 16, 1 / 32):
            if eps >= 1.0 / m:
                continue
            q = quantize(v, eps)
            if np.max(np.abs(q.v_eps - v)) > eps / 2:
                entry_viol += 1
            dev = np.abs(q.v_eps.T @ q.v_eps - v.T @ v)
            bound = inner_product_perturbation_bound(m, eps)
            pair_viol += int(np.sum(np.triu(dev > bound)))
            pairs += m * (m + 1) // 2
    return entry_viol, pair_viol, pairs


def test_criterion_6a_quantization_entrywise_error(announce):
    """Entrywise quantization error is at most half a step, over 200
    seeded orthogonal matrices and all valid steps."""
    entry_viol, _, _ = _quantization_sweep()
    ok = entry_viol == 0
    assert announce(
        "6a", "entrywise quantization error <= eps/2", ok,
        f" ({entry_viol} violations)",
    )


def test_criterion_6b_quantization_pairwise_deviation(announce):
    """Pairwise inner-product deviation within eps + m*eps^2/4, zero
    violations. Pinned as stated; see the module docstring for why this
    closed form is unattainable as a worst case and fails here."""
    _, pair_viol, pairs = _quantization_sweep()
    ok = pair_viol == 0
    assert announce(
        "6b", "pairwise inner-product deviation bound", ok,
        f" ({pair_viol} of {pairs} column pairs exceed the nominal bound)",
    )


def test_criterion_7_log_count_bound(announce):
    """Closed-form quantized-matrix count bound matches the 50-digit
    oracle at (4, 2, 1/10) and the single-column identity is exact."""
    from mpmath import mp, mpf

    mp.dps = 50
    m, k, eps = 4, 2, mpf(1) / 10
    shrink = (1 - (1 + eps + eps**2 / 4) / mp.sqrt(m)) / 2
    oracle = float(
        m * k * (mp.log(2 / eps + 1) - shrink) + (k - 1) * mp.log((eps + m * eps**2 / 4) / mp.pi)
    )
    gap = abs(quantized_unitary_log_count_bound(4, 2, 0.1) - oracle)

    m1, eps1 = 6, 1 / 8
    shrink1 = (1.0 - (1.0 + eps1 + eps1**2 / 4.0) / math.sqrt(m1)) / 2.0
    first_term = m1 * 1 * (math.log(2.0 / eps1 + 1.0) - shrink1)
    identity_exact = quantized_unitary_log_count_bound(m1, 1, eps1) == first_term

    ok = gap <= 1e-2 and identity_exact
    assert announce(
        7, "quantized-matrix count bound", ok,
        f" (oracle gap {gap:.2g}, k=1 identity {'exact' if identity_exact else 'broken'})",
    )


def test_criterion_8_baselines(announce):
    """Kaiser reference count, knee agreement with the chord oracle, and
    knee invariance under positive affine y-transforms."""
    kaiser_ok = kaiser([2.5, 1.2, 0.8, 0.5]) == 2

    y = 1.0 / (np.arange(10) + 1.0)
    knee = kneedle(y, sensitivity=1.0)
    chord_ok = knee == chord_knee_oracle(y)

    rng = np.random.default_rng(808)
    affine_ok = True
    for _ in range(50):
        m = int(rng.integers(3, 30))
        values = np.sort(rng.uniform(0.0, 10.0, m))[::-1]
        affine_ok = affine_ok and kneedle(values) == kneedle(5.0 * values + 2.0)

    ok = kaiser_ok and chord_ok and affine_ok
    assert announce(
        8, "classical baselines", ok,
        f" (kaiser {kaiser_ok}, chord {chord_ok}, affine {affine_ok})",
    )


def test_criterion_9_cli_end_to_end(tmp_path, announce):
    """CLI selection on the bundled fixture: exit 0, schema-valid JSON,
    byte-identical reproducible runs."""
    import jsonschema
    import importlib.resources

    start = time.perf_counter()
    fixture = str(bundled_fixture_path())
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    codes = []
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "mdlrank.cli", "select", "--input", fixture,
             "--reproducible", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
    schema = json.loads(
        (importlib.resources.files("mdlrank") / "schemas" / "run_report.schema.json").read_text()
    )
    report = json.loads(out_a.read_text())
    try:
        jsonschema.validate(report, schema)
        valid = True
    except jsonschema.ValidationError:
        valid = False
    identical = out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.perf_counter() - start
    ok = codes == [0, 0] and valid and identical and elapsed < 20.0
    assert announce(
        9, "CLI end to end", ok,
        f" (exits {codes}, schema_valid {valid}, reproducible {identical}, {elapsed:.1f}s)",
    )
