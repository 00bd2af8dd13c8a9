"""Independent checks of mdlrank reports.

The singular spectrum comes from the eigenvalues of X^T X rather than an
SVD, the gram energies and Kaiser count are computed here from the
matrix, and the four-term totals are rebuilt from the formula in the
README. Nothing here calls mdlrank.
"""

import math

import numpy as np

# relative tolerance of a per-k total, taken against the summed magnitude
# of its four terms: the eigenvalue route and the program's SVD agree to
# about 1e-12 of that on these inputs
TOTAL_RTOL = 1e-9
# the floor the stated formula puts under a zero residual energy
TAIL_FLOOR = 1e-300
# an eigenvalue this close to 1 may fall on either side of Kaiser's cut
KAISER_ATOL = 1e-9


class CheckError(AssertionError):
    """A report disagrees with the independent computation."""


def formula_totals(x, gram_mode, epsilon):
    """(lower, upper, scale) arrays over k = 1..m-1; ``scale`` is the
    summed magnitude of the four terms of each lower total."""
    n, m = x.shape
    lam = np.clip(np.linalg.eigvalsh(x.T @ x), 0.0, None)  # ascending
    tails = np.cumsum(lam)[::-1]  # tails[k] = sum of the m-k smallest
    k = np.arange(1, m, dtype=np.float64)
    tail = np.maximum(tails[1:], TAIL_FLOOR)
    if gram_mode == "full_gram":
        gram_term = n * k * math.log(float(np.sum(lam * lam)))
    elif gram_mode == "per_row_sum":
        row_energy = np.maximum(np.einsum("ij,ij->i", x, x), TAIL_FLOOR)
        gram_term = k * float(np.sum(np.log(row_energy)))
    else:
        raise CheckError(f"unknown gram mode {gram_mode!r}")
    terms = (
        (n * m - k * n) * np.log(tail),
        gram_term,
        (m * n - k * n - 1) * np.log(m / (m - k)),
        -(n * k + 1) * np.log(n * k),
    )
    lower = sum(terms)
    upper = lower + m * k * math.log(2.0 / (m * epsilon))
    scale = sum(np.abs(t) for t in terms)
    return lower, upper, scale


def kaiser_counts(x):
    """Acceptable Kaiser counts: eigenvalues of the correlation matrix at
    least one, with either side allowed for a value at the cut."""
    eig = np.linalg.eigvalsh(np.corrcoef(x, rowvar=False))
    sure = int(np.sum(eig >= 1.0 + KAISER_ATOL))
    return set(range(sure, int(np.sum(eig >= 1.0 - KAISER_ATOL)) + 1))


def _check_argmin(reported, totals, scale, what):
    k = int(reported)
    if not 1 <= k <= len(totals):
        raise CheckError(f"{what} {k} outside 1..{len(totals)}")
    best = float(np.min(totals))
    tie = 2 * TOTAL_RTOL * float(np.max(scale))
    if totals[k - 1] > best + tie:
        raise CheckError(
            f"{what} {k} has total {totals[k - 1]!r}; k={int(np.argmin(totals)) + 1} has {best!r}"
        )


def check_selection(block, x, epsilon):
    """One selection table (the report's own or its ``alt``) against X."""
    lower, upper, scale = formula_totals(x, block["gram_mode"], epsilon)
    per_k = block["per_k"]
    if [row["k"] for row in per_k] != list(range(1, len(lower) + 1)):
        raise CheckError(f"per_k must list k = 1..{len(lower)}")
    for name, want in (("lower_total", lower), ("upper_total", upper)):
        got = np.array([row[name] for row in per_k], dtype=np.float64)
        bad = np.flatnonzero(np.abs(got - want) > TOTAL_RTOL * scale)
        if bad.size:
            i = bad[0]
            raise CheckError(
                f"{block['gram_mode']} {name} at k={i + 1}: report {got[i]!r}, formula {want[i]!r}"
            )
    _check_argmin(block["k_lower_opt"], lower, scale, "k_lower_opt")
    _check_argmin(block["k_upper_opt"], upper, scale, "k_upper_opt")
    kl, ku = block["k_lower_opt"], block["k_upper_opt"]
    if list(block["k_bracket"]) != [min(kl, ku), max(kl, ku)]:
        raise CheckError(f"k_bracket {block['k_bracket']} does not span {kl} and {ku}")


def check_report(report, x, gram_modes):
    """A select report (or one compare element) computed from X."""
    n, m = x.shape
    if (report["n"], report["m"]) != (n, m):
        raise CheckError(f"report is {report['n']} x {report['m']}, input is {n} x {m}")
    epsilon = report["epsilon"]
    if epsilon != 1.0 / (2 * m):
        raise CheckError(f"default epsilon must be 1/(2m), got {epsilon!r}")
    blocks = [report] + ([report["alt"]] if "alt" in report else [])
    if [b["gram_mode"] for b in blocks] != list(gram_modes):
        raise CheckError(f"gram modes {[b['gram_mode'] for b in blocks]}, expected {list(gram_modes)}")
    for block in blocks:
        check_selection(block, x, epsilon)
    kaiser = report["baselines"]["kaiser"]
    if kaiser not in kaiser_counts(x):
        raise CheckError(f"kaiser {kaiser}, expected one of {sorted(kaiser_counts(x))}")
