"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
quantity next to its tolerance (run pytest with -rA to see the lines for
passing tests too).

Three sub-criteria are implemented verbatim but expected to fail, with
the analysis recorded alongside:

* the consecutive-window achieved size band [0.038, 0.050]: the measured
  level of the replicated windowing protocol is ~0.051 (overlapping
  embedded columns mildly inflate the level rather than deflate it), so
  the reference value 0.044 appears specific to one Monte Carlo draw or
  an undocumented detail of the original run;
* the two-sample KS gate at 0.01 for 1e4-vs-1e4 samples: the median KS
  distance between two samples of that size drawn from the SAME law is
  ~0.0118, so the gate is below the resolution of the stated sample
  sizes (a reference-sample companion test pins the actual agreement);
* the future-coupled map's zero claim at s = t: with the x sample
  excluded from the conditioning, y_t retains its direct dependence on
  x_t, so the value at the diagonal is ~0.18, not 0 (zeros hold for all
  s < t, which the companion test pins).
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

import cohercause as cc
from cohercause.experiments import _study_statistics

ACCEPT_SEED = 42

CORPUS_DIMS = (cc.BlockDims(1, 1, 1), cc.BlockDims(3, 2, 4), cc.BlockDims(5, 5, 2))


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} | {detail}")


@pytest.fixture(scope="module")
def corpus():
    """100 random positive definite composites across three dim triples."""
    rng = np.random.default_rng(ACCEPT_SEED)
    out = []
    for i in range(100):
        dims = CORPUS_DIMS[i % len(CORPUS_DIMS)]
        a = rng.standard_normal((dims.total, dims.total))
        out.append(
            cc.CompositeCovariance.from_matrix(
                a @ a.T + 0.5 * dims.total * np.eye(dims.total), dims
            )
        )
    return out


def test_01_null_calibration_independent():
    est = cc.calibrate_size(
        cc.BarnettModelSpec(transfer_entropy=0.0, ma_order=1),
        alpha=0.05,
        replications=10_000,
        M=1000,
        T=10,
        window_mode="independent-realizations",
        seed=ACCEPT_SEED,
    )
    ok = 0.043 <= est.achieved <= 0.057
    report(
        "1 (null calibration, independent)",
        ok,
        f"rate={est.achieved:.4f} (se={est.std_error:.4f}) in [0.043, 0.057]",
    )
    assert ok


@pytest.mark.xfail(
    strict=False,
    reason="measured level of the windowing protocol is ~0.051, above the "
    "0.044+/-0.006 band taken from the original run; see the module docstring",
)
def test_01b_null_calibration_consecutive_paper_band():
    est = cc.calibrate_size(
        cc.BarnettModelSpec(transfer_entropy=0.0, ma_order=1),
        alpha=0.05,
        replications=10_000,
        M=1000,
        T=10,
        window_mode="consecutive-windows",
        seed=ACCEPT_SEED,
    )
    ok = 0.038 <= est.achieved <= 0.050
    report(
        "1b (consecutive-window level, reference band)",
        ok,
        f"rate={est.achieved:.4f} (se={est.std_error:.4f}) vs band [0.038, 0.050]; "
        "overlapping columns inflate the level slightly, the reference "
        "deflation to 0.044 does not reproduce",
    )
    assert ok


def _h0_statistics(n: int, seed: int = ACCEPT_SEED) -> np.ndarray:
    spec0 = cc.BarnettModelSpec(transfer_entropy=0.0, ma_order=1)
    return _study_statistics([spec0], [0], n, 1000, 10, "independent-realizations", seed, 1)[0]


@pytest.mark.xfail(
    strict=False,
    reason="0.01 is below the ~0.0118 median KS distance of two identical "
    "1e4-sample distributions; the reference-sample companion test covers "
    "the actual agreement",
)
def test_02_beta_product_ks_as_stated():
    stats = _h0_statistics(10_000)
    null = cc.sample_null(cc.WilksLambdaSpec(10, 1, 10, 999), 10_000, seed=ACCEPT_SEED)
    ks = ks_2samp(stats, null)
    ok = ks.statistic < 0.01
    report(
        "2 (Beta-product law, 1e4 vs 1e4)",
        ok,
        f"KS={ks.statistic:.4f} vs 0.01 (two-sample p={ks.pvalue:.3f}; "
        "the law itself is confirmed by 2b)",
    )
    assert ok


def test_02b_beta_product_ks_reference_sample():
    # Same property with a 1e6-sample reference, where 0.0171 bounds the
    # KS distance of matching laws at the ~1e-2 level per draw. The
    # median over three independent draws is immune to one unlucky seed
    # while any systematic mismatch would move all three.
    null = cc.sample_null(cc.WilksLambdaSpec(10, 1, 10, 999), 1_000_000, seed=ACCEPT_SEED)
    distances = [
        ks_2samp(_h0_statistics(10_000, seed=ACCEPT_SEED + k), null).statistic
        for k in range(3)
    ]
    med = float(np.median(distances))
    ok = med < 0.0171
    report(
        "2b (Beta-product law, 1e4 vs 1e6 reference)",
        ok,
        f"median KS over 3 draws = {med:.4f} < 0.0171 "
        f"(draws: {[f'{d:.4f}' for d in distances]})",
    )
    assert ok


def test_03_barnett_power_replication():
    t0 = time.monotonic()
    fast = cc.power_curve(
        range(0, 11),
        F=0.02,
        alpha=0.05,
        replications=2_000,
        M=1000,
        T=10,
        seed=ACCEPT_SEED,
        window_mode="consecutive-windows",
    )
    fast_elapsed = time.monotonic() - t0
    fast_ok = all(0.83 <= pt.power <= 0.97 for pt in fast) and fast_elapsed < 600
    report(
        "3a (power, fast preset)",
        fast_ok,
        f"powers={[round(pt.power, 3) for pt in fast]} in [0.83, 0.97], "
        f"elapsed={fast_elapsed:.0f}s < 600s",
    )
    assert fast_ok

    full = cc.power_curve(
        range(0, 11),
        F=0.02,
        alpha=0.05,
        replications=10_000,
        M=1000,
        T=10,
        seed=ACCEPT_SEED,
        window_mode="consecutive-windows",
    )
    powers = [pt.power for pt in full]
    in_band = all(0.85 <= v <= 0.95 for v in powers)
    flat = max(powers) - min(powers) < 0.05
    report(
        "3 (power vs MA order, 1e4 replications)",
        in_band and flat,
        f"powers={[round(v, 3) for v in powers]} in [0.85, 0.95], "
        f"spread={max(powers) - min(powers):.3f} < 0.05",
    )
    assert in_band and flat


def test_04_population_coherence_limit():
    target = 1.0 - math.exp(-0.02)
    worst = 0.0
    for order in (0, 1, 10):
        spec = cc.BarnettModelSpec(transfer_entropy=0.02, ma_order=order)
        rho2 = cc.partial_coherence(cc.lag_window_covariance(spec, 20)).rho2
        worst = max(worst, abs(rho2 - target) / target)
    ok = worst < 0.10
    report(
        "4 (population coherence at T=20)",
        ok,
        f"max relative error over orders (0,1,10) = {worst:.4f} < 0.10 "
        f"against 1-e^-0.02 = {target:.6f}",
    )
    assert ok


def _pairwise_map(case: str) -> cc.CoherenceMap:
    return cc.coherence_map(
        cc.MAFilterSpec.from_case(case),
        range(0, 20),
        range(0, 20),
        conditioning="past-of-x",
        T_cond=20,
    )


def test_05a_structural_zeros_past_coupled():
    cmap = _pairwise_map("I")
    worst = 0.0
    for i, s in enumerate(cmap.s_range):
        for j, t in enumerate(cmap.t_range):
            if s > t or s < t - 3:
                worst = max(worst, abs(cmap.values[i, j]))
    ok = worst < 1e-10
    report(
        "5a (structural zeros, past-coupled case)",
        ok,
        f"max |rho2| over s>t and s<t-3 = {worst:.2e} < 1e-10 on a 20x20 grid",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="y_t depends on x_t directly; excluding x_t from the conditioning "
    "leaves rho2(t, t) ~ 0.18, so the zero claim holds only for s < t",
)
def test_05b_structural_zeros_future_coupled_as_stated():
    cmap = _pairwise_map("II")
    worst = 0.0
    for i, s in enumerate(cmap.s_range):
        for j, t in enumerate(cmap.t_range):
            if s <= t:
                worst = max(worst, abs(cmap.values[i, j]))
    ok = worst < 1e-10
    report(
        "5b (future-coupled zeros for s <= t, as stated)",
        ok,
        f"max |rho2| over s<=t = {worst:.2e} vs 1e-10; the diagonal carries "
        "the direct x_t coupling once x_s=x_t is excluded from z",
    )
    assert ok


def test_05c_structural_zeros_future_coupled_strict_past():
    cmap = _pairwise_map("II")
    worst = 0.0
    diag_min = 1.0
    for i, s in enumerate(cmap.s_range):
        for j, t in enumerate(cmap.t_range):
            if s < t:
                worst = max(worst, abs(cmap.values[i, j]))
            elif s == t:
                diag_min = min(diag_min, cmap.values[i, j])
    ok = worst < 1e-10 and diag_min > 0.1
    report(
        "5c (future-coupled zeros, strict past)",
        ok,
        f"max |rho2| over s<t = {worst:.2e} < 1e-10; diagonal value "
        f"{diag_min:.3f} > 0.1 carries the direct coupling",
    )
    assert ok


def test_06_framing_equivalence(corpus):
    worst = max(
        abs(cc.partial_coherence(R).rho2 - cc.partial_coherence_one_onto_two(R))
        for R in corpus
    )
    ok = worst < 1e-10
    report(
        "6 (two-onto-one vs one-onto-two)",
        ok,
        f"max |difference| over 100 matrices = {worst:.2e} < 1e-10",
    )
    assert ok


def test_07_block_diagonal_invariance(corpus):
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    worst_rho = 0.0
    worst_k = 0.0
    for R in corpus:
        dims = R.dims
        tx = rng.standard_normal((dims.p, dims.p)) + np.eye(dims.p)
        ty = rng.standard_normal((dims.q, dims.q)) + np.eye(dims.q)
        tz = rng.standard_normal((dims.r, dims.r)) + np.eye(dims.r)
        base = cc.partial_coherence(R)
        moved = cc.partial_coherence(cc.block_diag_transform(R, tx, ty, tz))
        worst_rho = max(worst_rho, abs(base.rho2 - moved.rho2))
        worst_k = max(
            worst_k,
            np.abs(
                base.canonical_correlations - moved.canonical_correlations
            ).max(),
        )
    ok = worst_rho < 1e-8 and worst_k < 1e-8
    report(
        "7 (block-diagonal invariance)",
        ok,
        f"max |drho2|={worst_rho:.2e} < 1e-8, max |dk|={worst_k:.2e} < 1e-8",
    )
    assert ok


def test_08_northwest_readout(corpus):
    worst = 0.0
    for R in corpus:
        nw = cc.northwest_readout(R)
        sc = cc.schur_complement(R, "uu")
        worst = max(worst, np.abs(nw - sc).max() / np.abs(sc).max())
    ok = worst < 1e-10
    report(
        "8 (inverse-block vs Schur route)",
        ok,
        f"max relative deviation = {worst:.2e} < 1e-10",
    )
    assert ok


def test_09_scalar_partial_correlation_oracle():
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    dims = cc.BlockDims(1, 1, 1)
    worst = 0.0
    produced = 0
    while produced < 1000:
        rxy, rxz, ryz = rng.uniform(-0.95, 0.95, size=3)
        m = np.array([[1.0, rxy, rxz], [rxy, 1.0, ryz], [rxz, ryz, 1.0]])
        if np.linalg.eigvalsh(m)[0] <= 1e-2:
            continue
        produced += 1
        R = cc.CompositeCovariance.from_matrix(m, dims)
        oracle = (
            (rxy - rxz * ryz) / math.sqrt((1 - rxz**2) * (1 - ryz**2))
        ) ** 2
        worst = max(worst, abs(cc.partial_coherence(R).rho2 - oracle))
    ok = worst < 1e-12
    report(
        "9 (scalar partial-correlation oracle)",
        ok,
        f"max |rho2 - oracle| over 1000 triples = {worst:.2e} < 1e-12",
    )
    assert ok


def test_10_bartlett_agreement():
    spec = cc.WilksLambdaSpec(10, 1, 10, 1000)
    mc = cc.null_law(spec, n_mc=200_000, seed=ACCEPT_SEED)[0](0.05)
    bart = cc.null_law(spec, "bartlett")[0](0.05)
    rel = abs(mc - bart) / bart
    ok = rel < 0.02
    report(
        "10 (Bartlett vs Monte Carlo critical value)",
        ok,
        f"mc={mc:.6f}, bartlett={bart:.6f}, relative gap={rel:.4f} < 0.02",
    )
    assert ok


def test_11_spectral_consistency():
    seqs = cc.analytic_covariances(cc.MAFilterSpec.from_case("I"), 128)
    sp = cc.spectral_partial_coherence(seqs.xx, seqs.yy, seqs.xy, 4096)
    W = 64
    xs = [("x", i) for i in range(W)]
    ys = [("y", i) for i in range(W)]
    R = cc.composite_from_sequences(seqs, xs, ys, [])
    det_q = cc.partial_coherence(R).det_q
    window_rate = 1.0 - det_q ** (1.0 / W)
    rel = abs(sp.broadband_rho2 - window_rate) / window_rate
    ok = rel < 0.02
    report(
        "11 (Szego broadband vs window-64 rate)",
        ok,
        f"broadband={sp.broadband_rho2:.6f}, window rate={window_rate:.6f}, "
        f"relative gap={rel:.4f} < 0.02",
    )
    assert ok
