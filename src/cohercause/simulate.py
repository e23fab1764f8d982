"""Generative models and analytic covariances for the built-in experiments.

Two families are provided. The moving-average demonstration family
couples an output series to a nearly-white input series through a finite
filter whose support offsets select past, future or mixed influence:

    x_n = h0 sum_k a^k mu_{n-k}
    y_n = g0 sum_k b^k nu_{n-k} + sum_j f_j x_{n-j}

The second family is the bivariate ARMA(r, 1) system used in the
Barnett-Seth power study: a pair of AR(1) channels coupled by one delay
through a coefficient c chosen so the transfer entropy from x to y is
exactly F, each channel then passed through (1 + f z)^r.

Each family describes itself once, by ``noise_responses()``: the responses
of x and y to two unit white noises mu and nu, each a finite coefficient
array with a first delay (negative where the coupling leads). Every
auto- and cross-covariance sequence is an overlap sum of two responses,
and composite covariances for arbitrary sample selections are assembled
from those sequences. Generators simulate the AR recursions directly and
apply the finite MA filters afterwards, so the only truncation anywhere
is in the geometric responses, whose discarded tails are kept below
1e-12 per coefficient.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .covariance import BlockDims, CompositeCovariance
from .inference import LagSpec, atomic_write
from .streams import stream_rng

__all__ = [
    "MAFilterSpec",
    "BarnettModelSpec",
    "CovarianceSequences",
    "gen_ma_case",
    "gen_barnett",
    "analytic_covariances",
    "composite_from_sequences",
    "lag_window_covariance",
    "write_sequence_csv",
]

COEFF_TOL = 1e-12
BURN_IN = 1000
# Rows of a sequence file formatted and written at a time.
_CSV_BLOCK_ROWS = 4096

# A channel's response to one noise: coefficients a[k] of w_{n - delay - k}.
Response = tuple[np.ndarray, int]
Channel = tuple[Response, Response]  # responses to mu and to nu
_SILENT: Response = (np.empty(0), 0)

MA_CASES = {
    "I": ((0, 1, 2, 3), (0.7, 0.8, 0.7, 0.6)),
    "II": ((0, -1, -2, -3), (0.7, 0.8, 0.7, 0.3)),
    "III": ((2, 1, 0, -1, -2), (0.4, 0.8, 0.7, 0.8, 0.4)),
}


def _load_extension(path: str, name: str):
    """Load the compiled module at ``path`` on its own, as ``cohercause.<name>``."""
    spec = importlib.util.spec_from_file_location(f"cohercause.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sigtools_path() -> str:
    """The file of scipy.signal's ``_sigtools`` extension, found without importing either."""
    found = importlib.machinery.PathFinder.find_spec(
        "_sigtools", importlib.util.find_spec("scipy.signal").submodule_search_locations
    )
    return found.origin


def _bind_lfilter():
    """``scipy.signal.lfilter`` for the AR recursions, without importing scipy.signal.

    Importing scipy.signal takes ~0.9 s and ~40 MB, most of every short CLI
    process, and this module needs only ``lfilter`` from it. For a
    denominator of two or more coefficients ``lfilter`` calls
    ``_sigtools._linear_filter(b, a, x, axis[, zi])`` and nothing else, so
    the extension is loaded on its own under a private name: the same C
    routine gives the same bits, and scipy.signal stays unloaded for any
    later importer. If the file, its load or the symbol is missing (it is
    private SciPy API), the public ``lfilter`` is bound instead: the same
    bits at the old cost.
    """
    try:
        linear_filter = _load_extension(_sigtools_path(), "_sigtools")._linear_filter
    except (ImportError, AttributeError):
        from scipy import signal

        return signal.lfilter

    def lfilter(b, a, x, zi=None):
        """``scipy.signal.lfilter(b, a, x, zi=zi)`` along the last axis; ``len(a) >= 2``."""
        # As lfilter's np.atleast_1d makes of the list arguments.
        b = np.array(b, dtype=np.float64, ndmin=1)
        a = np.array(a, dtype=np.float64, ndmin=1)
        if b.ndim != 1 or a.ndim != 1 or b.size < 1 or a.size < 2:
            # lfilter takes a separate np.convolve route for a single a.
            raise ValueError(
                f"need 1-D b and a with len(a) >= 2, got shapes {b.shape} and {a.shape}"
            )
        if zi is None:
            return linear_filter(b, a, x, -1)
        return linear_filter(b, a, x, -1, zi)

    return lfilter


lfilter = _bind_lfilter()


def _geometric(c0: float, ratio: float, tol: float = COEFF_TOL) -> np.ndarray:
    """One-sided sequence c0 * ratio^k truncated where |c0 ratio^K| < tol."""
    K = int(math.ceil(math.log(tol / abs(c0)) / math.log(abs(ratio))))
    return c0 * ratio ** np.arange(K + 1)


@dataclass(frozen=True)
class MAFilterSpec:
    """Coupled moving-average pair with a finite causal/anticausal filter.

    ``f_offsets[j]`` is the delay of ``f_coeffs[j]`` in
    y_n += f_j x_{n - offset_j}; negative offsets couple y to future x.
    """

    f_offsets: tuple[int, ...]
    f_coeffs: tuple[float, ...]
    h0: float = 0.8
    a: float = 0.1
    g0: float = 0.7
    b: float = 0.7
    name: str = "custom"

    def __post_init__(self) -> None:
        if len(self.f_offsets) != len(self.f_coeffs):
            raise ValueError("f_offsets and f_coeffs must have equal length")
        if len(set(self.f_offsets)) != len(self.f_offsets):
            raise ValueError("f_offsets must be distinct")
        if not (abs(self.a) < 1 and abs(self.b) < 1):
            raise ValueError("filter ratios must satisfy |a| < 1 and |b| < 1")

    @classmethod
    def from_case(cls, case: str) -> "MAFilterSpec":
        try:
            offsets, coeffs = MA_CASES[case]
        except KeyError:
            raise ValueError(f"unknown case {case!r}; expected I, II or III") from None
        return cls(f_offsets=offsets, f_coeffs=coeffs, name=case)

    @property
    def h(self) -> np.ndarray:
        return _geometric(self.h0, self.a)

    @property
    def g(self) -> np.ndarray:
        return _geometric(self.g0, self.b)

    @property
    def truncation(self) -> int:
        return max(self.h.size, self.g.size) - 1

    def noise_responses(self) -> tuple[Channel, Channel]:
        """x's and y's responses to (mu, nu): x = h * mu, y = g * nu + (f * h) * mu.

        f runs from the least coupling offset, so y's mu response leads x where it is negative.
        """
        lead = min(self.f_offsets, default=0)
        f = np.zeros(max(self.f_offsets, default=0) - lead + 1)
        f[[off - lead for off in self.f_offsets]] = self.f_coeffs
        return ((self.h, 0), _SILENT), ((np.convolve(f, self.h), lead), (self.g, 0))


@dataclass(frozen=True)
class BarnettModelSpec:
    """Bivariate ARMA(r, 1) with transfer entropy F from x to y.

    The AR core is eta1_t = a eta1_{t-1} + c eta2_{t-1} + mu_t,
    eta2_t = b eta2_{t-1} + nu_t, with
    c = sqrt(e^{-F} (e^F - 1)(e^F - b^2)); then y = (1 + f1 z)^r eta1 and
    x = (1 + f2 z)^r eta2. With F = 0 the channels decouple exactly.
    """

    transfer_entropy: float = 0.02
    ma_order: int = 1
    a: float = 0.9
    b: float = 0.8
    f1: float = 0.6
    f2: float = 0.7

    def __post_init__(self) -> None:
        if not (abs(self.a) < 1 and abs(self.b) < 1):
            raise ValueError("unstable parameters: need |a| < 1 and |b| < 1")
        if self.ma_order < 0:
            raise ValueError(f"ma_order must be >= 0, got {self.ma_order}")
        if self.transfer_entropy < 0:
            raise ValueError("transfer entropy must be >= 0")

    @property
    def coupling(self) -> float:
        """The cross-channel coefficient c; zero iff the transfer entropy is."""
        F = self.transfer_entropy
        if F == 0:
            return 0.0
        return math.sqrt(math.exp(-F) * math.expm1(F) * (math.exp(F) - self.b**2))

    @property
    def ma_x(self) -> np.ndarray:
        """Coefficients of (1 + f2 z)^ma_order applied to the x channel."""
        r = self.ma_order
        return np.array([math.comb(r, j) * self.f2**j for j in range(r + 1)])

    @property
    def ma_y(self) -> np.ndarray:
        """Coefficients of (1 + f1 z)^ma_order applied to the y channel."""
        r = self.ma_order
        return np.array([math.comb(r, j) * self.f1**j for j in range(r + 1)])

    def noise_responses(self) -> tuple[Channel, Channel]:
        """x's and y's responses to (mu, nu), the MA polynomials applied to the AR cores."""
        ga = _geometric(1.0, self.a)
        gb = _geometric(1.0, self.b)
        # eta1 = ga * mu + c z (ga * gb) * nu;  eta2 = gb * nu.
        h_nu = np.concatenate([[0.0], self.coupling * np.convolve(ga, gb)])
        x = (_SILENT, (np.convolve(self.ma_x, gb), 0))
        return x, ((np.convolve(self.ma_y, ga), 0), (np.convolve(self.ma_y, h_nu), 0))


@dataclass(frozen=True)
class CovarianceSequences:
    """Two-sided covariance sequences of a jointly stationary pair.

    Arrays have length 2 max_lag + 1 with lag 0 at the center. The cross
    sequence follows xy[m] = E[x_n y_{n+m}], so it is generally not
    symmetric about lag 0.
    """

    max_lag: int
    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray


def gen_ma_case(
    case: str, length: int, seed: int, stream: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one of the built-in MA demonstration cases.

    The geometric channels are run as exact AR(1) recursions; the finite
    coupling filter is applied by shifting, so future-coupling cases
    draw on samples beyond the returned range, which the trailing margin
    covers. Samples inside the burn-in are discarded. The channels' noise
    is drawn from streams (seed, stream, 0) and (seed, stream, 1).
    """
    spec = MAFilterSpec.from_case(case)
    if length <= 2 * spec.truncation:
        raise ValueError(
            f"length {length} too short: need more than {2 * spec.truncation} samples"
        )
    future = max(0, -min(spec.f_offsets))
    total = length + BURN_IN + future
    mu = stream_rng(seed, stream, 0).standard_normal(total)
    nu = stream_rng(seed, stream, 1).standard_normal(total)
    x_full = lfilter([spec.h0], [1.0, -spec.a], mu)
    y_full = lfilter([spec.g0], [1.0, -spec.b], nu)
    for off, coef in zip(spec.f_offsets, spec.f_coeffs):
        # y_n += coef * x_{n - off}; burn-in covers positive offsets and
        # the trailing margin covers negative ones.
        if off >= 0:
            y_full[off:] += coef * x_full[: total - off]
        else:
            y_full[: total + off] += coef * x_full[-off:]
    sl = slice(BURN_IN, BURN_IN + length)
    return x_full[sl].copy(), y_full[sl].copy()


def _barnett_cores(
    spec: BarnettModelSpec, length: int, block: int, seed: int, stream: int, history: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the AR cores (eta1, eta2) of the Barnett pair in consecutive blocks.

    Every block covers ``block`` samples except the last, which covers what
    is left of ``length``, so nothing is drawn past it. Each yielded core
    array leads with the ``history`` core samples before its block (burn-in
    samples for the first block, zeros before the first draw), which any MA
    polynomial of order up to ``history`` needs. The cores depend on the
    spec's coupling and AR coefficients only, so every MA order filters the
    same cores. The noise streams are read in order, and across a block
    boundary the generator carries both AR(1) filter states and the last
    eta2 sample for the one-step coupling of eta1's drive.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    mu_rng, nu_rng = stream_rng(seed, stream, 0), stream_rng(seed, stream, 1)
    zi1, zi2 = np.zeros(1), np.zeros(1)
    eta2_last = 0.0
    core1, core2 = np.zeros(history), np.zeros(history)
    skip = BURN_IN
    for start in range(0, length, block):
        n = skip + min(block, length - start)
        mu = mu_rng.standard_normal(n)
        nu = nu_rng.standard_normal(n)
        eta2, zi2 = lfilter([1.0], [1.0, -spec.b], nu, zi=zi2)
        mu[0] += spec.coupling * eta2_last  # mu becomes the drive of eta1
        mu[1:] += spec.coupling * eta2[:-1]
        eta2_last = eta2[-1]
        eta1, zi1 = lfilter([1.0], [1.0, -spec.a], mu, zi=zi1)
        core1 = np.concatenate((core1[core1.size - history :], eta1))[skip:]
        core2 = np.concatenate((core2[core2.size - history :], eta2))[skip:]
        # Only the cores stay alive while the consumer filters and carves them.
        del mu, nu, eta1, eta2
        skip = 0
        yield core1, core2


def _ma_step(
    spec: BarnettModelSpec, cores: tuple[np.ndarray, np.ndarray], history: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) block of ``spec``'s MA order from a core block led by ``history`` samples."""
    r = spec.ma_order
    eta1, eta2 = cores
    # The long operand first keeps np.convolve's summation order for any block.
    y = np.convolve(eta1[history - r :], spec.ma_y, mode="valid")
    x = np.convolve(eta2[history - r :], spec.ma_x, mode="valid")
    return x, y


def gen_barnett(
    spec: BarnettModelSpec, length: int, seed: int, stream: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the bivariate ARMA(r, 1) pair, burn-in discarded.

    The AR recursion is run directly (no truncation) and the finite MA
    polynomials are applied afterwards, as convolutions that treat the
    AR-core samples before the first draw as zero. The noise is drawn as in
    :func:`gen_ma_case`. This is the one-block case of the AR-core block
    generator and MA step that the consecutive-window studies stream from.
    """
    r = spec.ma_order
    return _ma_step(spec, next(_barnett_cores(spec, length, length, seed, stream, r)), r)


def _overlap_sum(al: np.ndarray, be: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """sum_k al[k] be[k+m] for one-sided coefficient arrays, per lag m."""
    out = np.empty(lags.size)
    for i, m in enumerate(lags):
        if m >= 0:
            n = min(al.size, be.size - m)
            out[i] = float(al[:n] @ be[m : m + n]) if n > 0 else 0.0
        else:
            n = min(be.size, al.size + m)
            out[i] = float(al[-m : -m + n] @ be[:n]) if n > 0 else 0.0
    return out


def analytic_covariances(
    spec: MAFilterSpec | BarnettModelSpec, max_lag: int
) -> CovarianceSequences:
    """Exact covariance sequences of the model, to truncation tolerance.

    With c_n = sum_w sum_k a_c[k] w_{n - s_c - k} over the unit white noises
    w = mu, nu, cov(c_n, d_{n+m}) = sum_w sum_k a_c[k] a_d[k + m + s_c - s_d].
    """
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    responses = getattr(spec, "noise_responses", None)
    if responses is None:
        raise TypeError(f"unsupported model spec {type(spec).__name__}")
    x, y = responses()
    lags = np.arange(-max_lag, max_lag + 1)

    def cov(c: Channel, d: Channel) -> np.ndarray:
        mu, nu = (_overlap_sum(a, b, lags + s - t) for (a, s), (b, t) in zip(c, d))
        return mu + nu

    return CovarianceSequences(max_lag=max_lag, xx=cov(x, x), yy=cov(y, y), xy=cov(x, y))


Sample = tuple[str, int]


def composite_from_sequences(
    seqs: CovarianceSequences,
    x_samples: list[Sample],
    y_samples: list[Sample],
    z_samples: list[Sample],
) -> CompositeCovariance:
    """Composite covariance of arbitrary (channel, time) sample selections.

    Each sample is a ("x"|"y", time index) pair; the times only matter
    through their differences. Entry (i, j) of the upper triangle is read
    from the xx, xy or yy sequence of the channel pair at lag t_j - t_i,
    and mirrored below the diagonal. Raises if a required lag exceeds the
    tabulated range of ``seqs``.
    """
    samples = list(x_samples) + list(y_samples) + list(z_samples)
    dims = BlockDims(p=len(x_samples), q=len(y_samples), r=len(z_samples))
    is_y = np.array([ch == "y" for ch, _ in samples], dtype=int)
    times = np.array([tt for _, tt in samples])
    lags = times[None, :] - times[:, None]
    worst = int(np.abs(lags).max())
    if worst > seqs.max_lag:
        raise ValueError(f"lag {worst} exceeds the tabulated range {seqs.max_lag}")
    # Channel pair (a, b) reads row 2 a + b: xx, xy, yx, yy; yx[m] = xy[-m].
    table = np.stack([seqs.xx, seqs.xy, seqs.xy[::-1], seqs.yy])
    full = table[2 * is_y[:, None] + is_y[None, :], seqs.max_lag + lags]
    m = np.triu(full) + np.triu(full, 1).T
    return CompositeCovariance.from_matrix(m, dims)


def lag_window_covariance(
    spec: MAFilterSpec | BarnettModelSpec, T: int
) -> CompositeCovariance:
    """Population covariance of ([x_{t-1}..x_{t-T}], y_t, [y_{t-1}..y_{t-T}]).

    This is the embedding geometry of the causality test; its partial
    coherence is the population value the sample statistic estimates.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seqs = analytic_covariances(spec, T)
    rows = LagSpec.influence_test(T).rows
    return composite_from_sequences(seqs, rows[:T], rows[T : T + 1], rows[T + 1 :])


def write_sequence_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    """Write a generated pair in the t,x,y format the test command reads.

    The rows are formatted and written in blocks of a few thousand, so the
    memory the write takes does not grow with the length of the pair. The
    file is replaced atomically: a failed write leaves an existing file as
    it was.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional with equal length")

    def pieces() -> Iterator[str]:
        yield "t,x,y\n"
        for s in range(0, x.size, _CSV_BLOCK_ROWS):
            rows = enumerate(
                zip(x[s : s + _CSV_BLOCK_ROWS].tolist(), y[s : s + _CSV_BLOCK_ROWS].tolist()), s
            )
            yield "".join(f"{t},{a!r},{b!r}\n" for t, (a, b) in rows)

    atomic_write(path, pieces())
