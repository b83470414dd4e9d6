"""Correctness checks for the benchmark's op outputs, made apart from ccpt.

Nothing here imports ccpt. Reference values come from numpy.fft and integer
arithmetic: the period of DFT bin m of a length-N signal is N/gcd(m, N), and
the cosine-pair columns 2M cos(2 pi k (n - l) / p) expand into exactly two
DFT bins, so the coefficients of the (p, k) pair follow in closed form from
those two bins. Each check raises CheckError naming what is wrong.
"""

import math

import numpy as np

# Energy share that separates a support period from numerical leakage. The
# trials showed leakage near 1e-26 and support shares of at least 6.7e-4.
SUPPORT_TOL = 1e-12
VALUE_RTOL = 1e-9
DEFAULT_THRESHOLD = 0.05
DICT_ALLOWED = frozenset({1, 5, 7, 35})
RESIDUAL_MAX = 1e-9


class CheckError(Exception):
    """An op's output disagrees with the reference."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def pair_indices(p):
    if p <= 2:
        return [1]
    return [k for k in range(1, p // 2 + 1) if math.gcd(k, p) == 1]


def period_labels(p):
    """(p, k, l) of the period-p cosine-pair columns: ascending k, then shift."""
    return [(p, k, l) for k in pair_indices(p) for l in ((0,) if p <= 2 else (0, 1))]


def ccpt_labels(n):
    """(p, k, l) of every column of the length-n matrix, ascending divisor."""
    return [label for p in divisors(n) for label in period_labels(p)]


def rpt_labels(n):
    return [(p, None, l) for p in divisors(n) for l in range(totient(p))]


def column_name(label):
    p, k, l = label
    return f"p{p}_l{l}" if k is None else f"p{p}_k{k}_l{l}"


def bin_pair(m, n):
    """(period, pair index) of DFT bin m of a length-n signal."""
    g = math.gcd(m, n)
    p = n // g
    if p <= 2:
        return p, 1
    j = m // g
    return p, min(j, p - j)


def energetic_bins(x):
    energy = np.abs(np.fft.fft(x)) ** 2
    return np.flatnonzero(energy > SUPPORT_TOL * energy.sum())


def fft_support(x):
    """Periods of the DFT bins of x that carry energy."""
    n = len(x)
    return {bin_pair(int(m), n)[0] for m in energetic_bins(x)}


def ccpt_coefficients(x, labels=None):
    """Coefficients on the cosine-pair columns, from the two DFT bins of each pair.

    With theta = 2 pi k / p and M = 1 (p >= 3), the pair's columns put
    X[m]/N = M (a + b e^{-j theta}) and X[N-m]/N = M (a + b e^{j theta})
    on bins m = kN/p and N - m, which solves for (a, b). For p <= 2 the
    single column is the exponential of bin m itself.
    """
    x = np.asarray(x)
    n = len(x)
    spectrum = np.fft.fft(x) / n
    p, k, l = np.asarray(ccpt_labels(n) if labels is None else labels, dtype=float).T
    m = (k * n / p).astype(int) % n
    theta = 2.0 * np.pi * k / p
    pair = p > 2
    sin = np.where(pair, np.sin(theta), 1.0)
    b = (spectrum[(n - m) % n] - spectrum[m]) / (2j * sin)
    a = spectrum[m] - b * np.exp(-1j * theta)
    return np.where(pair, np.where(l == 1, b, a), spectrum[m])


def ccpt_synthesis(labels, n):
    """N x len(labels) matrix of the closed-form columns 2M cos(2 pi k (n - l) / p)."""
    idx = np.arange(n)[:, None]
    p = np.array([lab[0] for lab in labels], dtype=float)
    k = np.array([lab[1] for lab in labels], dtype=float)
    l = np.array([lab[2] for lab in labels], dtype=float)
    scale = np.where(p <= 2, 0.5, 1.0)
    return 2.0 * scale * np.cos(2.0 * np.pi * k * (idx - l) / p)


def _close(got, want, what, rtol=VALUE_RTOL):
    got = np.asarray(got)
    want = np.asarray(want)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = float(np.max(np.abs(want), initial=0.0))
    err = float(np.max(np.abs(got - want), initial=0.0))
    require(err <= rtol * max(scale, 1e-300), f"{what}: max error {err:.3e} vs scale {scale:.3e}")


def check_support(x, periods, strengths):
    """Nonzero strengths sit exactly on the periods of the energetic DFT bins."""
    n = len(x)
    require(list(periods) == divisors(n), f"N={n}: profile periods {list(periods)[:8]}... are not the divisors")
    s = np.asarray(strengths, dtype=float)
    require(bool(np.all(np.isfinite(s))) and bool(np.all(s >= 0.0)), f"N={n}: strengths not finite and >= 0")
    total = float(s.sum())
    require(total > 0.0, f"N={n}: all strengths are zero")
    got = {int(p) for p, v in zip(periods, s) if v > SUPPORT_TOL * total}
    want = fft_support(x)
    require(got == want, f"N={n}: strength support {sorted(got)} != DFT support {sorted(want)}")


def significant_periods(periods, strengths, threshold=DEFAULT_THRESHOLD):
    """Periods whose strength is at least `threshold` times the largest."""
    peak = max(strengths)
    return [int(p) for p, s in zip(periods, strengths) if s >= threshold * peak]


def check_estimate(estimated, significant):
    require(estimated == math.lcm(*significant), f"estimated period {estimated} != lcm{tuple(significant)}")


def check_significance(periods, strengths, significant, estimated, threshold=DEFAULT_THRESHOLD):
    """Significant periods follow the threshold rule; the estimate is their lcm."""
    want = significant_periods(periods, strengths, threshold)
    require(list(significant) == want, f"significant periods {list(significant)} != {want}")
    check_estimate(estimated, want)


def _block_energies(labels, magnitudes, periods):
    """Sum of squared magnitudes per period, in the order of `periods`."""
    position = {int(p): i for i, p in enumerate(periods)}
    index = np.array([position[lab[0]] for lab in labels])
    return np.bincount(index, weights=np.abs(np.asarray(magnitudes)) ** 2, minlength=len(periods))


def check_coefficient_pairs(x, labels, magnitudes):
    """Nonzero ccpt columns are exactly the conjugate pairs of the energetic bins."""
    n = len(x)
    mags = np.abs(np.asarray(magnitudes))
    nonzero = np.flatnonzero(mags > math.sqrt(SUPPORT_TOL) * mags.max(initial=0.0))
    got = {labels[i][:2] for i in nonzero}
    want = {bin_pair(int(m), n) for m in energetic_bins(x)}
    require(got == want, f"N={n}: nonzero pairs {sorted(got)} != DFT pairs {sorted(want)}")


def check_analysis(report, x):
    """One `ccpt analyze` report against its input signal."""
    n = len(x)
    method = report["method"]
    require(report["status"] == "ok", f"status {report['status']!r}")
    require(report["input"]["length"] == n, "input length")
    threshold = report["threshold"]
    require(threshold == DEFAULT_THRESHOLD, f"threshold {threshold}")
    prof = report["strengths"]
    periods, raw = prof["periods"], prof["raw"]
    mags = np.asarray(report["coefficients"], dtype=float)
    check_support(x, periods, raw)
    if method == "dft":
        spectrum = np.fft.fft(x)
        require(report["columns"] == [f"bin{k}" for k in range(n)], "dft column names")
        _close(mags, np.abs(spectrum), "dft magnitudes")
        energy = np.abs(spectrum) ** 2
        by_period = dict.fromkeys(periods, 0.0)
        for m in range(n):
            by_period[n // math.gcd(m, n)] += float(energy[m])
        _close(raw, [by_period[p] for p in periods], "dft strengths")
    else:
        labels = ccpt_labels(n) if method == "ccpt" else rpt_labels(n)
        require(report["columns"] == [column_name(lab) for lab in labels], f"{method} column labels")
        _close(raw, _block_energies(labels, mags, periods), f"{method} strengths vs coefficients")
        if method == "ccpt":
            check_coefficient_pairs(x, labels, mags)
            _close(mags, np.abs(ccpt_coefficients(x, labels)), "ccpt magnitudes")
            freqs = report["frequency_labels"]
            want = {str(i): (k % p) / p * n for i, (p, k, _) in enumerate(labels)}
            require(freqs.keys() == want.keys(), "ccpt frequency label columns")
            _close([freqs[i] for i in want], list(want.values()), "ccpt frequency labels")
    check_significance(periods, raw, report["significant_periods"], report["estimated_period"], threshold)


class FrameChecker:
    """Checks library-path outputs for frames of one length against closed forms."""

    def __init__(self, n):
        self.n = n
        self.labels = ccpt_labels(n)
        self.label_array = np.array(self.labels, dtype=float)
        self.frequencies = {i: (k % p) / p * n for i, (p, k, _) in enumerate(self.labels)}
        self.synthesis = ccpt_synthesis(self.labels, n)

    def check(self, x, labels, frequencies, values, periods, strengths, estimated, threshold=DEFAULT_THRESHOLD):
        """One frame: matrix layout and labels, support, coefficients, synthesis, period."""
        require(list(labels) == self.labels, f"N={self.n}: matrix columns are not the ccpt layout")
        require(frequencies == self.frequencies, f"N={self.n}: frequency labels")
        values = np.asarray(values)
        check_support(x, periods, strengths)
        check_coefficient_pairs(x, self.labels, values)
        _close(values, ccpt_coefficients(x, self.label_array), "frame coefficients")
        _close(strengths, _block_energies(self.labels, np.abs(values), list(periods)), "frame strengths")
        synthesis = self.synthesis @ values.real + 1j * (self.synthesis @ values.imag)
        _close(synthesis, x, "frame synthesis")
        check_estimate(estimated, significant_periods(periods, strengths, threshold))


def scan_visits(n1, n):
    visits = {}
    for length in range(n1, n + 1):
        for p in divisors(length):
            visits[p] = visits.get(p, 0) + 1
    return visits


def check_scan(report, x, n1):
    """One `ccpt scan` report: per-length strengths and the visit bookkeeping."""
    n = len(x)
    threshold = report["threshold"]
    require((report["n1"], report["n"]) == (n1, n), "scan range")
    records = report["records"]
    require([r["length"] for r in records] == list(range(n1, n + 1)), "scan record lengths")
    for rec in records:
        length = rec["length"]
        prefix = x[:length]
        periods, raw = rec["strengths"]["periods"], rec["strengths"]["raw"]
        check_support(prefix, periods, raw)
        coefficients = ccpt_coefficients(prefix)
        want = _block_energies(ccpt_labels(length), np.abs(coefficients), periods)
        _close(raw, want, f"scan strengths at length {length}")
        require(rec["detected"] == significant_periods(periods, raw, threshold), f"detected periods at length {length}")
    visits = scan_visits(n1, n)
    require(
        report["subspace_visits"] == {str(p): c for p, c in sorted(visits.items())},
        "subspace visit counts",
    )
    duplicated = sum(c - 1 for c in visits.values() if c > 1)
    require(report["duplicated_projections"] == duplicated, "duplicated projection count")


def default_p_max(n):
    return max(1, min(int(n * 0.8), n - 1))


def dictionary_block(n, p, basis):
    """Columns of period p, tiled to n samples, for one dictionary basis."""
    if basis == "ccpt":
        return ccpt_synthesis(period_labels(p), n)
    idx = np.arange(n)[:, None]
    coprime = np.array([k for k in range(p) if math.gcd(k, p) == 1])
    if basis == "farey":
        return np.exp(2j * np.pi * coprime * idx / p)
    ramanujan = np.cos(2.0 * np.pi * np.outer(np.arange(p), coprime) / p).sum(axis=1)
    return ramanujan[(idx - np.arange(len(coprime))) % p]


def dictionary_strengths(x, p_max, basis):
    """Block energies of argmin ||D b|| subject to A b = x, D_ii = p_i^2.

    With z = D b the problem is the minimum-norm solution of (A D^-1) z = x,
    which numpy's SVD-based lstsq returns; the program instead solves the
    Gram system A D^-2 A^H by Cholesky.
    """
    blocks = [dictionary_block(len(x), p, basis) for p in range(1, p_max + 1)]
    weights = np.concatenate([np.full(b.shape[1], float(p) ** -2) for p, b in enumerate(blocks, start=1)])
    z = np.linalg.lstsq(np.hstack(blocks) * weights, x, rcond=None)[0]
    energy = np.abs(weights * z) ** 2
    edges = np.cumsum([0] + [b.shape[1] for b in blocks])
    return [float(energy[a:b].sum()) for a, b in zip(edges, edges[1:])]


def check_dictionary(report, x, allowed=DICT_ALLOWED):
    """One `ccpt dict` report against an independent minimum-norm solve.

    The estimate must be the lcm of the reference's significant periods. On
    the 5- plus 7-periodic family that is 35 for nearly every draw; in about
    one draw in 500 the period-1 block takes most of the energy and 5 or 7
    falls under the 5% threshold, and then the reference gives 5 or 7 too.
    """
    n = len(x)
    p_max = default_p_max(n)
    basis = report["basis"]
    require(report["status"] == "ok", f"status {report['status']!r}")
    require(report["p_max"] == p_max, f"p_max {report['p_max']} != {p_max}")
    require(report["n_hat"] == sum(totient(p) for p in range(1, p_max + 1)), "n_hat")
    require(report["ridge"] == 0.0, f"ridge {report['ridge']} != 0")
    require(report["residual"] <= RESIDUAL_MAX, f"residual {report['residual']:.3e}")
    periods, raw = report["strengths"]["periods"], report["strengths"]["raw"]
    require(periods == list(range(1, p_max + 1)), "dictionary profile periods")
    reference = dictionary_strengths(x, p_max, basis)
    _close(raw, reference, f"{basis} dictionary strengths")
    significant = report["significant_periods"]
    require(set(significant) <= allowed, f"significant periods {significant} not within {sorted(allowed)}")
    check_estimate(report["estimated_period"], significant_periods(periods, reference, report["threshold"]))
    check_significance(periods, raw, significant, report["estimated_period"], report["threshold"])
    for name, entry in (report["frequencies"] or {}).items():
        p, k = (int(part[1:]) for part in name.split("_")[:2])
        require(entry["frequency"] == (k % p) / p * n, f"frequency label of {name}")
