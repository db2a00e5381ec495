"""Detector time-tag ingestion and photon-correlation histograms.

Timestamps are integer picoseconds throughout, so histogram construction and
the merging of partial histograms are bit-exact and reproducible.
Coincidences are counted by an offset sweep over the time-ordered records (no
FFT correlators): each record meets the one k places later, for k = 1, 2, ...
until no delay is within reach, and for every ordered pair of records (i on
channel A, j on channel B) the delay ``t_j - t_i`` is assigned to the bin
whose center is the nearest multiple of the bin width; pairs beyond
``tau_max`` are ignored.  The sweep runs over blocks of earlier records, so
its temporaries stay in cache whatever the stream's length, and each block
stops at its own first offset with no delay within reach.  Each side's
delays are selected with ``np.compress``, binned in place in int64 with the
histogram offset folded into the numerator, and counted with ``np.add.at``
into the one histogram.  Zero-delay peak areas normalized by the mean
uncorrelated peak area at multiples of the pulse period give g2(0).  Tag
files are read by path only, as headerless ``channel,t_ps`` integer tables
through :mod:`photonmix.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from .tables import read_table, row_line, write_table

DEFAULT_CHANNELS = frozenset({1, 2, 3})

#: Earlier records per block of the offset sweep in ``build_histogram``; at
#: 2**15 a block's delays, masks and selections stay in cache.
_SWEEP_BLOCK = 1 << 15


@dataclass(frozen=True)
class TagStream:
    """Time-ordered detector records: channel ids and integer-ps timestamps."""

    channels: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.int64)
        t = np.asarray(self.times, dtype=np.int64)
        if ch.shape != t.shape or ch.ndim != 1:
            raise InvalidParameterError("channels and times must be equal-length 1-D arrays")
        if np.any(t[1:] < t[:-1]):
            raise InvalidParameterError("timestamps must be non-decreasing")
        # with the order above, this keeps every delay t_j - t_i (j > i) inside int64
        if t.size and int(t[-1]) - int(t[0]) > np.iinfo(np.int64).max:
            raise InvalidParameterError("timestamps span more than 2**63 - 1 ps")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def from_unsorted(cls, channels, times) -> "TagStream":
        """Stable-sort records by timestamp (equal timestamps keep input order)."""
        t = np.asarray(times, dtype=np.int64)
        order = np.argsort(t, kind="stable")
        return cls(np.asarray(channels, dtype=np.int64)[order], t[order])


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned coincidence counts over delays in [-tau_max, tau_max].

    Bin k (center ``k * bin_width``) covers delays with
    ``floor((2 tau + bin_width) / (2 bin_width)) == k``; the bin count
    ``2 * tau_max / bin_width + 1`` is odd and centered on zero delay.
    """

    bin_width: int
    tau_max: int
    counts: np.ndarray
    channel_pair: tuple[int, int]
    rep_period: int | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.size != 2 * (self.tau_max // self.bin_width) + 1:
            raise InvalidParameterError("counts length does not match tau_max / bin_width")
        object.__setattr__(self, "counts", counts)

    @property
    def centers(self) -> np.ndarray:
        k = self.tau_max // self.bin_width
        return np.arange(-k, k + 1, dtype=np.int64) * self.bin_width

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class G2Result:
    """Normalized zero-delay correlation with Poisson statistics."""

    value: float
    stat_err: float
    peak_area_0: int
    side_mean: float
    window_ps: int
    n_side_peaks: int


def parse_tags(path, reorder_window: int = 0) -> TagStream:
    """Read the headerless ``channel,t_ps`` integer table at ``path`` into a sorted TagStream.

    Channels must be in ``DEFAULT_CHANNELS``.  Records may arrive out of
    order by at most ``reorder_window`` >= 0 ps (a larger backward jump is a
    format error); sorting is stable so equal timestamps keep file order,
    and a file already in time order is not sorted at all.
    """
    _, rows = read_table(path, None, int)
    if rows.size and rows.shape[1] != 2:
        raise DataFormatError(
            f"expected 'channel,t_ps', got {rows.shape[1]} columns", line=row_line(path, None, 0)
        )
    # two contiguous columns, so that the parsed rows are freed before any check or sort
    channels, times = rows.reshape(-1, 2).T.copy()
    del rows
    unknown = ~np.isin(channels, sorted(DEFAULT_CHANNELS))
    # including a record in its own running maximum changes nothing for a window >= 0
    running_max = np.maximum.accumulate(times)
    bad = np.flatnonzero(unknown | (times < running_max - reorder_window))
    if bad.size:
        k = bad[0]
        if unknown[k]:
            raise DataFormatError(f"unknown channel {channels[k]}", line=row_line(path, None, k))
        raise DataFormatError(
            f"timestamp {times[k]} precedes the running maximum {running_max[k]} by more "
            f"than the reorder window ({reorder_window} ps)",
            line=row_line(path, None, k),
        )
    if np.array_equal(running_max, times):  # in time order: the stable sort is the identity
        return TagStream(channels, times)
    del running_max
    return TagStream.from_unsorted(channels, times)


def build_histogram(
    stream: TagStream,
    pair: tuple[int, int],
    bin_width: int,
    tau_max: int,
    rep_period: int | None = None,
    a_index_range: tuple[int, int] | None = None,
) -> CorrelationHistogram:
    """Count delays t_B - t_A between channel pair records into centered bins.

    The offset sweep of the module docstring builds no list of pairs (Laurence,
    Fore & Huser, Opt. Lett. 31, 829 (2006)).  For an auto-correlation pass
    ``pair = (ch, ch)``; a record is never paired with itself, while distinct
    records with equal timestamps contribute to the zero-delay bin in both
    orders.  ``a_index_range`` restricts the A-side to a half-open slice of
    its records, so a partition of the A side yields partial histograms whose
    sum is bit-exactly the full histogram.

    The earlier records are swept in blocks of ``_SWEEP_BLOCK``: block
    ``[s, s + B)`` meets the records ``k`` places later for ``k = 1, 2, ...``
    and stops at the first ``k`` where none of its delays is within reach.
    That stop is exact, because each record's delay only grows with ``k``
    and the block's slice only shrinks at its end.  ``np.compress`` selects
    each side's delays (a boolean index branches on the near-random channel
    mask and is several times slower), the delays are binned in place, and
    ``np.add.at`` counts them into the one histogram (a ``bincount`` per
    block would allocate every bin of it again).  Raises
    ``InvalidParameterError`` when the binning arithmetic would leave int64
    or the histogram does not fit in memory.
    """
    if bin_width < 1 or tau_max < 1:
        raise InvalidParameterError("bin_width and tau_max must be positive integers")
    if tau_max % bin_width != 0:
        raise InvalidParameterError(
            f"bin_width {bin_width} must divide tau_max {tau_max}"
        )
    k_max = tau_max // bin_width
    # delays within reach bin to -k_max - 1 .. k_max + 1; the two overflow bins are dropped
    reach = tau_max + bin_width
    # floor((2 tau + w) / 2w) + k_max + 1 with the offset folded into the numerator,
    # so that every binned value is non-negative
    offset = bin_width * (2 * k_max + 3)
    if 2 * reach + offset > np.iinfo(np.int64).max:
        raise InvalidParameterError(
            f"tau_max {tau_max} with bin_width {bin_width} overflows the int64 delay arithmetic"
        )
    try:
        counts = np.zeros(2 * k_max + 3, dtype=np.int64)
    except MemoryError:
        raise InvalidParameterError(
            f"a histogram of {2 * k_max + 1} bins (tau_max / bin_width = {k_max}) "
            "does not fit in memory"
        ) from None
    ch_a, ch_b = pair
    on_a = stream.channels == ch_a
    on_b = stream.channels == ch_b
    keep = on_a | on_b
    t = stream.times[keep]
    is_a = on_a[keep]
    is_b = on_b[keep]
    n_a = int(is_a.sum())
    start, stop = (0, n_a) if a_index_range is None else a_index_range
    if not 0 <= start <= stop <= n_a:
        raise InvalidParameterError(f"a_index_range {a_index_range} outside [0, {n_a}]")
    in_a = is_a
    if (start, stop) != (0, n_a):
        rank = np.cumsum(is_a)  # 1-based rank among the A records
        in_a = is_a & (rank > start) & (rank <= stop)
    n = t.size
    for s in range(0, n, _SWEEP_BLOCK):
        for k in range(1, n - s):  # k >= 1: no record meets itself
            e = min(s + _SWEEP_BLOCK, n - k)
            d = t[s + k : e + k] - t[s:e]
            near = d <= reach
            if not near.any():
                break
            # earlier record as A: tau = +d; later record as A: tau = -d.  The floor
            # rule is asymmetric at half-bin edges, so each side is binned on its own
            sides = ((2, in_a[s:e], is_b[s + k : e + k]), (-2, in_a[s + k : e + k], is_b[s:e]))
            for scale, a, b in sides:
                v = np.compress(near & a & b, d)
                v *= scale
                v += offset
                v //= 2 * bin_width
                np.add.at(counts, v, 1)
    return CorrelationHistogram(bin_width, tau_max, counts[1:-1], (ch_a, ch_b), rep_period)


def merge_histograms(parts) -> CorrelationHistogram:
    """Sum compatible partial histograms (associative, bit-exact)."""
    parts = list(parts)
    if not parts:
        raise InvalidParameterError("no histograms to merge")
    first = parts[0]
    counts = np.zeros_like(first.counts)
    for h in parts:
        if (
            h.bin_width != first.bin_width
            or h.tau_max != first.tau_max
            or h.channel_pair != first.channel_pair
            or h.rep_period != first.rep_period
        ):
            raise InvalidParameterError("histograms have incompatible parameters")
        counts = counts + h.counts
    return CorrelationHistogram(
        first.bin_width, first.tau_max, counts, first.channel_pair, first.rep_period
    )


def default_window(rep_period: int, bin_width: int) -> int:
    """Largest bin multiple not exceeding half the pulse period (strictly less)."""
    window = (rep_period // 2 // bin_width) * bin_width
    if 2 * window >= rep_period:
        window -= bin_width
    if window < bin_width:
        raise InvalidParameterError(
            f"bin_width {bin_width} too coarse for rep_period {rep_period}"
        )
    return window


def g2_zero(
    hist: CorrelationHistogram,
    window: int | None = None,
    n_side_peaks: int = 10,
) -> G2Result:
    """Zero-delay peak area over the mean uncorrelated peak area.

    The central area sums bins whose centers satisfy |tau| <= window/2; side
    areas use identical windows around ``k * rep_period`` for k = 1..n/2 on
    each side.  The statistical uncertainty propagates Poisson fluctuations
    of the central area and of the total side-peak area; an empty central
    window counts as one count there, so g2(0) = 0 still carries an error.
    """
    if hist.rep_period is None or hist.rep_period <= 0:
        raise InvalidParameterError("histogram carries no repetition period")
    rep = hist.rep_period
    if window is None:
        window = default_window(rep, hist.bin_width)
    if window <= 0 or 2 * window >= rep:
        raise InvalidParameterError(
            f"window must satisfy 0 < window < rep_period / 2, got {window}"
        )
    if n_side_peaks < 2 or n_side_peaks % 2 != 0:
        raise InvalidParameterError("n_side_peaks must be an even count >= 2")
    half = n_side_peaks // 2
    centers = hist.centers
    if half * rep + window // 2 > hist.tau_max:
        raise InvalidParameterError(
            f"histogram range {hist.tau_max} ps too small for {half} side peaks "
            f"at rep_period {rep} ps"
        )

    def area(center: int) -> int:
        sel = 2 * np.abs(centers - center) <= window
        return int(hist.counts[sel].sum())

    peak0 = area(0)
    side_areas = [area(m * rep) for m in range(1, half + 1)]
    side_areas += [area(-m * rep) for m in range(1, half + 1)]
    side_total = sum(side_areas)
    if side_total == 0:
        raise UndefinedCorrelationError("all side peaks are empty: cannot normalize")
    side_mean = side_total / n_side_peaks
    value = peak0 / side_mean
    n0 = max(peak0, 1)
    stat_err = n0 / side_mean * np.sqrt(1.0 / n0 + 1.0 / side_total)
    return G2Result(
        value=value,
        stat_err=float(stat_err),
        peak_area_0=peak0,
        side_mean=side_mean,
        window_ps=window,
        n_side_peaks=n_side_peaks,
    )


def visibility_from_histograms(par: G2Result, perp: G2Result) -> tuple[float, float]:
    """Interference visibility (g_perp - g_par) / g_perp with propagated error."""
    if perp.value <= 0.0:
        raise UndefinedCorrelationError("orthogonal-polarization g2 must be positive")
    v = (perp.value - par.value) / perp.value
    err = np.hypot(par.stat_err / perp.value, par.value * perp.stat_err / perp.value**2)
    return float(v), float(err)


def write_histogram_csv(hist: CorrelationHistogram, path) -> None:
    write_table(path, ("tau_ps", "counts"), [hist.centers, hist.counts])
