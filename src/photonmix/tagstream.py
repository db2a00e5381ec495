"""Detector time-tag ingestion and photon-correlation histograms.

Timestamps are integer picoseconds throughout, so histogram construction is
bit-exact and reproducible, however its sweep is split.  Coincidences are
counted by an offset sweep over the time-ordered records (no FFT
correlators): each record meets the one k places later, for k = 1, 2, ...
until no delay is within reach, and for every ordered pair of records (i on
channel A, j on channel B) the delay ``t_j - t_i`` is assigned to the bin
whose center is the nearest multiple of the bin width; pairs beyond
``tau_max`` are ignored.  The sweep runs over blocks of earlier records, so
its temporaries stay in cache whatever the stream's length, and each block
stops at its own first offset with no delay within reach.  Each side's
delays are selected with ``np.compress``, binned in place in int64 with the
histogram offset folded into the numerator, and counted with ``np.add.at``
into the one histogram; an auto-correlation sweeps one side and mirrors it,
and bins an offset whose delays are all within reach with no selection
pass.  The blocks are independent, so a contiguous range of them is the
unit of work: ``build_histogram`` can sweep ranges in child processes and
sum their raw counts.  Zero-delay peak areas normalized by the mean
uncorrelated peak area at multiples of the pulse period give g2(0).  Tag
files are read by path only, as headerless ``channel,t_ps``
integer tables through :mod:`photonmix.tables`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from .tables import read_table, row_line, write_table
from .workers import in_child

DEFAULT_CHANNELS = frozenset({1, 2, 3})

#: Earlier records per block of the offset sweep in ``build_histogram``; at
#: 2**15 a block's delays, masks and selections stay in cache.
_SWEEP_BLOCK = 1 << 15

#: A split sweep gives the child of each further range a histogram of its own,
#: and its caller a copy of it to add in.  ``build_histogram`` splits only as
#: far as those histograms stay within the bytes of the swept times, or within
#: this many for a small stream, so that a long histogram is not held once
#: per CPU.
_SPLIT_BYTES = 1 << 20


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
    Raises ``InvalidParameterError`` for a binning ``check_binning`` rejects.
    """

    bin_width: int
    tau_max: int
    counts: np.ndarray
    channel_pair: tuple[int, int]
    rep_period: int | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.size != 2 * check_binning(self.bin_width, self.tau_max) + 1:
            raise InvalidParameterError("counts length does not match tau_max / bin_width")
        object.__setattr__(self, "counts", counts)

    @property
    def centers(self) -> np.ndarray:
        k = self.tau_max // self.bin_width
        return np.arange(-k, k + 1, dtype=np.int64) * self.bin_width


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


def check_binning(bin_width: int, tau_max: int) -> int:
    """The bins on each side of zero delay, ``tau_max // bin_width``, of a valid binning.

    Raises ``InvalidParameterError`` unless both are positive, ``bin_width``
    divides ``tau_max`` and ``4 tau_max + 5 bin_width`` stays inside int64,
    so that a caller can reject a binning before it reads any tag.  The
    sweep of ``build_histogram`` bins values up to about half that bound,
    and the window test of ``g2_zero`` reaches ``4 tau_max``.
    """
    if bin_width < 1 or tau_max < 1:
        raise InvalidParameterError("bin_width and tau_max must be positive integers")
    if tau_max % bin_width != 0:
        raise InvalidParameterError(
            f"bin_width {bin_width} must divide tau_max {tau_max}"
        )
    k_max = tau_max // bin_width
    if 2 * (tau_max + bin_width) + bin_width * (2 * k_max + 3) > np.iinfo(np.int64).max:
        raise InvalidParameterError(
            f"tau_max {tau_max} with bin_width {bin_width} overflows the int64 delay arithmetic"
        )
    return k_max


def build_histogram(
    stream: TagStream,
    pair: tuple[int, int],
    bin_width: int,
    tau_max: int,
    rep_period: int | None = None,
    processes: int = 1,
) -> CorrelationHistogram:
    """Count delays t_B - t_A between channel pair records into centered bins.

    The offset sweep of the module docstring builds no list of pairs (Laurence,
    Fore & Huser, Opt. Lett. 31, 829 (2006)).  For an auto-correlation pass
    ``pair = (ch, ch)``; a record is never paired with itself, while distinct
    records with equal timestamps contribute to the zero-delay bin in both
    orders.

    The earlier records are swept in blocks of ``_SWEEP_BLOCK``: block
    ``[s, s + B)`` meets the records ``k`` places later for ``k = 1, 2, ...``
    and stops at the first ``k`` where none of its delays is within reach.
    That stop is exact, because each record's delay only grows with ``k``
    and the block's slice only shrinks at its end.  ``np.compress`` selects
    each side's delays (a boolean index branches on the near-random channel
    mask and is several times slower), the delays are binned in place, and
    ``np.add.at`` counts them into the one histogram (a ``bincount`` per
    block would allocate every bin of it again).  An auto pair selects the
    same delays on both sides, so only ``+d`` is swept and binned, with no
    selection at all for an offset whose delays are all within reach; ``-d``
    lands in the mirror bin ``2 k_max + 2 - p`` of plus bin ``p``, except
    that a delay on a half-bin edge (even widths only) lands one bin higher,
    so those delays are counted apart.

    With ``processes`` > 1 the blocks are split into that many contiguous
    ranges, no more than there are blocks, and no more than keep the
    further ranges' histograms within the bytes of the swept times (or
    ``_SPLIT_BYTES``, whichever is larger); all but the first are swept in
    child processes (see :func:`photonmix.workers.in_child`), and their raw
    counts are summed before the mirror, which is linear, so the histogram
    is bit-identical to a one-process sweep.  A stream of one block starts
    no process.  Raises ``InvalidParameterError`` for a binning
    ``check_binning`` rejects or a histogram that does not fit in memory.
    """
    k_max = check_binning(bin_width, tau_max)
    if processes < 1:
        raise InvalidParameterError(f"processes must be a positive count, got {processes}")
    ch_a, ch_b = pair
    on_a = stream.channels == ch_a
    on_b = stream.channels == ch_b
    keep = on_a | on_b
    t = stream.times[keep]
    is_a = on_a[keep]
    is_b = on_b[keep]
    # an auto pair puts every record on both sides, so the minus side selects
    # the plus side's delays: only those are binned, then mirrored
    mirror = ch_a == ch_b
    try:
        counts = np.zeros(2 * k_max + 3, dtype=np.int64)
        # an even width puts some delays on half-bin edges, where the floor rule bins
        # +d and -d asymmetrically: the mirror counts them apart, by plus-side bin
        edges = np.zeros_like(counts) if mirror and bin_width % 2 == 0 else None
    except MemoryError:
        raise InvalidParameterError(
            f"a histogram of {2 * k_max + 1} bins (tau_max / bin_width = {k_max}) "
            "does not fit in memory"
        ) from None
    block = _SWEEP_BLOCK
    n_blocks = -(-t.size // block)
    hist_bytes = counts.nbytes + (0 if edges is None else edges.nbytes)
    parts = max(1, min(processes, n_blocks, 1 + max(t.nbytes, _SPLIT_BYTES) // hist_bytes))
    # contiguous ranges of block starts; all but the first are swept in child processes
    bounds = [n_blocks * i // parts * block for i in range(parts + 1)]
    ranges = [range(a, b, block) for a, b in zip(bounds, bounds[1:])]
    sweep = (t, is_a, is_b, bin_width, k_max, mirror)
    with ExitStack() as children:
        results = [
            children.enter_context(
                in_child(
                    f"sweeping the blocks from record {r.start}",
                    _sweep,
                    *sweep,
                    r,
                    np.zeros_like(counts),
                    None if edges is None else np.zeros_like(edges),
                )
            )
            for r in ranges[1:]
        ]
        _sweep(*sweep, ranges[0], counts, edges)
        for result in results:
            part_counts, part_edges = result()
            counts += part_counts
            if edges is not None:
                edges += part_edges
    if mirror:
        # -d lands in the plus side's bin reversed, or one bin higher from a half-bin edge
        counts[k_max::-1] = counts[k_max + 2 :]
        counts[k_max + 1] *= 2
        if edges is not None:
            counts[k_max::-1] -= edges[k_max + 2 :]
            counts[k_max + 1 : 0 : -1] += edges[k_max + 2 :]
    return CorrelationHistogram(bin_width, tau_max, counts[1:-1], (ch_a, ch_b), rep_period)


def _sweep(t, is_a, is_b, bin_width, k_max, mirror, starts, counts, edges):
    """Sweep the blocks of earlier records that begin at ``starts`` (a range whose step
    is the block size) into ``counts``, and the half-bin edge delays of a mirrored
    sweep into ``edges``; return both."""
    # delays within reach bin to -k_max - 1 .. k_max + 1; the two overflow bins are dropped
    reach = (k_max + 1) * bin_width
    # floor((2 tau + w) / 2w) + k_max + 1 is (tau + half) // w: the offset folded into the
    # numerator keeps every binned value non-negative
    half = bin_width * (2 * k_max + 3) // 2
    n = t.size
    for s in starts:
        for k in range(1, n - s):  # k >= 1: no record meets itself
            e = min(s + starts.step, n - k)
            d = t[s + k : e + k] - t[s:e]
            near = d <= reach
            n_near = np.count_nonzero(near)
            if n_near == 0:
                break
            # earlier record as A: tau = +d; later record as A: tau = -d.  The floor
            # rule is asymmetric at half-bin edges, so each side is binned on its own
            if mirror:  # when every delay is within reach, d itself is binned
                sides = ((1, d if n_near == d.size else np.compress(near, d)),)
            else:
                sides = (
                    (1, np.compress(near & is_a[s:e] & is_b[s + k : e + k], d)),
                    (-1, np.compress(near & is_a[s + k : e + k] & is_b[s:e], d)),
                )
            for sign, v in sides:
                if sign > 0:
                    v += half
                else:
                    np.subtract(half, v, out=v)
                if edges is None:
                    v //= bin_width
                else:  # a delay is on a half-bin edge when bin_width divides v
                    x, v = v, v // bin_width
                    np.add.at(edges, np.compress(v * bin_width == x, v), 1)
                np.add.at(counts, v, 1)
    return counts, edges


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


def check_g2_params(
    rep_period: int | None, bin_width: int, tau_max: int, window: int | None, n_side_peaks: int
) -> int:
    """The window ``g2_zero`` integrates over for a histogram of these parameters.

    Raises ``InvalidParameterError`` for parameters ``g2_zero`` cannot use,
    so a caller can reject them before any histogram is built.
    """
    if rep_period is None or rep_period <= 0:
        raise InvalidParameterError("histogram carries no repetition period")
    if window is None:
        window = default_window(rep_period, bin_width)
    if window <= 0 or 2 * window >= rep_period:
        raise InvalidParameterError(
            f"window must satisfy 0 < window < rep_period / 2, got {window}"
        )
    if n_side_peaks < 2 or n_side_peaks % 2 != 0:
        raise InvalidParameterError("n_side_peaks must be an even count >= 2")
    half = n_side_peaks // 2
    if half * rep_period + window // 2 > tau_max:
        raise InvalidParameterError(
            f"histogram range {tau_max} ps too small for {half} side peaks "
            f"at rep_period {rep_period} ps"
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
    window = check_g2_params(hist.rep_period, hist.bin_width, hist.tau_max, window, n_side_peaks)
    rep = hist.rep_period
    half = n_side_peaks // 2
    centers = hist.centers

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
