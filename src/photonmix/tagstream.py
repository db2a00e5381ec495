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
stops at its own first offset with no delay within reach.  Every pair runs
one loop body: one ``np.compress`` selects the delays that count (of a cross
pair, those between records on different channels, signed by which came
first), they are binned in place in int64 with the histogram offset folded
into the numerator, and one ``np.add.at`` counts them into the one
histogram; an auto-correlation sweeps ``+d`` only and mirrors it.  The
blocks are independent, so a contiguous range of them is the unit of work:
``build_histogram`` can sweep ranges in child processes and sum their raw
counts.  g2(0) is the zero-delay peak area over the mean uncorrelated peak
area at multiples of the pulse period, all from one prefix sum of the counts.
Tag files are read and written by path only, as headerless ``channel,t_ps``
integer tables through :mod:`photonmix.tables`.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UndefinedCorrelationError
from .tables import read_table, refuse_rows
from .workers import in_child

DEFAULT_CHANNELS = frozenset({1, 2, 3})

_INT64_MAX = np.iinfo(np.int64).max

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
    """Time-ordered detector records: channel ids and integer-ps timestamps.

    Records given out of time order are stable-sorted (equal timestamps keep
    their order); int64 records already in order are kept as given, uncopied.
    """

    channels: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.int64)
        t = np.asarray(self.times, dtype=np.int64)
        if ch.shape != t.shape or ch.ndim != 1:  # checked before the gather, which would drop a record
            raise InvalidParameterError("channels and times must be equal-length 1-D arrays")
        if np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")
            ch, t = ch[order], t[order]
        # in time order, this keeps every delay t_j - t_i (j > i) inside int64
        if t.size and int(t[-1]) - int(t[0]) > _INT64_MAX:
            raise InvalidParameterError("timestamps span more than 2**63 - 1 ps")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size


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

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.size != 2 * check_binning(self.bin_width, self.tau_max) + 1:
            raise InvalidParameterError("counts length does not match tau_max / bin_width")
        object.__setattr__(self, "counts", counts)

    @property
    def centers(self) -> np.ndarray:
        k = self.tau_max // self.bin_width
        return np.arange(-k, k + 1, dtype=np.int64) * self.bin_width


def parse_tags(path, reorder_window: int = 0) -> TagStream:
    """Read the headerless ``channel,t_ps`` integer table at ``path`` into a sorted TagStream.

    Channels must be in ``DEFAULT_CHANNELS``.  Records may arrive out of
    order by at most ``reorder_window`` ps, from 0 to 2**63 - 1 (a larger
    backward jump is a format error, a window outside that range an
    ``InvalidParameterError`` before the file is read); sorting is stable so
    equal timestamps keep file order, and a file already in time order is not
    sorted at all.  Timestamps spanning more than 2**63 - 1 ps, whose delays
    would overflow, are a format error at the record where the span first
    overflows; that is checked before channels and order.
    """
    if reorder_window < 0:
        raise InvalidParameterError(f"reorder_window must be >= 0 ps, got {reorder_window}")
    if reorder_window > _INT64_MAX:
        raise InvalidParameterError(f"reorder_window must be <= 2**63 - 1 ps, got {reorder_window}")
    _, rows = read_table(path, None, int)
    width = rows.shape[1]
    refuse_rows(path, None, [rows.size > 0 and width != 2], lambda _: f"expected 'channel,t_ps', got {width} columns")
    channels, times = rows.reshape(-1, 2).T
    # views of the parsed table: np.isin would copy the strided column
    unknown = np.logical_and.reduce([channels != ch for ch in DEFAULT_CHANNELS])
    running_max = np.maximum.accumulate(times)
    if times.size and int(running_max[-1]) - int(times.min()) > _INT64_MAX:
        # as uint64 the span of every prefix is exact, from 0 to 2**64 - 1
        span = running_max.astype(np.uint64) - np.minimum.accumulate(times).astype(np.uint64)
        refuse_rows(path, None, span > _INT64_MAX, lambda _: "timestamps span more than 2**63 - 1 ps")
    # exact now that the span fits; a record's lag behind its own running maximum is >= 0
    lag = np.subtract(running_max, times, out=running_max)
    refuse_rows(
        path, None, unknown | (lag > reorder_window),
        lambda k: f"unknown channel {channels[k]}" if unknown[k] else (
            f"timestamp {times[k]} precedes the running maximum {times[k] + lag[k]} by more "
            f"than the reorder window ({reorder_window} ps)"
        ),
    )
    del lag, running_max  # before the stream sorts the records, if they are out of order
    return TagStream(channels, times)


def check_binning(bin_width: int, tau_max: int) -> int:
    """The bins on each side of zero delay, ``tau_max // bin_width``, of a valid binning.

    Raises ``InvalidParameterError`` unless both are positive, ``bin_width``
    divides ``tau_max`` and ``4 tau_max + 5 bin_width`` stays inside int64,
    so that a caller can reject a binning before it reads any tag.  The
    sweep of ``build_histogram`` bins values up to about half that bound,
    and the peak edges of ``g2_zero``'s ``peak_areas`` stay within ``2 tau_max + 1``.
    """
    if bin_width < 1 or tau_max < 1:
        raise InvalidParameterError("bin_width and tau_max must be positive integers")
    if tau_max % bin_width != 0:
        raise InvalidParameterError(
            f"bin_width {bin_width} must divide tau_max {tau_max}"
        )
    k_max = tau_max // bin_width
    if 2 * (tau_max + bin_width) + bin_width * (2 * k_max + 3) > _INT64_MAX:
        raise InvalidParameterError(
            f"tau_max {tau_max} with bin_width {bin_width} overflows the int64 delay arithmetic"
        )
    return k_max


def build_histogram(
    stream: TagStream,
    pair: tuple[int, int],
    bin_width: int,
    tau_max: int,
    *,
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
    and the block's slice only shrinks at its end.  A cross pair signs each
    record, +1 on A and -1 on B: a delay counts between records of opposite
    sign, and times the earlier one's sign it is ``tau``.  One ``np.compress``
    selects the delays that count, unless all do (a boolean index branches on
    the near-random channel mask and is several times slower); they are
    binned in place, and ``np.add.at`` counts them into the one histogram (a
    ``bincount`` per block would allocate every bin of it again).  An auto
    pair counts every delay both ways, so only ``+d`` is swept and binned;
    ``-d`` lands in the mirror bin ``2 k_max + 2 - p`` of plus bin ``p``,
    except that a delay on a half-bin edge (even widths only) lands one bin
    higher, so those delays are counted apart.

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
    # an auto pair puts every record on A and on B, so -d selects the delays of +d:
    # only those are binned, then mirrored
    mirror = ch_a == ch_b
    sign = None if mirror else np.where(on_a[keep], np.int8(1), np.int8(-1))
    size = 2 * k_max + 3
    # an even width puts some delays on half-bin edges, where the floor rule bins
    # +d and -d asymmetrically: the mirror counts them apart, by plus-side bin, in a
    # second half of the counts
    edged = mirror and bin_width % 2 == 0
    try:
        counts = np.zeros(2 * size if edged else size, dtype=np.int64)
    except MemoryError:
        raise InvalidParameterError(
            f"a histogram of {2 * k_max + 1} bins (tau_max / bin_width = {k_max}) "
            "does not fit in memory"
        ) from None
    block = _SWEEP_BLOCK
    n_blocks = -(-t.size // block)
    parts = max(1, min(processes, n_blocks, 1 + max(t.nbytes, _SPLIT_BYTES) // counts.nbytes))
    # contiguous ranges of block starts; all but the first are swept in child processes
    bounds = [n_blocks * i // parts * block for i in range(parts + 1)]
    ranges = [range(a, b, block) for a, b in zip(bounds, bounds[1:])]
    sweep = (t, sign, bin_width, k_max)
    with ExitStack() as children:
        results = [
            children.enter_context(
                in_child(f"sweeping the blocks from record {r.start}", _sweep, *sweep, r, np.zeros_like(counts))
            )
            for r in ranges[1:]
        ]
        _sweep(*sweep, ranges[0], counts)
        for result in results:
            counts += result()
    if mirror:
        # -d lands in the plus side's bin reversed, or one bin higher from a half-bin edge
        on_edge, counts = counts[size + k_max + 2 :], counts[:size]
        counts[k_max::-1] = counts[k_max + 2 :]
        counts[k_max + 1] *= 2
        if edged:
            counts[k_max::-1] -= on_edge
            counts[k_max + 1 : 0 : -1] += on_edge
    return CorrelationHistogram(bin_width, tau_max, counts[1:-1])


def _sweep(t, sign, bin_width, k_max, starts, counts):
    """Sweep the blocks of earlier records that begin at ``starts`` (a range whose step
    is the block size) into ``counts`` and return it.  ``counts`` of twice the
    2 k_max + 3 bins counts the half-bin edge delays of a mirrored sweep again in its
    second half.  ``sign`` is +1 on A, -1 on B, or None (auto)."""
    # delays within reach bin to -k_max - 1 .. k_max + 1; the two overflow bins are dropped
    reach = (k_max + 1) * bin_width
    size = 2 * k_max + 3
    # floor((2 tau + w) / 2w) + k_max + 1 is (tau + half) // w: the offset folded into the
    # numerator keeps every binned value non-negative
    half = bin_width * size // 2
    n = t.size
    for s in starts:
        for k in range(1, n - s):  # k >= 1: no record meets itself
            e = min(s + starts.step, n - k)
            d = t[s + k : e + k] - t[s:e]
            near = d <= reach
            if not near.any():
                break
            if sign is not None:  # one record on each side: tau = +d with A earlier, -d with B
                near &= sign[s:e] != sign[s + k : e + k]
                d *= sign[s:e]
            # when every delay counts, d itself is binned
            v = d if near.all() else np.compress(near, d)
            v += half
            if counts.size == size:
                v //= bin_width
            else:  # a delay is on a half-bin edge when bin_width divides v
                x, v = v, v // bin_width
                np.add.at(counts[size:], np.compress(v * bin_width == x, v), 1)
            np.add.at(counts, v, 1)
    return counts


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
    rep_period: int, bin_width: int, tau_max: int, window: int | None, n_side_peaks: int
) -> int:
    """The window ``g2_zero`` integrates over for a histogram of these parameters.

    Raises ``InvalidParameterError`` for parameters ``g2_zero`` cannot use,
    so a caller can reject them before any histogram is built.
    """
    if rep_period <= 0:
        raise InvalidParameterError(f"rep_period must be positive, got {rep_period}")
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


def peak_areas(hist: CorrelationHistogram, rep_period: int, window: int, ks) -> list[int]:
    """The counts of the bins whose centers ``c`` satisfy ``2 |c - k rep_period| <= window``, for each k of ``ks``.

    Each is the difference of two entries of one prefix sum of the counts, taken at the exact integer
    edges ``2 k rep_period -+ window`` (which must fit in int64), so only bins inside the histogram count.
    """
    prefix = np.cumsum(np.concatenate(([0], hist.counts)))
    doubled = 2 * hist.centers
    edges = 2 * rep_period * np.asarray(ks, dtype=np.int64)
    lo = np.searchsorted(doubled, edges - window, "left")
    hi = np.searchsorted(doubled, edges + window, "right")
    return (prefix[hi] - prefix[lo]).tolist()


def g2_zero(
    hist: CorrelationHistogram,
    rep_period: int,
    window: int | None = None,
    n_side_peaks: int = 10,
) -> dict:
    """Zero-delay peak area over the mean uncorrelated peak area: the ``g2.json`` document.

    The central area sums bins whose centers satisfy |tau| <= window/2; side
    areas use identical windows around ``k * rep_period`` for k = 1..n/2 on
    each side.  The statistical uncertainty propagates Poisson fluctuations
    of the central area and of the total side-peak area; an empty central
    window counts as one count there, so g2(0) = 0 still carries an error.
    """
    window = check_g2_params(rep_period, hist.bin_width, hist.tau_max, window, n_side_peaks)
    half = n_side_peaks // 2
    areas = peak_areas(hist, rep_period, window, range(-half, half + 1))
    peak0 = areas[half]
    side_total = sum(areas) - peak0
    if side_total == 0:
        raise UndefinedCorrelationError("all side peaks are empty: cannot normalize")
    side_mean = side_total / n_side_peaks
    value = peak0 / side_mean
    n0 = max(peak0, 1)
    stat_err = n0 / side_mean * np.sqrt(1.0 / n0 + 1.0 / side_total)
    return {
        "value": value,
        "stat_err": float(stat_err),
        "peak_area_0": peak0,
        "side_mean": side_mean,
        "window_ps": window,
        "n_side_peaks": n_side_peaks,
    }


def visibility_from_histograms(par: dict, perp: dict) -> tuple[float, float]:
    """Interference visibility (g_perp - g_par) / g_perp with propagated error, from two ``g2_zero`` results."""
    g_par, g_perp = par["value"], perp["value"]
    if g_perp <= 0.0:
        raise UndefinedCorrelationError("orthogonal-polarization g2 must be positive")
    v = (g_perp - g_par) / g_perp
    err = np.hypot(par["stat_err"] / g_perp, g_par * perp["stat_err"] / g_perp**2)
    return float(v), float(err)
