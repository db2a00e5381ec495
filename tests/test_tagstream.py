import hashlib
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmix import synthetic, tagstream
from photonmix.analytic_model import LocalOscillator, SourceParams, auto_g2_zero
from photonmix.errors import (
    DataFormatError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from photonmix.fock_oracle import BeamSplitterSpec, required_cutoff
from photonmix.synthetic import displaced_fock_tags, pulsed_coherent_tags
from photonmix.tagstream import (
    CorrelationHistogram,
    TagStream,
    build_histogram,
    default_window,
    g2_zero,
    parse_tags,
    peak_areas,
    visibility_from_histograms,
)
from photonmix.tables import write_table

from helpers import write_tags_csv

REP = 12195  # ps, 82 MHz pulse train
INT64_MAX = 2**63 - 1
# sweep block sizes for the block-seam tests: tiny blocks put seams between
# records that still reach each other; the default puts all in one block
SWEEP_BLOCKS = st.sampled_from([1, 2, 3, 7, tagstream._SWEEP_BLOCK])


class TestParseTags:
    @pytest.fixture
    def tags(self, tmp_path):
        def write(data: bytes):
            path = tmp_path / "tags.csv"
            path.write_bytes(data)
            return path

        return write

    def test_two_records(self, tags):
        stream = parse_tags(tags(b"1,1000\n2,1500\n"))
        assert len(stream) == 2
        assert stream.channels.tolist() == [1, 2]
        assert stream.times.tolist() == [1000, 1500]

    def test_empty_file(self, tags):
        assert len(parse_tags(tags(b""))) == 0

    def test_reorder_within_window_is_sorted(self, tags):
        stream = parse_tags(tags(b"2,100\n1,50\n3,100\n"), reorder_window=50)
        assert len(stream) == 3
        assert stream.times.tolist() == [50, 100, 100]
        assert stream.channels.tolist() == [1, 2, 3]
        assert stream.channels.flags.c_contiguous and stream.times.flags.c_contiguous

    def test_reorder_beyond_window_rejected(self, tags):
        with pytest.raises(DataFormatError) as err:
            parse_tags(tags(b"2,100\n1,30\n"), reorder_window=50)
        assert err.value.line == 2

    def test_negative_reorder_window_is_a_parameter_error(self, tags, tmp_path):
        # the window is refused before any file is read, not blamed on records in order
        path = tags(b"1,10\n2,20\n")
        for target in (path, tmp_path / "missing.csv"):
            with pytest.raises(InvalidParameterError, match="reorder_window must be >= 0 ps, got -1"):
                parse_tags(target, reorder_window=-1)

    def test_reorder_window_beyond_int64_is_a_parameter_error(self, tags):
        with pytest.raises(InvalidParameterError, match="reorder_window must be <= 2\\*\\*63 - 1 ps"):
            parse_tags(tags(b"1,10\n2,20\n"), reorder_window=2**63)

    def test_widest_reorder_window_does_not_wrap(self, tags):
        # running maximum - window would wrap below -2**63 on negative times
        stream = parse_tags(tags(b"1,-10\n2,-5\n2,-7\n"), reorder_window=INT64_MAX)
        assert stream.times.tolist() == [-10, -7, -5]
        assert stream.channels.tolist() == [1, 2, 2]

    @pytest.mark.parametrize(
        "records, line",
        [
            ([(1, -INT64_MAX - 1), (2, INT64_MAX)], 2),
            # a step back across the span: the lag itself would overflow
            ([(2, 0), (1, -INT64_MAX - 1)], 2),
            # the span overflows at a record that is neither first nor last nor the maximum
            ([(1, 0), (2, 5), (3, -INT64_MAX), (1, 2), (2, 9)], 3),
        ],
    )
    def test_span_beyond_int64_is_a_format_error(self, tags, records, line):
        data = "".join(f"{ch},{t}\n" for ch, t in records).encode()
        with pytest.raises(DataFormatError, match="timestamps span more than 2\\*\\*63 - 1 ps") as err:
            parse_tags(tags(data), reorder_window=INT64_MAX)
        assert err.value.line == line

    def test_span_of_exactly_int64_max_is_accepted(self, tags):
        stream = parse_tags(tags(f"1,{-INT64_MAX - 1}\n2,-1\n".encode()))
        assert stream.times.tolist() == [-INT64_MAX - 1, -1]

    def test_unknown_channel_rejected(self, tags):
        with pytest.raises(DataFormatError) as err:
            parse_tags(tags(b"1,10\n7,20\n"))
        assert err.value.line == 2

    def test_malformed_line_rejected(self, tags):
        with pytest.raises(DataFormatError):
            parse_tags(tags(b"1,10\n1;20\n"))

    def test_stable_order_for_equal_timestamps(self, tags):
        stream = parse_tags(tags(b"3,10\n1,10\n2,10\n"))
        assert stream.channels.tolist() == [3, 1, 2]
        # in time order, so not sorted again: the columns stay views of the parsed table
        assert stream.channels.base is stream.times.base is not None

    def test_blank_lines_skipped_and_errors_keep_file_lines(self, tags):
        blanks = b"\n1,10\n\n  \n2,20\n"
        stream = parse_tags(tags(blanks + b"3,30\n\n\n"))
        assert stream.channels.tolist() == [1, 2, 3]
        assert stream.times.tolist() == [10, 20, 30]
        with pytest.raises(DataFormatError, match="unknown channel 7") as err:
            parse_tags(tags(blanks + b"\n7,30\n"))
        assert err.value.line == 7
        with pytest.raises(DataFormatError, match="timestamp 5 precedes") as err:
            parse_tags(tags(blanks + b"\t\n3,30\n\n1,5\n"), reorder_window=10)
        assert err.value.line == 9

    def test_first_violation_in_the_file_is_reported(self, tags):
        with pytest.raises(DataFormatError, match="timestamp 10 precedes") as err:
            parse_tags(tags(b"1,100\n2,10\n7,200\n"))
        assert err.value.line == 2
        with pytest.raises(DataFormatError, match="unknown channel 7") as err:
            parse_tags(tags(b"1,100\n7,200\n2,10\n"))
        assert err.value.line == 2

    def test_wrong_column_count_reports_first_row(self, tags):
        with pytest.raises(DataFormatError, match="expected 'channel,t_ps'") as err:
            parse_tags(tags(b"\n1,10,5\n2,20,6\n"))
        assert err.value.line == 2

    def test_timestamps_stay_exact_beyond_float_precision(self, tags):
        t = 2**53 + 1
        stream = parse_tags(tags(f"1,{t}\n2,{t + 2}\n".encode()))
        assert stream.times.tolist() == [t, t + 2]

    def test_parses_in_bounded_memory(self, tmp_path):
        # the parsed rows go before the checks, and a file already in time
        # order skips the stable sort and its two gathers
        path = tmp_path / "tags.csv"
        n = 200_000
        rng = np.random.default_rng(11)
        write_table(path, None, [rng.integers(1, 4, n), np.cumsum(rng.integers(0, 10**6, n))])
        tracemalloc.start()
        try:
            stream = parse_tags(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) == n
        assert peak <= 2.5 * (stream.channels.nbytes + stream.times.nbytes)


class TestTagStream:
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=20))
    def test_records_are_stably_sorted(self, records):
        # few timestamps, so that records tie
        channels = np.array([ch for ch, _ in records], dtype=np.int64)
        times = np.array([t for _, t in records], dtype=np.int64)
        order = np.argsort(times, kind="stable")
        stream = TagStream(channels, times)
        assert stream.channels.tolist() == channels[order].tolist()
        assert stream.times.tolist() == times[order].tolist()
        if np.all(times[1:] >= times[:-1]):  # records in order are kept, not copied
            assert stream.channels is channels and stream.times is times

    def test_span_beyond_int64_rejected(self):
        # each step fits in int64, but the first-to-last delay wraps to -2 ps
        with pytest.raises(InvalidParameterError, match="span"):
            TagStream(np.array([1, 1, 1]), np.array([-INT64_MAX - 1, -1, INT64_MAX - 1]))
        # out of order: sorted, the records span 2**64 - 1 ps
        with pytest.raises(InvalidParameterError, match="span"):
            TagStream(np.array([1, 1]), np.array([INT64_MAX, -INT64_MAX - 1]))
        stream = TagStream(np.array([1, 1]), np.array([-(2**62), 2**62 - 1]))
        assert stream.times.tolist() == [-(2**62), 2**62 - 1]

    @pytest.mark.parametrize(
        "channels, times",
        [([1, 2], [5, 3, 4]), ([1, 2, 3, 1], [5, 3, 4]), ([[1, 2]], [[5, 3]])],
        ids=["fewer channels", "more channels", "2-D"],
    )
    def test_mismatched_columns_rejected(self, channels, times):
        # checked before the records are gathered into time order, which would
        # raise IndexError or silently drop a record
        with pytest.raises(InvalidParameterError, match="equal-length 1-D"):
            TagStream(channels, times)


def stream_from(channels, times) -> TagStream:
    return TagStream(np.array(channels), np.array(times))


def poisson_cw_tags(rates_hz, duration_s, seed) -> TagStream:
    """Independent continuous-wave Poisson processes, one per channel."""
    rng = np.random.default_rng(seed)
    duration_ps = int(round(duration_s * 1e12))
    channels, times = [], []
    for ch in sorted(rates_hz):
        n = rng.poisson(rates_hz[ch] * duration_s)
        channels.append(np.full(n, ch, dtype=np.int64))
        times.append(rng.integers(0, duration_ps, size=n, dtype=np.int64))
    return TagStream(np.concatenate(channels), np.concatenate(times))


class TestBuildHistogram:
    def test_fixed_offset_pair_fills_central_peak(self):
        n = 50
        times = []
        channels = []
        for k in range(n):
            times += [k * REP, k * REP]
            channels += [1, 2]
        hist = build_histogram(stream_from(channels, times), (1, 2), 5, 2500)
        assert hist.counts.sum() == n
        assert hist.counts[hist.centers == 0].sum() == n

    def test_single_tag_gives_empty_histogram(self):
        hist = build_histogram(stream_from([1], [100]), (1, 1), 5, 1000)
        assert hist.counts.sum() == 0

    def test_auto_excludes_self_but_counts_equal_times(self):
        # two distinct records at the same instant: both ordered pairs count
        hist = build_histogram(stream_from([1, 1], [100, 100]), (1, 1), 5, 1000)
        assert hist.counts[hist.centers == 0].sum() == 2
        assert hist.counts.sum() == 2

    def test_binning_rule_floor_at_half_width(self):
        # tau = +8 with width 5 lands in bin center 10; tau = -8 in -10
        hist = build_histogram(stream_from([1, 2], [0, 8]), (1, 2), 5, 100)
        assert hist.counts[hist.centers == 10].sum() == 1
        hist = build_histogram(stream_from([2, 1], [0, 8]), (1, 2), 5, 100)
        assert hist.counts[hist.centers == -10].sum() == 1

    def test_bin_width_must_divide_tau_max(self):
        with pytest.raises(InvalidParameterError):
            build_histogram(stream_from([1], [0]), (1, 2), 7, 100)

    def test_poisson_cw_flat_within_five_sigma(self):
        stream = poisson_cw_tags({1: 10_000.0, 2: 10_000.0}, duration_s=10.0, seed=7)
        hist = build_histogram(stream, (1, 2), 1_000_000, 100_000_000)
        counts = hist.counts.astype(float)
        mean = counts.mean()
        assert mean > 500  # enough statistics for the bound to bite
        assert np.all(np.abs(counts - mean) <= 5.0 * math.sqrt(mean))

    def test_time_translation_invariance(self):
        stream = poisson_cw_tags({1: 5_000.0, 2: 5_000.0}, duration_s=1.0, seed=3)
        shifted = TagStream(stream.channels, stream.times + 987_654_321)
        h0 = build_histogram(stream, (1, 2), 1_000_000, 50_000_000)
        h1 = build_histogram(shifted, (1, 2), 1_000_000, 50_000_000)
        assert np.array_equal(h0.counts, h1.counts)

    @given(
        processes=st.integers(1, 9),
        seed=st.integers(0, 100),
        block=SWEEP_BLOCKS,
        pair=st.sampled_from([(2, 2), (2, 3)]),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunked_merge_is_bit_exact(self, processes, seed, block, pair):
        # up to 9 contiguous ranges of sweep blocks, each but the first in a child
        stream = pulsed_coherent_tags(dict.fromkeys(pair, 0.4), 400, REP, seed=seed)
        tau_max = 5 * REP - (5 * REP) % 25
        alone = build_histogram(stream, pair, 25, tau_max)
        started, in_child = [], tagstream.in_child
        with (
            mock.patch.object(tagstream, "_SWEEP_BLOCK", block),
            mock.patch.object(tagstream, "in_child", lambda *a: started.append(a[0]) or in_child(*a)),
        ):
            split = build_histogram(stream, pair, 25, tau_max, processes=processes)
        n_blocks = -(-int(np.isin(stream.channels, pair).sum()) // block)
        assert len(started) == min(processes, n_blocks) - 1
        assert np.array_equal(split.counts, alone.counts)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_pair_loop(self, data):
        # small widths and a time span of a few tau_max make equal timestamps,
        # delays of exactly +-tau_max and half-bin edges common
        width = data.draw(st.integers(1, 6), label="bin_width")
        tau_max = width * data.draw(st.integers(1, 4), label="k_max")
        records = data.draw(
            st.lists(
                st.tuples(st.sampled_from([1, 2, 3]), st.integers(0, 3 * tau_max + width)),
                max_size=40,
            ),
            label="records",
        )
        pair = data.draw(st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]), label="pair")
        stream = stream_from([c for c, _ in records], [t for _, t in records])
        block = data.draw(SWEEP_BLOCKS, label="sweep block")
        # a sweep split over processes must count what one process counts
        processes = data.draw(st.sampled_from([1, 2, 3]), label="processes")
        with mock.patch.object(tagstream, "_SWEEP_BLOCK", block):
            hist = build_histogram(stream, pair, width, tau_max, processes=processes)
            alone = build_histogram(stream, pair, width, tau_max)
        expected = naive_histogram(stream, pair, width, tau_max)
        assert hist.counts.tolist() == expected
        assert np.array_equal(hist.counts, alone.counts)

    @pytest.mark.parametrize("n, processes, children", [(7, 3, 0), (8, 3, 0), (9, 3, 1), (24, 3, 2), (24, 9, 2)])
    def test_children_are_one_fewer_than_ranges_of_whole_blocks(self, monkeypatch, n, processes, children):
        # blocks of 8 records: a stream of one block starts no process, and no range is empty.
        # Every other delay is on a half-bin edge of width 4, which the mirror counts apart
        started, in_child = [], tagstream.in_child
        monkeypatch.setattr(tagstream, "_SWEEP_BLOCK", 8)
        monkeypatch.setattr(tagstream, "in_child", lambda *a: started.append(a[0]) or in_child(*a))
        stream = stream_from([2] * n, list(range(0, 10 * n, 10)))
        hist = build_histogram(stream, (2, 2), 4, 48, processes=processes)
        assert len(started) == children
        assert hist.counts.tolist() == naive_histogram(stream, (2, 2), 4, 48)

    @pytest.mark.parametrize("k_max, children", [(1 << 14, 2), (1 << 15, 1), (1 << 16, 0)])
    def test_split_keeps_the_histograms_within_bounds(self, monkeypatch, k_max, children):
        # three blocks of 8 records, far fewer bytes than a histogram: the further ranges'
        # histograms of 8 (2 k_max + 3) bytes each stay within _SPLIT_BYTES, 1 MiB
        started, in_child = [], tagstream.in_child
        monkeypatch.setattr(tagstream, "_SWEEP_BLOCK", 8)
        monkeypatch.setattr(tagstream, "in_child", lambda *a: started.append(a[0]) or in_child(*a))
        stream = stream_from([2] * 24, list(range(0, 240, 10)))
        hist = build_histogram(stream, (2, 2), 1, k_max, processes=3)
        assert len(started) == children
        assert np.array_equal(hist.counts, build_histogram(stream, (2, 2), 1, k_max).counts)
        assert hist.counts.sum() == 24 * 23

    @pytest.mark.parametrize("pair, mirror", [((2, 2), True), ((1, 2), False)])
    def test_only_an_auto_pair_is_mirrored(self, monkeypatch, pair, mirror):
        # the mirror is exact for an auto pair only, and the sweep without it is too, so
        # the counts alone cannot tell whether the auto pair skipped its minus side:
        # the sweep of an auto pair alone gets no sign per record
        seen, sweep = [], tagstream._sweep
        monkeypatch.setattr(tagstream, "_sweep", lambda *a: seen.append(a[1] is None) or sweep(*a))
        stream = stream_from([1, 2, 2, 1, 2], [0, 0, 4, 9, 10])
        hist = build_histogram(stream, pair, 2, 12)
        assert seen == [mirror]
        assert hist.counts.tolist() == naive_histogram(stream, pair, 2, 12)

    def test_processes_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="processes"):
            build_histogram(stream_from([1, 2], [0, 5]), (1, 2), 5, 50, processes=0)

    @pytest.mark.parametrize("pair", [(2, 2), (1, 2)])
    def test_memory_stays_near_stream_size(self, pair):
        # about 16 k records and 40 kept pairs per record: materializing
        # the pairs would take over 100x the stream's own bytes
        stream = pulsed_coherent_tags({1: 0.4, 2: 0.4}, 20000, REP, seed=3)
        tau_max = 100 * REP - (100 * REP) % 25
        tracemalloc.start()
        try:
            hist = build_histogram(stream, pair, 25, tau_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() > 30 * len(stream)
        assert peak <= 6 * (stream.channels.nbytes + stream.times.nbytes)

    def test_bin_arithmetic_beyond_int64_rejected(self):
        # the largest binned value is 2 (tau_max + w) + w (2 tau_max / w + 3) = 9 w here
        w = INT64_MAX // 9
        stream = stream_from([1, 2, 2], [0, w, 2 * w])  # delays w and tau_max + w
        hist = build_histogram(stream, (1, 2), w, w)
        assert hist.counts.tolist() == [0, 0, 1]
        with pytest.raises(InvalidParameterError, match="int64"):
            build_histogram(stream, (1, 2), w + 1, w + 1)
        with pytest.raises(InvalidParameterError, match="int64"):
            build_histogram(stream, (1, 2), 2**62, 2**62)

    def test_histogram_too_large_for_memory_rejected(self):
        with pytest.raises(InvalidParameterError, match="20000000000001 bins"):
            build_histogram(stream_from([1, 2], [0, 5]), (1, 2), 1, 10**13)


def naive_histogram(stream, pair, width, tau_max) -> list[int]:
    """O(n m) reference: every ordered (A, B) pair of distinct records, binned by
    floor(tau / width + 1/2) in exact rational arithmetic."""
    channels = stream.channels.tolist()
    times = stream.times.tolist()
    a_records = [i for i, c in enumerate(channels) if c == pair[0]]
    k_max = tau_max // width
    counts = [0] * (2 * k_max + 1)
    for i in a_records:
        for j, c in enumerate(channels):
            if c != pair[1] or j == i:
                continue
            k = math.floor(Fraction(times[j] - times[i], width) + Fraction(1, 2))
            if -k_max <= k <= k_max:
                counts[k + k_max] += 1
    return counts


class TestG2Zero:
    def make_hist(self, center_counts, side_counts, rep=1000, width=10, n_side=2):
        tau_max = (n_side // 2 + 1) * rep
        tau_max -= tau_max % width
        k = tau_max // width
        counts = np.zeros(2 * k + 1, dtype=np.int64)
        counts[k] = center_counts
        for m in range(1, n_side // 2 + 1):
            counts[k + m * rep // width] = side_counts
            counts[k - m * rep // width] = side_counts
        return CorrelationHistogram(width, tau_max, counts)

    def test_ratio_and_poisson_error(self):
        hist = self.make_hist(500, 1000)
        result = g2_zero(hist, 1000, window=400, n_side_peaks=2)
        assert result["value"] == pytest.approx(0.5, abs=1e-12)
        assert result["side_mean"] == pytest.approx(1000.0)
        # both areas Poisson: value * sqrt(1/500 + 1/2000)
        assert result["stat_err"] == pytest.approx(0.5 * math.sqrt(1 / 500 + 1 / 2000), abs=1e-12)
        assert result["stat_err"] == pytest.approx(0.025, abs=1e-12)

    def test_pulsed_coherent_is_poissonian(self):
        stream = pulsed_coherent_tags({2: 0.3}, 200_000, REP, seed=11)
        hist = build_histogram(stream, (2, 2), 25, 122_000 - 122_000 % 25)
        result = g2_zero(hist, REP)
        assert abs(result["value"] - 1.0) <= 3.0 * result["stat_err"]

    def test_single_photon_stream_has_empty_central_peak(self):
        # exactly one tag per pulse on one channel: auto-correlation is
        # antibunched, the central peak holds no pairs at all
        n = 5000
        stream = stream_from([2] * n, [k * REP for k in range(n)])
        hist = build_histogram(stream, (2, 2), 25, 65_000)
        result = g2_zero(hist, REP)
        assert result["peak_area_0"] == 0
        assert result["value"] == 0.0
        # the empty central window counts as one count in the error: 1/side_mean * sqrt(1 + 1/side_total)
        assert result["side_mean"] == 4997.0
        assert result["stat_err"] > 0
        assert result["stat_err"] == pytest.approx(math.sqrt(1 + 1 / 49970) / 4997, rel=1e-12)

    def test_side_peaks_must_fit_histogram(self):
        hist = self.make_hist(10, 10)
        with pytest.raises(InvalidParameterError):
            g2_zero(hist, 1000, window=400, n_side_peaks=8)

    def test_empty_sides_undefined(self):
        hist = self.make_hist(10, 0)
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(hist, 1000, window=400, n_side_peaks=2)

    def test_histogram_refuses_a_binning_check_binning_refuses(self):
        # the window test 2 |center - m rep| reaches 4 tau_max, which wraps in int64 here
        k = 4
        counts = np.zeros(2 * k + 1, dtype=np.int64)
        counts[k], counts[k - 3], counts[k + 3] = 5, 10, 10
        with pytest.raises(InvalidParameterError, match="int64"):
            CorrelationHistogram(2**60, 2**62, counts)
        with pytest.raises(InvalidParameterError, match="must divide"):
            CorrelationHistogram(10, 1005, np.zeros(201, dtype=np.int64))

    def test_non_positive_rep_period_rejected(self):
        hist = CorrelationHistogram(10, 1000, np.zeros(201, dtype=np.int64))
        for rep in (0, -1000):
            with pytest.raises(InvalidParameterError, match="rep_period must be positive"):
                g2_zero(hist, rep, window=100)

    def test_default_window_stays_below_half_period(self):
        assert default_window(12195, 25) == 6075
        assert default_window(1000, 10) == 490  # exact half rounded down one bin
        assert 2 * default_window(1000, 10) < 1000


def mask_areas(hist, rep_period, window, ks):
    """The reference for ``peak_areas``: one boolean mask over every bin per peak."""
    return [int(hist.counts[2 * np.abs(hist.centers - k * rep_period) <= window].sum()) for k in ks]


@st.composite
def peak_tables(draw):
    """``(hist, rep_period, window, ks)``: a random histogram and peaks in, across and beyond its range."""
    width = draw(st.integers(1, 19))
    k_max = draw(st.integers(1, 60))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=2 * k_max + 1, max_size=2 * k_max + 1))
    hist = CorrelationHistogram(width, width * k_max, np.array(counts, dtype=np.int64))
    # a period of whole bins, one that puts the peaks on half-bin edges, or any
    rep_period = draw(
        st.integers(1, 2 * k_max).map(lambda j: j * width)
        | st.integers(0, k_max).map(lambda j: j * width + width // 2).filter(lambda r: r > 0)
        | st.integers(1, 3 * width * k_max)
    )
    # up to 3 periods wide, on a center's edge or anywhere between
    window = draw(st.integers(0, 3 * rep_period) | st.integers(0, 6 * k_max).map(lambda j: j * width))
    reach = width * k_max // rep_period + 3
    ks = draw(st.lists(st.integers(-reach, reach), max_size=12))
    return hist, rep_period, window, ks


class TestPeakAreas:
    @given(table=peak_tables())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_a_mask_per_peak(self, table):
        hist, rep_period, window, ks = table
        areas = peak_areas(hist, rep_period, window, ks)
        assert areas == mask_areas(hist, rep_period, window, ks)
        assert all(type(area) is int for area in areas)  # exact, and JSON-serializable


class TestVisibility:
    def test_reference_ratio(self):
        par = {"value": 0.3684, "stat_err": 0.01}
        perp = {"value": 1.0, "stat_err": 0.01}
        v, err = visibility_from_histograms(par, perp)
        assert v == pytest.approx(0.6316, abs=1e-12)
        assert err > 0

    def test_equal_correlations_give_zero(self):
        par = {"value": 0.8, "stat_err": 0.01}
        v, _ = visibility_from_histograms(par, par)
        assert v == 0.0

    def test_perfect_suppression(self):
        par = {"value": 0.0, "stat_err": 0.01}
        perp = {"value": 1.0, "stat_err": 0.01}
        v, _ = visibility_from_histograms(par, perp)
        assert v == 1.0

    def test_zero_reference_undefined(self):
        perp = {"value": 0.0, "stat_err": 0.01}
        with pytest.raises(UndefinedCorrelationError):
            visibility_from_histograms(perp, perp)


class TestDisplacedFockGenerator:
    def test_auto_correlation_closure_small(self):
        source = SourceParams.from_moments(0.05, 0.0412)
        lo = LocalOscillator(mu_alpha=0.1, theta=math.acos(math.sqrt(0.76)))
        cutoff = required_cutoff(0.1, 1e-10)
        stream, truth = displaced_fock_tags(
            source, lo, BeamSplitterSpec(0.5), cutoff, 1_000_000, REP, seed=5, lifetime_ps=170.0
        )
        expected = auto_g2_zero(0.1 / 0.05, 0.0412, 0.76)
        assert truth["g2_auto_2"] == pytest.approx(expected, abs=1e-8)
        hist = build_histogram(stream, (2, 2), 25, 122_000 - 122_000 % 25)
        result = g2_zero(hist, REP)
        assert abs(result["value"] - expected) <= 3.0 * result["stat_err"]

    def test_cross_visibility_closure(self):
        m, g2 = 0.76, 0.0412
        source = SourceParams.from_moments(0.3, g2)
        bs = BeamSplitterSpec(0.5)
        cutoff = required_cutoff(0.15, 1e-10)
        lo_par = LocalOscillator(mu_alpha=0.15, theta=math.acos(math.sqrt(m)))
        lo_perp = LocalOscillator(mu_alpha=0.15, theta=math.pi / 2)
        tau_max = 122_000 - 122_000 % 25
        stream_par, truth_par = displaced_fock_tags(
            source, lo_par, bs, cutoff, 1_000_000, REP, seed=21, channel_2=2, channel_3=1, lifetime_ps=170.0
        )
        stream_perp, truth_perp = displaced_fock_tags(
            source, lo_perp, bs, cutoff, 1_000_000, REP, seed=22, channel_2=2, channel_3=1, lifetime_ps=170.0
        )
        g_par = g2_zero(build_histogram(stream_par, (1, 2), 25, tau_max), REP)
        g_perp = g2_zero(build_histogram(stream_perp, (1, 2), 25, tau_max), REP)
        v, err = visibility_from_histograms(g_par, g_perp)
        v_expected = 1.0 - truth_par["g2_cross"] / truth_perp["g2_cross"]
        assert abs(v - v_expected) <= 3.0 * err

    def test_generator_is_deterministic(self):
        source = SourceParams.from_moments(0.05, 0.0)
        lo = LocalOscillator(mu_alpha=0.05)
        a, _ = displaced_fock_tags(source, lo, BeamSplitterSpec(0.5), 6, 10_000, REP, seed=9, lifetime_ps=170.0)
        b, _ = displaced_fock_tags(source, lo, BeamSplitterSpec(0.5), 6, 10_000, REP, seed=9, lifetime_ps=170.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.channels, b.channels)


def stream_digests(stream: TagStream) -> tuple[str, str]:
    return tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (stream.channels, stream.times))


class TestGeneratedStreamsPinned:
    """Seeded streams are pinned bit for bit: every closure test draws its data from them.

    1000-pulse chunks put chunk seams into each call.
    """

    def test_pulsed_coherent(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_PULSE_CHUNK", 1000)
        stream = pulsed_coherent_tags({1: 0.2, 2: 0.3}, 3500, REP, seed=4)
        assert stream_digests(stream) == (
            "71668100c361289f5b133733152a51f7fcd02a210a3d404dca4b701d60595b77",
            "c750a9e82c17d59f187d726eb79ed7e97c572f03caeca3dcaed10f19c40aad62",
        )

    @pytest.mark.parametrize(
        "transmission, lifetime_ps, digests",
        [
            (0.5, 170.0, (
                "5693f02c4c28fbaf5ed79dd5d72ce9e4a94a34d4615ad991e1c5ccd7274b27e0",
                "1d3eccc8aedc2d5d43aa4d58cd96909d82920ff9295acde7485c1c08ed41d944",
            )),
            (0.2, 55.0, (
                "8823605484a153fa4dcb93cdebefece8407583b6d515ec91fa726cfdd89d5e35",
                "95da62039d247fca9e31a020be4cd286b66cb595332fb6a7cd1a7edd12687545",
            )),
        ],
    )
    def test_displaced_fock(self, monkeypatch, transmission, lifetime_ps, digests):
        monkeypatch.setattr(synthetic, "_PULSE_CHUNK", 1000)
        source = SourceParams.from_moments(0.3, 0.04)
        lo = LocalOscillator(mu_alpha=0.5, theta=0.4)
        stream, _ = displaced_fock_tags(
            source, lo, BeamSplitterSpec(transmission), 9, 3500, REP, seed=5, lifetime_ps=lifetime_ps
        )
        assert stream_digests(stream) == digests

    @pytest.mark.parametrize("lifetime_ps", [0.0, -170.0, math.nan, math.inf])
    def test_lifetime_must_be_positive_and_finite(self, lifetime_ps):
        source, lo = SourceParams.from_moments(0.3, 0.04), LocalOscillator(mu_alpha=0.5)
        with pytest.raises(InvalidParameterError, match="lifetime_ps"):
            displaced_fock_tags(source, lo, BeamSplitterSpec(0.5), 6, 10, REP, 1, lifetime_ps=lifetime_ps)

    def test_pulse_count_is_checked_first(self):
        with pytest.raises(InvalidParameterError, match="n_pulses"):
            pulsed_coherent_tags({1: -1.0}, 0, REP, seed=1)
        source = SourceParams.from_moments(0.3, 0.04)
        with pytest.raises(InvalidParameterError, match="n_pulses"):
            displaced_fock_tags(source, LocalOscillator(mu_alpha=0.5), BeamSplitterSpec(0.5), -1, 0, REP, 1)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CorrelationHistogram(10, 100, np.zeros(20)), "counts length does not match tau_max / bin_width"),
            (lambda: tagstream.check_binning(0, 10), "bin_width and tau_max must be positive integers"),
            (lambda: pulsed_coherent_tags({2: -0.1}, 10, REP, seed=1), "mean photon number for channel 2 must be >= 0"),
        ],
        ids=["counts", "binning", "mean"],
    )
    def test_refused(self, call, message):
        with pytest.raises(InvalidParameterError, match=message):
            call()


class TestTagsCsvRoundTrip:
    def test_write_then_parse(self, tmp_path):
        stream = pulsed_coherent_tags({1: 0.2, 2: 0.1}, 500, REP, seed=2)
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, path)
        back = parse_tags(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.times, stream.times)
