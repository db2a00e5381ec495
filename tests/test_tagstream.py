import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmix import tagstream
from photonmix.analytic_model import LocalOscillator, SourceParams, auto_g2_zero
from photonmix.errors import (
    DataFormatError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from photonmix.fock_oracle import BeamSplitterSpec, required_cutoff
from photonmix.synthetic import (
    displaced_fock_tags,
    poisson_cw_tags,
    pulsed_coherent_tags,
    write_tags_csv,
)
from photonmix.tagstream import (
    CorrelationHistogram,
    G2Result,
    TagStream,
    build_histogram,
    default_window,
    g2_zero,
    merge_histograms,
    parse_tags,
    visibility_from_histograms,
)
from photonmix.tables import write_table

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
        stream = parse_tags(tags(b"2,100\n1,50\n"), reorder_window=50)
        assert len(stream) == 2
        assert stream.times.tolist() == [50, 100]
        assert stream.channels.tolist() == [1, 2]

    def test_reorder_beyond_window_rejected(self, tags):
        with pytest.raises(DataFormatError) as err:
            parse_tags(tags(b"2,100\n1,30\n"), reorder_window=50)
        assert err.value.line == 2

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
    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-decreasing"):
            TagStream(np.array([1, 1]), np.array([5, 3]))
        # a difference that wraps around int64 must not pass for an increase
        with pytest.raises(InvalidParameterError, match="non-decreasing"):
            TagStream(np.array([1, 1]), np.array([INT64_MAX, -INT64_MAX - 1]))

    def test_span_beyond_int64_rejected(self):
        # each step fits in int64, but the first-to-last delay wraps to -2 ps
        with pytest.raises(InvalidParameterError, match="span"):
            TagStream(np.array([1, 1, 1]), np.array([-INT64_MAX - 1, -1, INT64_MAX - 1]))
        stream = TagStream(np.array([1, 1]), np.array([-(2**62), 2**62 - 1]))
        assert stream.times.tolist() == [-(2**62), 2**62 - 1]


def stream_from(channels, times) -> TagStream:
    return TagStream.from_unsorted(np.array(channels), np.array(times))


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

    @given(n_chunks=st.integers(1, 9), seed=st.integers(0, 100), block=SWEEP_BLOCKS)
    @settings(max_examples=20, deadline=None)
    def test_chunked_merge_is_bit_exact(self, n_chunks, seed, block):
        stream = pulsed_coherent_tags({2: 0.4}, 400, REP, seed=seed)
        full = build_histogram(stream, (2, 2), 25, 5 * REP - (5 * REP) % 25)
        n_a = int(np.sum(stream.channels == 2))
        edges = np.linspace(0, n_a, n_chunks + 1).astype(int)
        with mock.patch.object(tagstream, "_SWEEP_BLOCK", block):
            parts = [
                build_histogram(
                    stream, (2, 2), 25, 5 * REP - (5 * REP) % 25,
                    a_index_range=(int(a), int(b)),
                )
                for a, b in zip(edges[:-1], edges[1:])
            ]
        merged = merge_histograms(parts)
        assert np.array_equal(merged.counts, full.counts)

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
        n_a = int(np.sum(stream.channels == pair[0]))
        a_index_range = None
        if data.draw(st.booleans(), label="restrict A"):
            start = data.draw(st.integers(0, n_a), label="start")
            a_index_range = (start, data.draw(st.integers(start, n_a), label="stop"))
        block = data.draw(SWEEP_BLOCKS, label="sweep block")
        # a sweep split over processes must count what one process counts
        processes = data.draw(st.sampled_from([1, 2, 3]), label="processes")
        with mock.patch.object(tagstream, "_SWEEP_BLOCK", block):
            hist = build_histogram(stream, pair, width, tau_max, REP, a_index_range, processes)
            alone = build_histogram(stream, pair, width, tau_max, REP, a_index_range)
        expected = naive_histogram(stream, pair, width, tau_max, a_index_range)
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
        assert hist.total() == 24 * 23

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
            hist = build_histogram(stream, pair, 25, tau_max, REP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hist.total() > 30 * len(stream)
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


def naive_histogram(stream, pair, width, tau_max, a_index_range=None) -> list[int]:
    """O(n m) reference: every ordered (A, B) pair of distinct records, binned by
    floor(tau / width + 1/2) in exact rational arithmetic."""
    channels = stream.channels.tolist()
    times = stream.times.tolist()
    a_records = [i for i, c in enumerate(channels) if c == pair[0]]
    if a_index_range is not None:
        a_records = a_records[a_index_range[0] : a_index_range[1]]
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
        return CorrelationHistogram(width, tau_max, counts, (2, 2), rep_period=rep)

    def test_ratio_and_poisson_error(self):
        hist = self.make_hist(500, 1000)
        result = g2_zero(hist, window=400, n_side_peaks=2)
        assert result.value == pytest.approx(0.5, abs=1e-12)
        assert result.side_mean == pytest.approx(1000.0)
        # both areas Poisson: value * sqrt(1/500 + 1/2000)
        assert result.stat_err == pytest.approx(0.5 * math.sqrt(1 / 500 + 1 / 2000), abs=1e-12)
        assert result.stat_err == pytest.approx(0.025, abs=1e-12)

    def test_pulsed_coherent_is_poissonian(self):
        stream = pulsed_coherent_tags({2: 0.3}, 200_000, REP, seed=11)
        hist = build_histogram(stream, (2, 2), 25, 122_000 - 122_000 % 25, rep_period=REP)
        result = g2_zero(hist)
        assert abs(result.value - 1.0) <= 3.0 * result.stat_err

    def test_single_photon_stream_has_empty_central_peak(self):
        # exactly one tag per pulse on one channel: auto-correlation is
        # antibunched, the central peak holds no pairs at all
        n = 5000
        stream = stream_from([2] * n, [k * REP for k in range(n)])
        hist = build_histogram(stream, (2, 2), 25, 65_000, rep_period=REP)
        result = g2_zero(hist)
        assert result.peak_area_0 == 0
        assert result.value == 0.0
        # the empty central window counts as one count in the error: 1/side_mean * sqrt(1 + 1/side_total)
        assert result.side_mean == 4997.0
        assert result.stat_err > 0
        assert result.stat_err == pytest.approx(math.sqrt(1 + 1 / 49970) / 4997, rel=1e-12)

    def test_side_peaks_must_fit_histogram(self):
        hist = self.make_hist(10, 10)
        with pytest.raises(InvalidParameterError):
            g2_zero(hist, window=400, n_side_peaks=8)

    def test_empty_sides_undefined(self):
        hist = self.make_hist(10, 0)
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(hist, window=400, n_side_peaks=2)

    def test_missing_rep_period_rejected(self):
        hist = CorrelationHistogram(10, 1000, np.zeros(201, dtype=np.int64), (2, 2))
        with pytest.raises(InvalidParameterError):
            g2_zero(hist, window=100)

    def test_default_window_stays_below_half_period(self):
        assert default_window(12195, 25) == 6075
        assert default_window(1000, 10) == 490  # exact half rounded down one bin
        assert 2 * default_window(1000, 10) < 1000


class TestVisibility:
    def test_reference_ratio(self):
        par = G2Result(0.3684, 0.01, 0, 0.0, 0, 2)
        perp = G2Result(1.0, 0.01, 0, 0.0, 0, 2)
        v, err = visibility_from_histograms(par, perp)
        assert v == pytest.approx(0.6316, abs=1e-12)
        assert err > 0

    def test_equal_correlations_give_zero(self):
        par = G2Result(0.8, 0.01, 0, 0.0, 0, 2)
        v, _ = visibility_from_histograms(par, par)
        assert v == 0.0

    def test_perfect_suppression(self):
        par = G2Result(0.0, 0.01, 0, 0.0, 0, 2)
        perp = G2Result(1.0, 0.01, 0, 0.0, 0, 2)
        v, _ = visibility_from_histograms(par, perp)
        assert v == 1.0

    def test_zero_reference_undefined(self):
        perp = G2Result(0.0, 0.01, 0, 0.0, 0, 2)
        with pytest.raises(UndefinedCorrelationError):
            visibility_from_histograms(perp, perp)


class TestDisplacedFockGenerator:
    def test_auto_correlation_closure_small(self):
        source = SourceParams.from_moments(0.05, 0.0412, tau_lt_ps=170.0)
        lo = LocalOscillator(mu_alpha=0.1, theta=math.acos(math.sqrt(0.76)))
        cutoff = required_cutoff(0.1, 1e-10)
        stream, truth = displaced_fock_tags(
            source, lo, BeamSplitterSpec(0.5), cutoff, 1_000_000, REP, seed=5
        )
        expected = auto_g2_zero(0.1, 0.05, 0.0412, 0.76)
        assert truth["g2_auto_2"] == pytest.approx(expected, abs=1e-8)
        hist = build_histogram(stream, (2, 2), 25, 122_000 - 122_000 % 25, rep_period=REP)
        result = g2_zero(hist)
        assert abs(result.value - expected) <= 3.0 * result.stat_err

    def test_cross_visibility_closure(self):
        m, g2 = 0.76, 0.0412
        source = SourceParams.from_moments(0.3, g2, tau_lt_ps=170.0)
        bs = BeamSplitterSpec(0.5)
        cutoff = required_cutoff(0.15, 1e-10)
        lo_par = LocalOscillator(mu_alpha=0.15, theta=math.acos(math.sqrt(m)))
        lo_perp = LocalOscillator(mu_alpha=0.15, theta=math.pi / 2)
        tau_max = 122_000 - 122_000 % 25
        stream_par, truth_par = displaced_fock_tags(
            source, lo_par, bs, cutoff, 1_000_000, REP, seed=21, channel_2=2, channel_3=1
        )
        stream_perp, truth_perp = displaced_fock_tags(
            source, lo_perp, bs, cutoff, 1_000_000, REP, seed=22, channel_2=2, channel_3=1
        )
        g_par = g2_zero(build_histogram(stream_par, (1, 2), 25, tau_max, rep_period=REP))
        g_perp = g2_zero(build_histogram(stream_perp, (1, 2), 25, tau_max, rep_period=REP))
        v, err = visibility_from_histograms(g_par, g_perp)
        v_expected = 1.0 - truth_par["g2_cross"] / truth_perp["g2_cross"]
        assert abs(v - v_expected) <= 3.0 * err

    def test_generator_is_deterministic(self):
        source = SourceParams.from_moments(0.05, 0.0, tau_lt_ps=170.0)
        lo = LocalOscillator(mu_alpha=0.05)
        a, _ = displaced_fock_tags(source, lo, BeamSplitterSpec(0.5), 6, 10_000, REP, seed=9)
        b, _ = displaced_fock_tags(source, lo, BeamSplitterSpec(0.5), 6, 10_000, REP, seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.channels, b.channels)


class TestTagsCsvRoundTrip:
    def test_write_then_parse(self, tmp_path):
        stream = pulsed_coherent_tags({1: 0.2, 2: 0.1}, 500, REP, seed=2)
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, path)
        back = parse_tags(path)
        assert np.array_equal(back.channels, stream.channels)
        assert np.array_equal(back.times, stream.times)
