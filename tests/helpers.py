"""Helpers shared by several test modules."""

from photonmix.estimator import SWEEP_HEADER
from photonmix.tables import write_table


def write_tags_csv(stream, path) -> None:
    """Write a ``TagStream`` in the headerless ``channel,t_ps`` format ``parse_tags`` reads."""
    write_table(path, None, [stream.channels, stream.times])


def write_time_profile(path, xs, values) -> None:
    """Write a time profile as the CSV ``mode_overlap.read_profile`` reads."""
    write_table(path, ("t_ps", "value"), [xs, values])


def write_sweep(path, ratio, y, y_err) -> None:
    """Write a sweep as the ``ratio,y,y_err`` CSV that ``estimator.read_sweep`` reads."""
    write_table(path, SWEEP_HEADER, [ratio, y, y_err])
