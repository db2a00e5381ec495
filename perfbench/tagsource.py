"""The benchmark's own generator of tag files; it shares no code with photonmix.

One pulse of the interference experiment: a source emits 0, 1 or 2 photons
(``p1 + 2 p2 = 1``, ``g2_psi = 2 p2``), each kept with probability
``eta = mu_psi``.  They meet a coherent field of mean ``mu_alpha`` on a
balanced splitter; a share ``m`` of the field is in the photons' mode and
interferes with them, the rest is orthogonal and splits as two independent
Poisson streams.  For ``k`` source photons and an in-mode coherent
amplitude ``beta`` the output ket is

    (sqrt(T) a2+ - sqrt(R) a3+)^k / sqrt(k!) |sqrt(R) beta>_2 |sqrt(T) beta>_3,

whose amplitudes are closed sums over coherent-state amplitudes.  Every
pulse draws (n2, n3) from that distribution, then every photon becomes one
``channel,t_ps`` record at ``pulse * rep_period`` plus an exponential
emission delay.  The exact moments of the sampled distribution are the
ground truth the outputs are checked against.
"""

from __future__ import annotations

import math

import numpy as np

TRANSMISSION = 0.5
CHANNELS = (2, 3)
#: Records formatted per write, to bound the memory of the CSV text.
_WRITE_CHUNK = 1_000_000


def source_populations(mu_psi: float, g2_psi: float) -> np.ndarray:
    """Probabilities of 0, 1 and 2 photons after the loss ``eta = mu_psi``."""
    p2 = 0.5 * g2_psi
    p1 = 1.0 - 2.0 * p2
    eta = mu_psi
    q2 = eta**2 * p2
    q1 = eta * p1 + 2.0 * eta * (1.0 - eta) * p2
    return np.array([1.0 - q1 - q2, q1, q2])


def _coherent(gamma: float, size: int) -> np.ndarray:
    """<n|gamma> for n < size, by the recurrence c_n = c_{n-1} gamma / sqrt(n)."""
    c = np.empty(size)
    c[0] = math.exp(-0.5 * gamma**2)
    for n in range(1, size):
        c[n] = c[n - 1] * gamma / math.sqrt(n)
    return c


def _raised(c: np.ndarray, j: int) -> np.ndarray:
    """<n| (a+)^j |gamma> = sqrt(n! / (n-j)!) <n-j|gamma>."""
    out = np.zeros_like(c)
    n = np.arange(j, c.size)
    out[j:] = c[: c.size - j] * np.sqrt([math.perm(int(k), j) for k in n])
    return out


def interfering_distribution(mu_psi: float, g2_psi: float, mu_in_mode: float) -> np.ndarray:
    """Joint distribution P[n2, n3] of the in-mode photons at the two outputs."""
    beta = math.sqrt(mu_in_mode)
    size = int(mu_in_mode + 14.0 * math.sqrt(mu_in_mode) + 24)
    t, r = math.sqrt(TRANSMISSION), math.sqrt(1.0 - TRANSMISSION)
    c2, c3 = _coherent(r * beta, size), _coherent(t * beta, size)
    joint = np.zeros((size, size))
    for k, weight in enumerate(source_populations(mu_psi, g2_psi)):
        amp = sum(
            math.comb(k, j) * t**j * (-r) ** (k - j) * np.outer(_raised(c2, j), _raised(c3, k - j))
            for j in range(k + 1)
        )
        joint += weight * amp**2 / math.factorial(k)
    return joint / joint.sum()


def truth(joint: np.ndarray, lam2: float, lam3: float) -> dict[str, float]:
    """Exact moments when independent Poisson counts of means lam2, lam3 add to P[n2, n3]."""
    n2, n3 = np.meshgrid(np.arange(joint.shape[0]), np.arange(joint.shape[1]), indexing="ij")

    def e(x) -> float:
        return float((joint * x).sum())

    a, b = e(n2), e(n3)
    mean2, mean3 = a + lam2, b + lam3
    return {
        "mean_2": mean2,
        "mean_3": mean3,
        "g2_auto_2": (e(n2 * (n2 - 1)) + 2.0 * a * lam2 + lam2**2) / mean2**2,
        "g2_auto_3": (e(n3 * (n3 - 1)) + 2.0 * b * lam3 + lam3**2) / mean3**2,
        "g2_cross": (e(n2 * n3) + a * lam3 + lam2 * b + lam2 * lam3) / (mean2 * mean3),
    }


def displaced_fock_tags(mu_psi: float, g2_psi: float, mu_alpha: float, m: float, n_pulses: int,
                        rep_period: int, lifetime_ps: float, seed: int):
    """Time-sorted (channels, times) of ``n_pulses`` pulses and the ground-truth moments."""
    joint = interfering_distribution(mu_psi, g2_psi, m * mu_alpha)
    lam2 = (1.0 - TRANSMISSION) * (1.0 - m) * mu_alpha
    lam3 = TRANSMISSION * (1.0 - m) * mu_alpha
    rng = np.random.default_rng(seed)
    cells = rng.choice(joint.size, size=n_pulses, p=joint.ravel())
    counts = {
        CHANNELS[0]: cells // joint.shape[1] + rng.poisson(lam2, n_pulses),
        CHANNELS[1]: cells % joint.shape[1] + rng.poisson(lam3, n_pulses),
    }
    pulse_t = np.arange(n_pulses, dtype=np.int64) * rep_period
    channels, times = [], []
    for ch, n in counts.items():
        t = np.repeat(pulse_t, n)
        times.append(t + rng.exponential(lifetime_ps, t.size).astype(np.int64))
        channels.append(np.full(t.size, ch, dtype=np.int64))
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")
    return np.concatenate(channels)[order], times[order], truth(joint, lam2, lam3)


def write_tags_csv(channels: np.ndarray, times: np.ndarray, path) -> None:
    """One ``channel,t_ps`` line per record, no header."""
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, channels.size, _WRITE_CHUNK):
            stop = start + _WRITE_CHUNK
            fh.write("".join(f"{c},{t}\n" for c, t in zip(channels[start:stop].tolist(),
                                                          times[start:stop].tolist())))
