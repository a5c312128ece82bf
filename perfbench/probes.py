"""Isolated layer probes that call only public lsrsim functions.

Each probe repeats a fixed amount of work, so its figure does not depend on
how long the benchmark runs.  The probes run in rounds, each round running
every probe once, and report the median over rounds: the machine's speed
drifts over seconds, and interleaving spreads every probe's samples over the
whole probe phase instead of one short stretch of it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

PROBE_SNR_DB = 5.0
PROBE_SEED = 7
ROUNDS = 5
# numbers of b values in the two-point fit of sampling time against K
K_LOW, K_HIGH = 1, 41


@dataclass
class ProbeResults:
    normals_us_per_trial: dict[int, float]  # BlockSampler.normals, per n_r
    draw_us_per_trial: dict[int, float]  # K-fit intercept, per n_r
    per_b_ns_per_trial: dict[int, float]  # K-fit slope, per n_r
    workers2_speedup: float


def _normals_trials(n_r: int) -> int:
    # roughly 50-150 ms of sampling per call at every n_r
    return max(2000, min(20000, 2_560_000 // (4 * n_r)))


def _kfit_trials(n_r: int) -> int:
    return max(200, min(5000, 40_000 // n_r))


def _b_values(a: float, k: int) -> list[float]:
    return [a] if k == 1 else list(np.linspace(0.5 * a, 1.5 * a, k))


def run_probes(lsrsim, normals_n_r, kfit_n_r, speedup_shape) -> ProbeResults:
    """Time every probe; ``speedup_shape`` is ``(n_r_list, k, trials)`` of
    the 1-versus-2-worker comparison."""

    def sampling(n_r_list, k, trials, workers):
        calls = []
        for n_r in n_r_list:
            config = lsrsim.build_channel_config(PROBE_SNR_DB, n_r)
            calls.append((config, _b_values(abs(lsrsim.lmmse_coefficient(config)), k)))

        def task():
            for config, b_values in calls:
                lsrsim.gmi_samples_multi_b(config, b_values, trials, PROBE_SEED, workers=workers)

        return task

    def normals(n_r):
        sampler = lsrsim.BlockSampler(PROBE_SEED)
        out = np.empty(4 * n_r)
        trials = _normals_trials(n_r)

        def task():
            for i in range(trials):
                sampler.normals(i, out)

        return task

    tasks = {("normals", n_r): normals(n_r) for n_r in normals_n_r}
    for n_r in kfit_n_r:
        for k in (K_LOW, K_HIGH):
            tasks[("kfit", n_r, k)] = sampling([n_r], k, _kfit_trials(n_r), 1)
    for workers in (1, 2):
        tasks[("workers", workers)] = sampling(*speedup_shape, workers)

    samples = {key: [] for key in tasks}
    for _ in range(ROUNDS):
        for key, task in tasks.items():
            start = time.perf_counter()
            task()
            samples[key].append(time.perf_counter() - start)
    t = {key: statistics.median(v) for key, v in samples.items()}

    draw, per_b = {}, {}
    for n_r in kfit_n_r:
        trials = _kfit_trials(n_r)
        slope = (t[("kfit", n_r, K_HIGH)] - t[("kfit", n_r, K_LOW)]) / (K_HIGH - K_LOW)
        draw[n_r] = (t[("kfit", n_r, K_LOW)] - slope * K_LOW) / trials * 1e6
        per_b[n_r] = slope / trials * 1e9
    return ProbeResults(
        normals_us_per_trial={n_r: t[("normals", n_r)] / _normals_trials(n_r) * 1e6 for n_r in normals_n_r},
        draw_us_per_trial=draw,
        per_b_ns_per_trial=per_b,
        workers2_speedup=t[("workers", 1)] / t[("workers", 2)],
    )
