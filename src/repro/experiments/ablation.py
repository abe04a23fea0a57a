"""Design-choice ablation (DESIGN.md section 5; paper Sections 4.1, App. B).

Compares, at equal sampling rate p and equal memory where applicable:

* **NitroSketch (geometric)** -- the full design;
* **NitroSketch (bernoulli)** -- Idea A without Idea B (per-row coin flips);
* **Uniform packet sampling** (Strawman 2) -- whole-packet sampling into a
  vanilla Count Sketch;
* **One-array Count Sketch** (Strawman 1) -- one huge hash-indexed array;
* **Vanilla Count Sketch** -- the unaccelerated baseline.

Reports in-memory packet rate (cost model), heavy-hitter accuracy, memory,
plus the Appendix-B analytical space ratio between uniform sampling and
NitroSketch.
"""

from __future__ import annotations

from repro.analysis.comparison import (
    one_array_space_counters,
    space_ratio_uniform_vs_nitro,
)
from repro.core import NitroConfig, NitroSketch
from repro.experiments.common import scaled, simulate
from repro.experiments.report import ExperimentResult, print_result
from repro.metrics.accuracy import mean_relative_error
from repro.sketches import (
    CountSketch,
    OneArrayCountSketch,
    TrackedSketch,
    UniformSampledSketch,
)
from repro.switchsim import InMemoryPipeline, UNLIMITED
from repro.traffic import caida_like

PROBABILITY = 0.05
HH_THRESHOLD = 0.0005


def run(scale: float = 0.2, seed: int = 0) -> ExperimentResult:
    n_packets = scaled(2_000_000, scale)
    trace = caida_like(n_packets, n_flows=max(2000, n_packets // 10), seed=seed)
    counts = trace.counts()
    threshold = HH_THRESHOLD * n_packets
    result = ExperimentResult(
        name="Ablation",
        description="Sampling-design ablation at p=%.2f: in-memory packet rate, "
        "HH error, memory." % PROBABILITY,
    )

    depth, width = 5, 32768

    class _SampledTracked(TrackedSketch):
        """Uniform sampling wrapper + top-k with the TrackedSketch surface."""

        def __init__(self) -> None:
            super().__init__(CountSketch(depth, width, seed), k=200)
            self._wrapper = UniformSampledSketch(
                self.sketch, PROBABILITY, seed=seed + 1
            )

        def update_batch(self, keys, weights=None, duration_seconds=None):
            import numpy as np

            self._wrapper.update_batch(keys, weights)
            unique = np.unique(keys)
            for key in unique.tolist():
                self.topk.offer(int(key), self.sketch.query(int(key)))

    variants = []
    variants.append(
        (
            "nitro-geometric",
            NitroSketch(
                CountSketch(depth, width, seed),
                NitroConfig(probability=PROBABILITY, top_k=200, seed=seed),
            ),
        )
    )
    variants.append(
        (
            "nitro-bernoulli",
            NitroSketch(
                CountSketch(depth, width, seed),
                NitroConfig(
                    probability=PROBABILITY, top_k=200, seed=seed, sampling="bernoulli"
                ),
            ),
        )
    )
    variants.append(("uniform-sampling", _SampledTracked()))
    variants.append(
        ("one-array", TrackedSketch(OneArrayCountSketch(depth * width, seed), k=200))
    )
    variants.append(
        ("vanilla", TrackedSketch(CountSketch(depth, width, seed), k=200))
    )

    for label, monitor in variants:
        # Bernoulli sampling has no vectorised path; use scalar ingest for
        # it so the coin-flip cost is really measured.
        use_batch = label != "nitro-bernoulli"
        sim = simulate(
            InMemoryPipeline(),
            monitor,
            trace,
            name=label,
            use_batch=use_batch,
            offered_gbps=1000.0,
            nic=UNLIMITED,
        )
        detected = dict(monitor.heavy_hitters(threshold))
        result.rows.append(
            {
                "variant": label,
                "packet_rate_mpps": sim.capacity_mpps,
                "hh_error_pct": 100 * mean_relative_error(detected, counts),
                "memory_kb": monitor.memory_bytes() / 1024,
            }
        )

    result.notes.append(
        "Appendix-B analytical space ratio (uniform sampling / NitroSketch) "
        "at eps=5%%, delta=5%%, p=%.2f, m=%d: %.2fx"
        % (
            PROBABILITY,
            n_packets,
            space_ratio_uniform_vs_nitro(0.05, 0.05, PROBABILITY, n_packets),
        )
    )
    result.notes.append(
        "Strawman-1 counters for the same (eps, delta): %.0f vs NitroSketch "
        "rows x width = %d" % (one_array_space_counters(0.05, 0.05), depth * width)
    )
    result.notes.append(
        "Expected ordering: geometric fastest; bernoulli pays d coin flips "
        "per packet; uniform sampling pays one flip per packet plus full-"
        "depth updates on sampled packets; vanilla slowest."
    )
    return result


if __name__ == "__main__":
    print_result(run())
