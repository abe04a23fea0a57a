"""Vanilla sketching algorithms -- the substrate NitroSketch accelerates.

Canonical multi-row sketches (wrappable by NitroSketch):

* :class:`CountMinSketch` -- L1 guarantee, min-of-rows (ref [27]).
* :class:`CountSketch` -- L2 guarantee, median-of-rows (ref [17]).
* :class:`KArySketch` -- change detection, mean-corrected median ([51]).
* :class:`UnivMon` -- universal sketch over sampled substreams ([55]).

Supporting structures:

* :class:`TopK` -- heavy-key heap (the paper's "TopKeys").
* :class:`MisraGries` -- deterministic HH summary (SketchVisor's basis).
* :class:`LinearCounter` / :class:`HyperLogLog` -- cardinality estimators.

Strawman baselines from Section 4.1:

* :class:`OneArrayCountSketch` -- Strawman 1 (single huge array).
* :class:`UniformSampledSketch` -- Strawman 2 (per-packet coin flips).
"""

from repro.sketches.base import Monitor, Sketch, CanonicalSketch
from repro.sketches.topk import TopK
from repro.sketches.tracked import TrackedSketch
from repro.sketches.countmin import CountMinSketch, ConservativeCountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from repro.sketches.univmon import (
    UnivMon,
    HeavyHitterSketch,
    paper_widths,
    g_entropy,
    g_distinct,
    g_l2_squared,
    g_l1,
)
from repro.sketches.misra_gries import MisraGries
from repro.sketches.spacesaving import SpaceSaving
from repro.sketches.entropy import EntropySketch
from repro.sketches.bloom import BloomFilter, CountingBloomFilter, optimal_parameters
from repro.sketches.linear_counting import LinearCounter
from repro.sketches.hll import HyperLogLog
from repro.sketches.one_array import OneArrayCountSketch
from repro.sketches.sampled import UniformSampledSketch

__all__ = [
    "Monitor",
    "Sketch",
    "CanonicalSketch",
    "TopK",
    "TrackedSketch",
    "CountMinSketch",
    "ConservativeCountMinSketch",
    "CountSketch",
    "KArySketch",
    "UnivMon",
    "HeavyHitterSketch",
    "paper_widths",
    "g_entropy",
    "g_distinct",
    "g_l2_squared",
    "g_l1",
    "MisraGries",
    "SpaceSaving",
    "EntropySketch",
    "BloomFilter",
    "CountingBloomFilter",
    "optimal_parameters",
    "LinearCounter",
    "HyperLogLog",
    "OneArrayCountSketch",
    "UniformSampledSketch",
]
