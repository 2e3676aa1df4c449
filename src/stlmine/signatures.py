"""Duplicate detection for parametric templates via robustness fingerprints.

Two templates that produce identical robustness values on a fixed probe set
(a handful of traces crossed with a handful of random parameter valuations)
are treated as equivalent, and only the first one is kept.  The probe traces
are drawn from the training data once per index; the valuations scale one
seeded draw per coordinate into the parameter bounds, so a given seed always
yields the same fingerprints.

The fingerprint of a template is the matrix ``S[i][j]`` = robustness of the
template under valuation j on probe trace i at time 0, quantized to a fixed
grid so that equal-up-to-noise matrices collide.  Matrices of different
shapes, or of templates with different parameter counts, never collide.  The
template is compiled once per probe batch (``monitor._compile``), and the
compiled closure is called once per valuation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import Formula, TrueF
from .monitor import _compile, _stack
from .monitor import robustness  # noqa: F401  (patched by perfbench/tracer.py)
from .params import ParamSpace, default_bounds
from .params import instantiate  # noqa: F401  (patched by perfbench/tracer.py)
from .traces import Dataset, Trace

# values closer than this are treated as the same robustness
DEFAULT_QUANTUM = 1e-9


@dataclass(frozen=True)
class SignatureConfig:
    n_traces: int = 3
    n_valuations: int = 5
    seed: int = 0
    quantum: float = DEFAULT_QUANTUM

    def __post_init__(self):
        if self.n_traces < 1 or self.n_valuations < 1:
            raise ValueError("signature probe counts must be >= 1")
        if not self.quantum > 0:
            raise ValueError("quantum must be positive")


class SignatureIndex:
    """Check-and-insert store of template fingerprints.

    ``check_and_insert`` returns True when the template's fingerprint is new
    (the template was added) and False when an earlier template already
    produced the same fingerprint.
    """

    def __init__(self, config: SignatureConfig, dataset: Dataset):
        if dataset.n == 0:
            raise ValueError("signature index needs a non-empty dataset")
        self.config = config
        rng = np.random.default_rng([config.seed, 0])
        k = min(config.n_traces, dataset.n)
        picks = rng.choice(dataset.n, size=k, replace=False)
        self.probe_traces: list[Trace] = [dataset.traces[i] for i in sorted(picks)]
        # stacked once; default_bounds checks each template's signals
        self._batches = _stack(TrueF(), self.probe_traces, 0.0)
        self._seen: dict[tuple, Formula] = {}
        # coordinate i -> its draws on [0, 1), shared by every template
        self._draws: dict[int, list[float]] = {}

    def valuations(self, space: ParamSpace) -> list[dict[str, float]]:
        """Random points in the parameter box, reproducible per coordinate.

        The draw for coordinate i depends only on (seed, i) and that
        coordinate's bounds, so templates sharing a box prefix probe the
        shared coordinates identically.  ``lo + (hi - lo) * u`` is
        ``Generator.uniform``'s arithmetic on its draw u, so the bytes match.
        """
        cols = []
        for i, d in enumerate(space.params):
            u = self._draws.get(i)
            if u is None:
                rng = np.random.default_rng([self.config.seed, 1, i])
                u = self._draws[i] = rng.random(self.config.n_valuations).tolist()
            cols.append([d.lo + (d.hi - d.lo) * x for x in u])
        return [{d.name: col[j] for d, col in zip(space.params, cols)}
                for j in range(self.config.n_valuations)]

    def fingerprint(self, template: Formula, space: ParamSpace) -> tuple:
        cfg = self.config
        vals = self.valuations(space)
        mat = np.empty((len(self.probe_traces), len(vals)))
        compiled = [(idx, _compile(template, batch, space.names, 0.0))
                    for idx, batch in self._batches]
        for j, v in enumerate(vals):
            vector = list(v.values())
            for idx, f in compiled:
                mat[idx, j] = f(vector)
        q = np.round(mat / cfg.quantum).astype(np.int64)
        return (space.dim, q.shape, q.tobytes())

    def check_and_insert(
        self, template: Formula, dataset: Dataset, space: ParamSpace | None = None
    ) -> bool:
        if space is None:
            space = default_bounds(template, dataset)
        key = self.fingerprint(template, space)
        if key in self._seen:
            return False
        self._seen[key] = template
        return True

    def lookup(self, template: Formula, dataset: Dataset) -> Formula | None:
        """The stored template with this template's fingerprint, if any."""
        space = default_bounds(template, dataset)
        return self._seen.get(self.fingerprint(template, space))

    def __len__(self) -> int:
        return len(self._seen)
