"""Classifier search: enumerate templates, fit each on the satisfaction
boundary of the label-1 traces, keep the first instantiation whose
misclassification rate beats the threshold and whose windows are well formed.

The search is shortest-formula-first, so the returned classifier is as small
as the grammar allows.  Duplicate templates (same robustness fingerprint) are
skipped before any boundary work and excluded from reuse at greater lengths.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .boundary import BoundaryQuery
from .enumeration import CallbackResult, Grammar, enumerate_templates
from .errors import DataFormatError, TraceDomainError, UnknownSignalError
from .formula import Formula, TrueF
from .monitor import _Batch, _check_concrete, _Scorer, _stack
from .monitor import robustness_many  # noqa: F401  (patched by perfbench/tracer.py)
from .params import Valuation, _window_error, default_bounds, instantiate
from .signatures import SignatureConfig, SignatureIndex
from .traces import Dataset

MCR_ONESIDED = "onesided"
MCR_SYMMETRIC = "symmetric"

# boundary points examined per template before moving on; bounds the work a
# hopeless many-parameter template can absorb (its FIFO walk is coarse-first,
# so truncation behaves like a resolution cut, not a region cut)
DEFAULT_MAX_BOUNDARY_POINTS = 400


@dataclass(frozen=True)
class LearnerConfig:
    threshold: float = 0.1
    delta: float = 0.01
    diag_tol: float = 1e-3
    max_length: int = 5
    max_boundary_points: int | None = DEFAULT_MAX_BOUNDARY_POINTS
    mcr_mode: str = MCR_ONESIDED
    use_signatures: bool = True
    signature: SignatureConfig = SignatureConfig()

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold must be in (0,1), got {self.threshold}")
        if self.mcr_mode not in (MCR_ONESIDED, MCR_SYMMETRIC):
            raise ValueError(f"unknown mcr mode {self.mcr_mode!r}")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if not 0 < self.diag_tol < self.delta < 1:
            raise ValueError(
                f"need 0 < diag_tol < delta < 1, got diag_tol={self.diag_tol} delta={self.delta}"
            )
        if self.max_boundary_points is not None and self.max_boundary_points < 1:
            raise ValueError(
                f"max_boundary_points must be >= 1, got {self.max_boundary_points}"
            )


@dataclass
class LearnStats:
    templates_tried: int = 0
    templates_pruned: int = 0
    boundary_points: int = 0
    elapsed_s: float = 0.0


@dataclass
class LearnedClassifier:
    formula: Formula  # concrete
    mcr: float
    template: Formula
    valuation: Valuation
    stats: LearnStats


@dataclass
class TryResult:
    classifier: LearnedClassifier | None = None
    pruned: bool = False
    points_tested: int = 0


@dataclass
class LearnResult:
    classifier: LearnedClassifier | None
    stats: LearnStats
    per_length: dict[int, int] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.classifier is not None


def _label_batches(ds: Dataset, phi: Formula = TrueF()) -> tuple[list[_Batch], list[_Batch]]:
    """Label-0 and label-1 traces stacked for scoring at t=0; each must contain t=0."""
    try:
        return tuple([b for _, b in _stack(phi, ds.with_label(lab), 0.0)] for lab in (0, 1))
    except (TraceDomainError, UnknownSignalError):
        # name the first trace, in dataset order, that misses t=0; that error
        # comes before an unknown signal's
        for i, tr in enumerate(ds.traces):
            if not tr.contains_time(0.0):
                name = ds.names[i] if ds.names else f"trace {i}"
                raise TraceDomainError(
                    f"{name} covers [{tr.start_time}, {tr.end_time}]; traces must contain t=0"
                ) from None
        raise


def _count_wrong(scorer: _Scorer, batches, val: Valuation | None, mode: str) -> int:
    """The traces ``mcr`` counts as wrong, scored through ``scorer``; a template
    reads its parameters from ``val``."""
    neg, pos = batches
    wrong = sum(scorer.positive(b, val) for b in neg)
    if mode == MCR_SYMMETRIC:
        wrong += sum(b.k - scorer.positive(b, val) for b in pos)
    elif mode != MCR_ONESIDED:
        raise ValueError(f"unknown mcr mode {mode!r}")
    return int(wrong)  # a Python int, so that the rate is a Python float


def mcr(phi: Formula, ds: Dataset, mode: str = MCR_ONESIDED) -> float:
    """Misclassification rate of a concrete formula on a labeled dataset.

    One-sided mode counts only label-0 traces that satisfy the formula;
    the fitting procedure already pins label-1 traces to the satisfying side,
    so these are the misclassifications that matter there.  Symmetric mode
    additionally counts label-1 traces that fail to satisfy.
    """
    if ds.n == 0:
        raise DataFormatError("cannot score an empty dataset")
    _check_concrete(phi)
    return _count_wrong(_Scorer(phi), _label_batches(ds, phi), None, mode) / ds.n


def try_classifier(
    template: Formula,
    ds: Dataset,
    cfg: LearnerConfig = LearnerConfig(),
    signatures: SignatureIndex | None = None,
    stats: LearnStats | None = None,
) -> TryResult:
    """Fit one template: fingerprint check, then walk its boundary points.

    Returns a classifier as soon as one instantiation scores under the
    threshold and has well-formed windows; a duplicate fingerprint
    short-circuits with ``pruned`` set and no boundary evaluations.
    """
    return _fit(template, ds, _label_batches(ds), cfg, signatures, stats or LearnStats())


def _fit(template, ds, batches, cfg, signatures, stats) -> TryResult:
    """``try_classifier`` on the training traces already stacked by label."""
    space = default_bounds(template, ds)
    if signatures is not None and not signatures.check_and_insert(template, ds, space):
        stats.templates_pruned += 1
        return TryResult(pruned=True)

    if not batches[1]:
        raise DataFormatError("boundary fitting needs at least one label-1 trace")
    # one scorer for g and the MCR check, so that they share label-1 reductions
    scorer = _Scorer(template)
    query = BoundaryQuery._from_batches(scorer, space, batches[1], delta=cfg.delta,
                                        diag_tol=cfg.diag_tol, max_points=cfg.max_boundary_points)
    for valuation in query:
        stats.boundary_points += 1
        score = _count_wrong(scorer, batches, valuation, cfg.mcr_mode) / ds.n
        # an inverted two-sided window is a legal point of the box but a
        # degenerate formula; it scores through the empty-window sentinels
        if score < cfg.threshold and not _window_error(template, valuation):
            phi = instantiate(template, valuation)
            classifier = LearnedClassifier(phi, score, template, valuation, stats)
            return TryResult(classifier=classifier, points_tested=query.points_emitted)
    return TryResult(points_tested=query.points_emitted)


def learn(
    ds: Dataset,
    grammar: Grammar | None = None,
    cfg: LearnerConfig = LearnerConfig(),
) -> LearnResult:
    """Search templates shortest-first and return the first classifier whose
    misclassification rate beats ``cfg.threshold``, or a not-found result
    carrying the search statistics."""
    if ds.count(0) == 0 or ds.count(1) == 0:
        raise DataFormatError("learning needs traces of both labels (0 and 1)")
    if grammar is None:
        grammar = Grammar.default(ds.signal_names)
    t0 = time.perf_counter()
    batches = _label_batches(ds)  # before the probes are stacked, to name a bad file
    stats = LearnStats()
    signatures = SignatureIndex(cfg.signature, ds) if cfg.use_signatures else None
    hit: list[LearnedClassifier] = []

    def callback(template: Formula, length: int) -> CallbackResult:
        stats.templates_tried += 1
        res = _fit(template, ds, batches, cfg, signatures, stats)
        if res.classifier is not None:
            hit.append(res.classifier)
            return CallbackResult.STOP
        if res.pruned:
            return CallbackResult.PRUNED
        return CallbackResult.CONTINUE

    report = enumerate_templates(grammar, cfg.max_length, callback)
    stats.elapsed_s = time.perf_counter() - t0
    classifier = hit[0] if hit else None
    if classifier is not None:
        assert classifier.mcr < cfg.threshold
    return LearnResult(classifier, stats, report.per_length)
