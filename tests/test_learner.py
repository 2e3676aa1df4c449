"""Classifier search: scoring modes, template fitting, end-to-end learning."""
import pytest

from stlmine import learner
from stlmine.boundary import BoundaryQuery
from stlmine.errors import DataFormatError, TraceDomainError
from stlmine.formula import TrueF, formula_length, validate_formula
from stlmine.learner import (
    MCR_ONESIDED,
    MCR_SYMMETRIC,
    LearnerConfig,
    LearnStats,
    learn,
    mcr,
    try_classifier,
)
from stlmine.monitor import robustness_many
from stlmine.params import _window_error, default_bounds, instantiate
from stlmine.parser import parse_formula
from stlmine.signatures import SignatureConfig, SignatureIndex
from stlmine.traces import Dataset, Trace


def flat(value: float) -> Trace:
    return Trace({"x": [value, value, value]}, period=1.0)


def dataset_of(values_and_labels) -> Dataset:
    traces = [flat(v) for v, _ in values_and_labels]
    labels = [l for _, l in values_and_labels]
    return Dataset(traces, labels)


def test_mcr_counts_label0_satisfiers():
    # 2 of the 100 traces are label-0 and satisfy x > 0
    rows = [(1.0, 0)] * 2 + [(-1.0, 0)] * 48 + [(-1.0, 1)] * 50
    ds = dataset_of(rows)
    assert mcr(parse_formula("x > 0"), ds) == pytest.approx(0.02)


def test_mcr_symmetric_adds_label1_violators():
    rows = [(1.0, 0)] * 2 + [(-1.0, 0)] * 48 + [(1.0, 1)] * 47 + [(-1.0, 1)] * 3
    ds = dataset_of(rows)
    assert mcr(parse_formula("x > 0"), ds, MCR_ONESIDED) == pytest.approx(0.02)
    assert mcr(parse_formula("x > 0"), ds, MCR_SYMMETRIC) == pytest.approx(0.05)


def test_mcr_of_true_is_label0_fraction():
    ds = dataset_of([(0.0, 0)] * 5 + [(0.0, 1)] * 5)
    assert mcr(TrueF(), ds) == 0.5
    assert mcr(TrueF(), ds, MCR_SYMMETRIC) == 0.5


def test_mcr_zero_robustness_counts_as_violation():
    ds = dataset_of([(0.0, 1), (1.0, 0)])
    # x = 0 gives robustness exactly 0 for x > 0: not satisfied
    assert mcr(parse_formula("x > 0"), ds, MCR_SYMMETRIC) == 1.0


def test_mcr_argument_errors():
    ds = dataset_of([(0.0, 1)])
    with pytest.raises(ValueError):
        mcr(parse_formula("x > 0"), ds, "median")
    with pytest.raises(Exception):
        Dataset([], [])


def test_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(threshold=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(threshold=1.0)
    with pytest.raises(ValueError):
        LearnerConfig(mcr_mode="median")
    with pytest.raises(ValueError):
        LearnerConfig(max_length=0)


def test_try_classifier_fits_simple_threshold():
    ds = dataset_of([(5.0, 1), (5.0, 1), (0.0, 0), (0.0, 0)])
    stats = LearnStats()
    res = try_classifier(parse_formula("x > $c"), ds, stats=stats)
    assert res.classifier is not None and not res.pruned
    assert res.points_tested == 1 and stats.boundary_points == 1
    assert res.classifier.mcr == 0.0
    # the label-1 plateau sits at 5, so the fitted threshold lands there
    assert res.classifier.valuation["c"] == pytest.approx(5.0, abs=0.1)
    assert str(res.classifier.template) == "x > $c"


def test_try_classifier_prunes_duplicates_without_boundary_work():
    ds = dataset_of([(5.0, 1), (0.0, 0)])
    index = SignatureIndex(SignatureConfig(), ds)
    assert index.check_and_insert(parse_formula("x > $c"), ds)
    stats = LearnStats()
    res = try_classifier(parse_formula("not x < $c"), ds, signatures=index, stats=stats)
    assert res.pruned and res.classifier is None
    assert res.points_tested == 0
    assert stats.boundary_points == 0 and stats.templates_pruned == 1


def test_try_classifier_needs_a_positive_trace():
    ds = dataset_of([(5.0, 0), (0.0, 0)])
    with pytest.raises(DataFormatError):
        try_classifier(parse_formula("x > $c"), ds)


def test_try_classifier_skips_an_inverted_window_under_the_threshold():
    # the label-1 traces peak at t=2, the middle of the [0, 4] time box, so
    # the first boundary point of F[$p1,$p2] lies just short of the box
    # diagonal's midpoint, where p1 > p2: its window is empty, no label-0
    # trace satisfies it, and it scores 0
    peak = Trace({"x": [0.0, 0.0, 5.0, 0.0, 0.0]}, period=1.0)
    low = Trace({"x": [0.0] * 5}, period=1.0)
    ds = Dataset([peak, peak, low, low], [1, 1, 0, 0])
    template = parse_formula("F[$p1,$p2](x > $p3)")
    cfg = LearnerConfig(threshold=0.05)
    query = BoundaryQuery(template, default_bounds(template, ds), ds.with_label(1),
                          delta=cfg.delta, diag_tol=cfg.diag_tol,
                          max_points=cfg.max_boundary_points)
    under = [(i, v) for i, v in enumerate(query)
             if mcr(instantiate(template, v, validate=False), ds) < cfg.threshold]
    assert _window_error(template, under[0][1])
    first, valuation = next((i, v) for i, v in under if not _window_error(template, v))

    res = try_classifier(template, ds, cfg)
    assert res.classifier.valuation == valuation
    assert res.points_tested == first + 1
    validate_formula(res.classifier.formula)


def test_learn_requires_both_classes():
    with pytest.raises(DataFormatError):
        learn(dataset_of([(1.0, 1), (2.0, 1)]))
    with pytest.raises(DataFormatError):
        learn(dataset_of([(1.0, 0), (2.0, 0)]))


def test_learn_separable_constants_stops_at_first_atom():
    ds = dataset_of([(5.0, 1), (5.0, 1), (0.0, 0), (0.0, 0)])
    result = learn(ds)
    assert result.found
    assert str(result.classifier.template) == "x > $p1"
    assert result.classifier.mcr == 0.0
    assert result.stats.templates_tried == 1
    assert result.per_length == {1: 1}


def test_learn_band_needs_length_three():
    # label-1 sits between two label-0 plateaus: no single atom separates
    ds = dataset_of([(5.0, 1), (5.0, 1), (9.0, 0), (1.0, 0)])
    result = learn(ds)
    assert result.found
    tpl = result.classifier.template
    assert str(tpl) == "x > $p1 and x < $p2"
    assert formula_length(tpl) == 3
    v = result.classifier.valuation
    assert v["p1"] == pytest.approx(5.0, abs=0.2)
    assert v["p2"] == pytest.approx(5.0, abs=0.2)
    assert result.classifier.mcr == 0.0
    # flat traces make "eventually" and "always" fingerprints collide
    assert result.stats.templates_pruned > 0


def test_learn_without_signatures_matches():
    ds = dataset_of([(5.0, 1), (5.0, 1), (9.0, 0), (1.0, 0)])
    with_sigs = learn(ds)
    without = learn(ds, cfg=LearnerConfig(use_signatures=False))
    assert without.stats.templates_pruned == 0
    assert without.found
    assert str(without.classifier.formula) == str(with_sigs.classifier.formula)
    assert without.stats.templates_tried >= with_sigs.stats.templates_tried


def test_learn_gives_up_on_inseparable_data():
    # identical traces with both labels: under symmetric scoring every formula
    # misclassifies exactly one of the pair, so the rate is pinned at 0.5
    ds = dataset_of([(3.0, 1), (3.0, 0)])
    result = learn(ds, cfg=LearnerConfig(max_length=3, mcr_mode=MCR_SYMMETRIC))
    assert not result.found and result.classifier is None
    assert result.stats.templates_tried == sum(result.per_length.values())
    assert result.stats.elapsed_s > 0


def test_try_classifier_fits_always_above_template():
    ds = dataset_of([(5.0, 1), (5.0, 1), (0.0, 0), (0.0, 0)])
    res = try_classifier(parse_formula("G[0,$t](x > $c)"), ds)
    assert res.classifier is not None
    assert res.classifier.mcr == 0.0
    assert res.classifier.valuation["c"] == pytest.approx(5.0, abs=0.1)


def test_learn_swapped_labels_still_separates():
    # flipping which class is "interesting" flips the learned direction
    ds = dataset_of([(5.0, 1), (5.0, 1), (0.0, 0), (0.0, 0)])
    swapped = Dataset(ds.traces, [1 - l for l in ds.labels])
    result = learn(swapped)
    assert result.found
    assert result.classifier.mcr < LearnerConfig().threshold
    assert str(result.classifier.template) == "x < $p1"


def test_learn_symmetric_mode_scores_symmetrically():
    ds = dataset_of([(5.0, 1), (5.0, 1), (9.0, 0), (1.0, 0)])
    result = learn(ds, cfg=LearnerConfig(mcr_mode=MCR_SYMMETRIC))
    assert result.found
    phi = result.classifier.formula
    assert result.classifier.mcr == mcr(phi, ds, MCR_SYMMETRIC) == 0.0


def test_stacking_errors_name_the_first_bad_trace_in_dataset_order():
    # shape groups interleave, and the first trace that misses t=0 is a label-1
    # trace, stacked after every label-0 one, although a label-0 trace misses it too
    def trace(n, start):
        return Trace({"x": [1.0] * n}, period=1.0, start_time=start)

    traces = [trace(4, 0.0), trace(5, 0.0), trace(4, 1.0), trace(4, 0.0), trace(5, 2.0),
              trace(5, 0.0), trace(4, 1.0)]
    labels = [0, 1, 1, 0, 0, 1, 0]
    ds = Dataset(traces, labels, [f"{c}.csv" for c in "abcdefg"])
    with pytest.raises(TraceDomainError) as err:
        learn(ds)
    assert str(err.value) == "c.csv covers [1.0, 4.0]; traces must contain t=0"
    # a formula over an unknown signal still reports the trace first
    with pytest.raises(TraceDomainError) as err:
        mcr(parse_formula("y > 0"), ds)
    assert str(err.value) == "c.csv covers [1.0, 4.0]; traces must contain t=0"
    with pytest.raises(TraceDomainError) as err:
        robustness_many(parse_formula("x > 0"), traces)
    assert str(err.value) == "t=0.0 outside trace domain [1.0, 4.0]"
    with pytest.raises(TraceDomainError) as err:  # the first bad trace after trace 2
        robustness_many(parse_formula("x > 0"), traces[3:])
    assert str(err.value) == "t=0.0 outside trace domain [2.0, 6.0]"


def test_learn_rejects_a_trace_without_time_zero_before_any_template(monkeypatch):
    late = Trace({"x": [0.0, 0.0, 0.0]}, period=1.0, start_time=0.5)
    ds = Dataset([flat(5.0), late], [1, 0])

    def no_template(*args):
        raise AssertionError("a template was tried")

    monkeypatch.setattr(learner, "default_bounds", no_template)
    with pytest.raises(TraceDomainError, match="trace 1 covers .*must contain t=0"):
        learn(ds)
    with pytest.raises(TraceDomainError, match="late.csv"):
        learn(Dataset(ds.traces, ds.labels, ["early.csv", "late.csv"]))
