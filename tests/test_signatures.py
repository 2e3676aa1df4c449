"""Fingerprint-based duplicate detection for parametric templates."""
import numpy as np
import pytest

from stlmine.enumeration import FormulaDB, Grammar, enumerate_templates
from stlmine.errors import UnknownSignalError
from stlmine.formula import TrueF
from stlmine.monitor import BIG, robustness
from stlmine.formula import Polarity
from stlmine.params import ParamDef, ParamKind, ParamSpace, default_bounds, instantiate
from stlmine.parser import parse_formula
from stlmine.signatures import SignatureConfig, SignatureIndex
from stlmine.traces import Dataset, Trace


def const_dataset(value: float = 5.0, n: int = 4) -> Dataset:
    return Dataset([Trace({"x": [value] * n}, period=1.0)], [1])


def test_config_validation():
    with pytest.raises(ValueError):
        SignatureConfig(n_traces=0)
    with pytest.raises(ValueError):
        SignatureConfig(n_valuations=0)
    with pytest.raises(ValueError):
        SignatureConfig(quantum=0.0)


def test_fingerprint_single_cell_matches_hand_computation():
    # one probe trace (x = 5) and one valuation: the matrix is [[5 - c]]
    ds = const_dataset(5.0, n=1)
    cfg = SignatureConfig(n_traces=1, n_valuations=1, seed=0)
    index = SignatureIndex(cfg, ds)
    tpl = parse_formula("x > $c")
    space = default_bounds(tpl, ds)
    # constant signal: bounds are value +/- 1, and the draw is seeded per axis
    assert (space.params[0].lo, space.params[0].hi) == (4.0, 6.0)
    c = float(np.random.default_rng([0, 1, 0]).uniform(4.0, 6.0, size=1)[0])
    expected_cell = np.round(np.array([[5.0 - c]]) / cfg.quantum).astype(np.int64)
    dim, shape, blob = index.fingerprint(tpl, space)
    assert dim == 1
    assert shape == (1, 1)
    assert blob == expected_cell.tobytes()


def test_negated_complement_atom_merges():
    ds = const_dataset()
    index = SignatureIndex(SignatureConfig(), ds)
    kept = parse_formula("x > $c")
    dup = parse_formula("not x < $c")
    assert index.check_and_insert(kept, ds) is True
    # -(c - x) == x - c pointwise, so the fingerprints are identical
    assert index.check_and_insert(dup, ds) is False
    assert index.lookup(dup, ds) is kept
    assert len(index) == 1


def test_distinct_atoms_are_kept_apart():
    ds = const_dataset()
    index = SignatureIndex(SignatureConfig(), ds)
    assert index.check_and_insert(parse_formula("x > $c"), ds)
    assert index.check_and_insert(parse_formula("x < $c"), ds)
    assert len(index) == 2


def test_parameter_count_shields_against_collisions():
    # "true" and "G[0,$t](true)" produce the same all-big matrix, but they
    # differ in dimension, so they never merge
    ds = const_dataset()
    index = SignatureIndex(SignatureConfig(), ds)
    assert index.check_and_insert(TrueF(), ds)
    assert index.check_and_insert(parse_formula("G[0,$t](true)"), ds)
    assert len(index) == 2


def test_constant_probe_trace_collapses_temporal_shape():
    # on a constant trace, "eventually above c" and "always above c" agree for
    # every (t, c), so the heuristic merges them; a moving trace separates them
    flat = const_dataset()
    f = parse_formula("F[0,$t](x > $c)")
    g = parse_formula("G[0,$t](x > $c)")
    index = SignatureIndex(SignatureConfig(), flat)
    assert index.check_and_insert(f, flat)
    assert not index.check_and_insert(g, flat)

    moving = Dataset([Trace({"x": [0.0, 1.0, 2.0, 5.0]}, period=1.0)], [1])
    index2 = SignatureIndex(SignatureConfig(), moving)
    assert index2.check_and_insert(f, moving)
    assert index2.check_and_insert(g, moving)


def test_coarse_quantum_merges_what_fine_quantum_separates():
    ds = const_dataset()
    a, b = parse_formula("x > $c"), parse_formula("x < $c")
    fine = SignatureIndex(SignatureConfig(), ds)
    assert fine.check_and_insert(a, ds) and fine.check_and_insert(b, ds)
    # both margins stay within (-1, 1), so a quantum of 10 rounds all to zero
    coarse = SignatureIndex(SignatureConfig(quantum=10.0), ds)
    assert coarse.check_and_insert(a, ds)
    assert not coarse.check_and_insert(b, ds)


def test_probe_traces_capped_by_dataset_size():
    ds = const_dataset()
    index = SignatureIndex(SignatureConfig(n_traces=3), ds)
    assert len(index.probe_traces) == 1


def test_shared_axis_prefix_probes_identically():
    ds = Dataset([Trace({"x": [0.0, 1.0, 2.0, 5.0]}, period=1.0)], [1])
    index = SignatureIndex(SignatureConfig(), ds)
    sp_f = default_bounds(parse_formula("F[0,$t](x > $c)"), ds)
    sp_u = default_bounds(parse_formula("(x > $a) U[0,$t](x < $b)"), ds)
    vals_f = index.valuations(sp_f)
    vals_u = index.valuations(sp_u)
    # both spaces lead with the same time axis over [0, duration]
    assert [v["t"] for v in vals_f] == [v["t"] for v in vals_u]


def test_probe_points_are_the_bytes_of_a_uniform_draw():
    # each coordinate's draws on [0, 1) are kept in the index and scaled per
    # box; the points must be the bytes rng.uniform(lo, hi) draws from a fresh seed
    rng = np.random.default_rng(11)
    bounds = [(0.0, 1.0), (-11.5, 9.25), (0.0, 50.0), (-1e9, 1e9), (1e-300, 3e-300),
              (-7.3, -7.299999), (2.0, 2.0 + 2 ** -40)]
    bounds += [tuple(sorted(rng.normal(0, 10.0 ** rng.integers(-3, 6), 2).tolist()))
               for _ in range(40)]
    checked = 0
    for seed in (0, 1, 7):
        for n in (1, 5, 9):
            index = SignatureIndex(SignatureConfig(n_valuations=n, seed=seed), const_dataset())
            for start in range(0, len(bounds), 3):  # boxes of three axes, then the rest
                box = bounds[start : start + 3]
                space = ParamSpace([ParamDef(f"p{i}", ParamKind.VALUE, lo, hi, Polarity.INCREASING)
                                    for i, (lo, hi) in enumerate(box)])
                vals = index.valuations(space)
                for i, (lo, hi) in enumerate(box):
                    want = np.random.default_rng([seed, 1, i]).uniform(lo, hi, n)
                    got = np.array([v[f"p{i}"] for v in vals])
                    assert got.tobytes() == want.tobytes(), (seed, n, lo, hi)
                    assert all(type(v[f"p{i}"]) is float for v in vals)
                    checked += 1
    assert checked > 400


def test_deterministic_across_instances():
    ds = const_dataset()
    tpl = parse_formula("F[0,$t](x > $c)")
    space = default_bounds(tpl, ds)
    fp1 = SignatureIndex(SignatureConfig(), ds).fingerprint(tpl, space)
    fp2 = SignatureIndex(SignatureConfig(), ds).fingerprint(tpl, space)
    assert fp1 == fp2


def test_empty_dataset_rejected():
    ds = const_dataset()
    with pytest.raises(Exception):
        SignatureIndex(SignatureConfig(), Dataset([], []))
    assert SignatureIndex(SignatureConfig(), ds) is not None


@pytest.mark.parametrize("two_sided", [False, True])
def test_batched_fingerprint_matches_per_trace_reference(two_sided):
    # probe traces of three lengths, so the probes stack into several batches;
    # the second input ties zeros of both signs and has |x| + |c| past BIG,
    # which a chain template clips always and _rob only where it can be reached
    rng = np.random.default_rng(3)
    near_big = [0.0, -0.0, 0.5, -0.5, 9e8, -9e8, 1e9, -1e9]
    inputs = [[rng.uniform(-2.0, 2.0, size=n) for n in (4, 7, 4, 9, 7)],
              [rng.choice(near_big, size=n) for n in (4, 7, 4, 9, 7)]]
    db = FormulaDB()
    enumerate_templates(Grammar.default(["x"], two_sided_intervals=two_sided), 3, db=db)
    templates = [t for length in sorted(db.by_length) for t in db.by_length[length]]
    assert len(templates) > 20
    for rows in inputs:
        ds = Dataset([Trace({"x": x}, period=0.5) for x in rows], [1, 0, 1, 0, 1])
        cfg = SignatureConfig(n_traces=4)
        index = SignatureIndex(cfg, ds)
        assert len({tr.n_samples for tr in index.probe_traces}) > 1
        for tpl in templates:
            space = default_bounds(tpl, ds)
            # the reference: instantiate each valuation, score each probe trace alone
            vals = index.valuations(space)
            mat = np.empty((len(index.probe_traces), len(vals)))
            for j, v in enumerate(vals):
                phi = instantiate(tpl, v, validate=False)
                for i, tr in enumerate(index.probe_traces):
                    mat[i, j] = robustness(phi, tr, 0.0)
            q = np.round(np.clip(mat, -BIG, BIG) / cfg.quantum).astype(np.int64)
            assert index.fingerprint(tpl, space) == (space.dim, q.shape, q.tobytes()), str(tpl)


def test_check_and_insert_rejects_a_signal_the_dataset_lacks():
    ds = const_dataset()
    index = SignatureIndex(SignatureConfig(), ds)
    with pytest.raises(UnknownSignalError, match="'y'"):
        index.check_and_insert(parse_formula("x > $c and y > 3"), ds)
