import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (fd_check_sweep, fit_inputs, fit_steps, joint_loss, loss_terms,
                     naive_joint_loss, naive_update_attr_basis, naive_update_attr_embed,
                     naive_update_struct_context, naive_update_struct_embed,
                     rand_model, rand_network, rand_score_triplet, rand_scores,
                     random_orthogonal, reference_cd_sweep, reference_fit, residuals,
                     to_dense)
from oaembed import core, numerics
from oaembed.core import (FactorModel, HyperParams, OutlierScores, _final_embedding,
                          _loss_ratios, _score_weights, budget_scores, default_dim,
                          fit, update_alignment,
                          update_attr_basis, update_attr_embed, update_struct_context,
                          update_struct_embed)
from oaembed.errors import ConfigError, NumericError
from oaembed.evaluation import recall_at
from oaembed.network import AttributedNetwork
from oaembed.numerics import make_rng
from oaembed.seeding import SeedingPlan, seed_outliers, synth_network
from oaembed.tables import final_outlier_score, rank_nodes

INV_E = math.exp(-1.0)  # score with unit log-weight


def scalar_model(g, h, u, v, w=1.0):
    return FactorModel(struct_embed=np.array([[float(g)]]),
                       struct_context=np.array([[float(h)]]),
                       attr_embed=np.array([[float(u)]]),
                       attr_basis=np.array([[float(v)]]),
                       align=np.array([[float(w)]]))


# ---------------------------------------------------------------- losses


def same_scores(s):
    return OutlierScores(s, s, s)


def structure_model(g, h):
    k = g.shape[1]
    return FactorModel(g, h, np.zeros_like(g), np.zeros((k, 1)), np.eye(k))


def test_loss_structure_zero_residual():
    rng = make_rng(0)
    g = rng.normal(size=(4, 2))
    h = rng.normal(size=(2, 4))
    a = g @ h
    got = loss_terms(structure_model(g, h), same_scores(rand_scores(rng, 4)), adj=a)[0]
    # the sparse Gram form cancels ||A_i||^2 against the fit to rounding
    assert got == pytest.approx(0.0, abs=1e-15 * (a ** 2).sum())


def test_loss_structure_scalar():
    got = loss_terms(scalar_model(g=1.0, h=0.0, u=0.0, v=0.0),
                     same_scores(np.array([0.5])), adj=np.array([[1.0]]))[0]
    assert got == pytest.approx(math.log(2.0), rel=1e-12)


def test_loss_structure_score_one_mutes_node():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = structure_model(np.zeros((2, 1)), np.zeros((1, 2)))
    full = loss_terms(model, same_scores(np.array([0.5, 0.5])), adj=a)[0]
    muted = loss_terms(model, same_scores(np.array([1.0, 0.5])), adj=a)[0]
    assert muted == pytest.approx(full / 2.0, rel=1e-12)


def test_loss_structure_suppression_direction():
    a = np.array([[2.0]])
    model = scalar_model(g=1.0, h=0.0, u=0.0, v=0.0)
    losses = [loss_terms(model, same_scores(np.array([s])), adj=a)[0]
              for s in (0.2, 0.5, 0.9, 1.0)]
    assert all(x > y for x, y in zip(losses, losses[1:]))
    assert losses[-1] == 0.0


def test_loss_attribute_scalar_and_uniform():
    model = FactorModel(np.zeros((1, 1)), np.zeros((1, 1)), np.array([[1.0]]),
                        np.array([[0.0, 0.0]]), np.eye(1))
    got = loss_terms(model, same_scores(np.array([0.5])), attrs=np.array([[1.0, 1.0]]))[1]
    assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    rng = make_rng(1)
    c = rng.uniform(0.0, 2.0, size=(5, 3))
    u = rng.normal(size=(5, 2))
    v = rng.normal(size=(2, 3))
    frob = float(((c - u @ v) ** 2).sum())
    model = FactorModel(np.zeros((5, 2)), np.zeros((2, 5)), u, v, np.eye(2))
    got = loss_terms(model, same_scores(np.full(5, 0.2)), attrs=c)[1]
    assert got == pytest.approx(math.log(5.0) * frob, rel=1e-12)


def test_loss_disagreement_zero_cases_and_scalar():
    rng = make_rng(2)
    u = rng.normal(size=(4, 3))
    r = random_orthogonal(rng, 3)
    o = same_scores(rand_scores(rng, 4))
    rotated = FactorModel(u @ r.T, np.zeros((3, 4)), u, np.zeros((3, 1)), r)
    assert loss_terms(rotated, o)[2] == pytest.approx(0.0, abs=1e-18)
    equal = FactorModel(u, np.zeros((3, 4)), u, np.zeros((3, 1)), np.eye(3))
    assert loss_terms(equal, o)[2] == pytest.approx(0.0, abs=1e-18)
    got = loss_terms(scalar_model(g=2.0, h=0.0, u=1.0, v=0.0, w=1.0),
                     same_scores(np.array([0.5])))[2]
    assert got == pytest.approx(math.log(2.0), rel=1e-12)


def test_loss_joint_matches_naive_oracle():
    rng = make_rng(3)
    net = rand_network(rng, 7, 5)
    model = rand_model(rng, 7, 3, 5)
    scores = rand_score_triplet(rng, 7)
    want = naive_joint_loss(net, model, scores, 0.7, 2.3)
    assert joint_loss(net, model, scores, 0.7, 2.3) == pytest.approx(want, rel=1e-9)


def test_loss_joint_additivity():
    rng = make_rng(4)
    net = rand_network(rng, 6, 4)
    model = rand_model(rng, 6, 2, 4)
    scores = rand_score_triplet(rng, 6)
    parts = sum(loss_terms(model, scores, net.adjacency, net.attributes))
    assert joint_loss(net, model, scores, 1.0, 1.0) == pytest.approx(parts, rel=1e-12)


# ------------------------------------------------------------ calibration


def crafted_terms(l_str, l_attr, l_dis):
    """Loss terms of an N=1 instance whose three unit-weight terms are the
    given values, by the path fit runs."""
    a = sp.csr_matrix(np.array([[math.sqrt(l_str)]]))
    c = np.array([[math.sqrt(l_attr)]])
    net = AttributedNetwork(adjacency=a, attributes=c)
    model = scalar_model(g=1.0, h=0.0, u=1.0 - math.sqrt(l_dis), v=0.0, w=1.0)
    scores = OutlierScores(np.array([INV_E]), np.array([INV_E]), np.array([INV_E]))
    return loss_terms(model, scores, net.adjacency, net.attributes)


def test_calibrate_ratio_arithmetic():
    alpha, beta, note = _loss_ratios(*crafted_terms(10.0, 5.0, 2.0))
    assert alpha == pytest.approx(2.0, rel=1e-12)
    assert beta == pytest.approx(5.0, rel=1e-12)
    assert note is None


def test_calibrate_equal_terms():
    alpha, beta, _ = _loss_ratios(*crafted_terms(2.0, 2.0, 2.0))
    assert alpha == pytest.approx(1.0, rel=1e-12)
    assert beta == pytest.approx(1.0, rel=1e-12)


def test_calibrate_zero_term_falls_back():
    alpha, beta, note = _loss_ratios(*crafted_terms(10.0, 0.0, 2.0))
    assert (alpha, beta) == (1.0, 1.0)
    assert note.startswith("degenerate initial losses (structure=")
    assert note.endswith("falling back to weights (1, 1)")


def test_calibrated_terms_agree():
    rng = make_rng(6)
    net = rand_network(rng, 9, 6)
    model = rand_model(rng, 9, 3, 6)
    scores = rand_score_triplet(rng, 9)
    l_str, l_attr, l_dis = loss_terms(model, scores, net.adjacency, net.attributes)
    alpha, beta, _ = _loss_ratios(l_str, l_attr, l_dis)
    assert alpha * l_attr == pytest.approx(l_str, rel=1e-9)
    assert beta * l_dis == pytest.approx(l_str, rel=1e-9)


# ---------------------------------------------------------- factor updates


def unit_scores():
    return OutlierScores(np.array([INV_E]), np.array([INV_E]), np.array([INV_E]))


def test_update_struct_embed_scalar():
    model = scalar_model(g=0.0, h=1.0, u=1.0, v=0.0)
    x = fit_inputs(model, adj=[[2.0]])
    got = update_struct_embed(model, _score_weights(unit_scores()), 1.0, x.ah, x.hh, {})
    assert got[0, 0] == pytest.approx(1.5, rel=1e-12)


def test_update_struct_embed_pure_least_squares_limit():
    rng = make_rng(7)
    n = 5
    a = np.abs(rng.normal(size=(n, n)))
    a = a + a.T
    model = FactorModel(struct_embed=rng.normal(size=(n, n)),
                        struct_context=np.eye(n),
                        attr_embed=rng.normal(size=(n, n)),
                        attr_basis=rng.normal(size=(n, n)),
                        align=np.eye(n))
    scores = rand_score_triplet(rng, n)
    x = fit_inputs(model, adj=a)
    got = update_struct_embed(model, _score_weights(scores), 1e-12, x.ah, x.hh, {})
    assert np.allclose(got, a, atol=1e-8)


def test_update_struct_context_single_node():
    model = scalar_model(g=1.0, h=7.0, u=0.0, v=0.0)
    got = update_struct_context(sp.csr_matrix([[3.0]]).T, model, _score_weights(unit_scores()), {})
    assert got[0, 0] == pytest.approx(3.0, rel=1e-12)


def test_update_struct_context_zero_column_guard():
    rng = make_rng(8)
    model = rand_model(rng, 4, 2, 3)
    model.struct_embed[:, 1] = 0.0
    scores = rand_score_triplet(rng, 4)
    diag = {}
    got = update_struct_context(sp.csr_matrix(np.ones((4, 4))).T, model, _score_weights(scores),
                                diag)
    assert np.array_equal(got[1], model.struct_context[1])  # untouched row
    assert diag["struct_context"] == 4
    assert not np.array_equal(got[0], model.struct_context[0])


def test_update_attr_embed_scalar():
    model = scalar_model(g=4.0, h=0.0, u=0.0, v=1.0)
    x = fit_inputs(model, attrs=[[2.0]])
    got = update_attr_embed(model, _score_weights(unit_scores()), 1.0, 1.0, x.cv, x.vv, {})
    assert got[0, 0] == pytest.approx(3.0, rel=1e-12)


def test_update_attr_embed_attribute_only_limit():
    rng = make_rng(9)
    n = 4
    c = np.abs(rng.normal(size=(n, n)))
    model = FactorModel(struct_embed=rng.normal(size=(n, n)),
                        struct_context=rng.normal(size=(n, n)),
                        attr_embed=rng.normal(size=(n, n)),
                        attr_basis=np.eye(n),
                        align=np.eye(n))
    scores = rand_score_triplet(rng, n)
    x = fit_inputs(model, attrs=c)
    got = update_attr_embed(model, _score_weights(scores), 1.0, 1e-12, x.cv, x.vv, {})
    assert np.allclose(got, c, atol=1e-8)


def test_update_attr_basis_single_node():
    model = scalar_model(g=0.0, h=0.0, u=1.0, v=-3.0)
    got = update_attr_basis(sp.csr_matrix([[5.0]]).T, model, _score_weights(unit_scores()), {})
    assert got[0, 0] == pytest.approx(5.0, rel=1e-12)


def test_update_attr_basis_zero_column_guard():
    rng = make_rng(10)
    model = rand_model(rng, 4, 2, 3)
    model.attr_embed[:, 0] = 0.0
    diag = {}
    got = update_attr_basis(sp.csr_matrix(np.ones((4, 3))).T, model,
                            _score_weights(rand_score_triplet(rng, 4)), diag)
    assert np.array_equal(got[0], model.attr_basis[0])
    assert diag["attr_basis"] == 3


def test_update_struct_embed_degenerate_weights_guard():
    # both log-weights vanish when the scores are exactly 1
    model = scalar_model(g=0.7, h=1.0, u=1.0, v=0.0)
    ones = OutlierScores(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    diag = {}
    x = fit_inputs(model, adj=[[2.0]])
    got = update_struct_embed(model, _score_weights(ones), 1.0, x.ah, x.hh, diag)
    assert got[0, 0] == 0.7
    assert diag["struct_embed"] == 1


def test_update_attr_embed_degenerate_weights_guard():
    model = scalar_model(g=1.0, h=0.0, u=0.7, v=1.0)
    ones = OutlierScores(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    diag = {}
    x = fit_inputs(model, attrs=[[2.0]])
    got = update_attr_embed(model, _score_weights(ones), 1.0, 1.0, x.cv, x.vv, diag)
    assert got[0, 0] == 0.7
    assert diag["attr_embed"] == 1


@pytest.mark.parametrize("skew", [0.0, 0.3], ids=["orthonormal-align", "skewed-align"])
def test_updates_match_naive_gauss_seidel(skew):
    rng = make_rng(11)
    net = rand_network(rng, 7, 5)
    model = rand_model(rng, 7, 3, 5)
    scores = rand_score_triplet(rng, 7)
    # a skewed align has W^T W != I, exercising the general Gram path
    model.align = model.align + skew * rng.normal(size=(3, 3))

    x = fit_inputs(model, net.adjacency, net.attributes)
    weights = _score_weights(scores)

    got = update_struct_embed(model, weights, 1.7, x.ah, x.hh, {})
    want = naive_update_struct_embed(net.adjacency, model, scores, 1.7)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    got = update_struct_context(x.adj_t, model, weights, {})
    want = naive_update_struct_context(net.adjacency, model, scores)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    got = update_attr_embed(model, weights, 0.8, 1.7, x.cv, x.vv, {})
    want = naive_update_attr_embed(net.attributes, model, scores, 0.8, 1.7)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    got = update_attr_basis(x.attrs_t, model, weights, {})
    want = naive_update_attr_basis(net.attributes, model, scores)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_updates_are_coordinatewise_optimal():
    rng = make_rng(12)
    net = rand_network(rng, 10, 6)
    model = rand_model(rng, 10, 3, 6)
    scores = rand_score_triplet(rng, 10)
    assert fd_check_sweep(net, model, scores, 1.4, 0.6, rng, 24) >= -1e-10


def _sweep_terms(rng, m, k, n_terms, zero_rows):
    """Random (weights, cross, Gram) terms; the last Gram is the identity, as
    in the alignment term of the G sweep, and zero_rows rows weigh 0 in every
    term, so their coordinates are skipped."""
    terms = []
    for t in range(n_terms):
        a = rng.uniform(0.1, 2.0, size=m)
        a[:zero_rows] = 0.0
        b = rng.normal(size=(k, k + 3))
        gram = np.eye(k) if t == n_terms - 1 and n_terms > 1 else b @ b.T
        terms.append((a, rng.normal(size=(m, k)), gram))
    return terms


def test_handed_on_kernels_take_no_defaulted_parameters():
    # each input fit hands on has one source: a kernel that could form it
    # itself when the argument is left out would be a second one
    kernels = (update_struct_embed, update_struct_context, update_attr_embed,
               update_attr_basis, update_alignment, core._residuals, core._loss_terms,
               core._cd_sweep, numerics.nmf_init, numerics.row_sq_residuals)
    defaulted = [f"{fn.__module__}.{fn.__name__}({name})" for fn in kernels
                 for name, param in inspect.signature(fn).parameters.items()
                 if param.default is not inspect.Parameter.empty]
    assert defaulted == []


@pytest.mark.parametrize("m, k, n_terms, zero_rows", [
    (30, 4, 2, 0), (30, 4, 2, 3), (25, 5, 1, 0), (25, 5, 1, 2), (12, 1, 2, 0), (12, 1, 1, 1),
    (40, 12, 2, 0)])
def test_cd_sweep_matches_the_kernel_without_zero_gram_skips(m, k, n_terms, zero_rows):
    # dropping a term whose off-diagonal Gram is all zeros, and the masks when
    # nothing is skipped, must change no bit of the sweep or its skip count
    rng = make_rng(100 + m + k)
    x = rng.normal(size=(m, k))
    terms = _sweep_terms(rng, m, k, n_terms, zero_rows)
    got_diag, want_diag = {}, {}
    got = core._cd_sweep(x, terms, got_diag, "x")
    want = reference_cd_sweep(x, terms, want_diag, "x")
    assert np.array_equal(got, want)
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got_diag == want_diag == ({"x": zero_rows * k} if zero_rows else {})


@pytest.mark.parametrize("m", [1, 7, 50, 300])
def test_cd_sweep_scalar_weight_is_a_column_of_ones(m):
    # the H and V sweeps pass the scalar 1.0: it must give the bits and the
    # skip count of unit row weights, here with a zero Gram row and column
    # (one coordinate skipped in every row)
    rng = make_rng(200 + m)
    k = 5
    x, cross = rng.normal(size=(m, k)), rng.normal(size=(m, k))
    b = rng.normal(size=(k, k + 3))
    b[2] = 0.0
    gram = b @ b.T
    got_diag, want_diag = {}, {}
    got = core._cd_sweep(x, ((1.0, cross, gram),), got_diag, "x")
    want = core._cd_sweep(x, ((np.ones(m), cross, gram),), want_diag, "x")
    assert got.tobytes() == want.tobytes()
    assert got_diag == want_diag == {"x": m}


# ------------------------------------------------------------- alignment


def test_alignment_identity_when_embeddings_agree():
    rng = make_rng(13)
    g = rng.normal(size=(8, 3))
    model = FactorModel(g, np.zeros((3, 8)), g.copy(), np.zeros((3, 4)), np.eye(3))
    scores = OutlierScores(rand_scores(rng, 8), rand_scores(rng, 8), np.full(8, 1 / 8))
    got = update_alignment(model, _score_weights(scores))
    assert np.allclose(got, np.eye(3), atol=1e-9)


def test_alignment_recovers_rotation():
    rng = make_rng(14)
    g = rng.normal(size=(10, 3))
    r = random_orthogonal(rng, 3)
    model = FactorModel(g, np.zeros((3, 10)), g @ r, np.zeros((3, 4)), np.eye(3))
    scores = OutlierScores(rand_scores(rng, 10), rand_scores(rng, 10), np.full(10, 0.1))
    got = update_alignment(model, _score_weights(scores))
    assert np.abs(got - r).max() < 1e-8
    assert loss_terms(replace(model, align=got), scores)[2] < 1e-16


def test_alignment_beats_random_orthogonals_and_previous():
    rng = make_rng(15)
    model = rand_model(rng, 12, 4, 5)
    scores = rand_score_triplet(rng, 12)
    got = update_alignment(model, _score_weights(scores))
    assert np.abs(got.T @ got - np.eye(4)).max() < 1e-8

    def disagreement(w):
        return loss_terms(replace(model, align=w), scores)[2]

    best = disagreement(got)
    prev = disagreement(model.align)
    assert best <= prev + 1e-12 * max(1.0, prev)
    for _ in range(200):
        other = disagreement(random_orthogonal(rng, 4))
        assert best <= other + 1e-12 * max(1.0, other)


# ----------------------------------------------------------- score updates


def test_budget_scores_proportional_split():
    assert np.allclose(budget_scores(np.array([1.0, 3.0]), 1.0, 1e-8), [0.25, 0.75])


def test_budget_scores_equal_residuals_uniform():
    got = budget_scores(np.full(5, 2.7), 1.0, 1e-8)
    assert np.allclose(got, 0.2, atol=1e-15)


def test_budget_scores_zero_residual_pinned_at_floor():
    got = budget_scores(np.array([0.0, 5.0, 5.0]), 1.0, 1e-8)
    assert got[0] == 1e-8
    assert np.allclose(got[1:], (1.0 - 1e-8) / 2.0, rtol=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_budget_scores_all_zero_residuals_warns_uniform():
    with pytest.warns(UserWarning):
        got = budget_scores(np.zeros(4), 1.0, 1e-8)
    assert np.allclose(got, 0.25)


def test_budget_scores_budget_above_one_raises():
    # scores sum to at most 1, so none can need the cap at 1
    for r, budget in (([3.0, 0.0], 1.5), ([2.0, 1.0, 1.0], 3.0), ([1.0], 1.0 + 1e-12)):
        with pytest.raises(ValueError, match="budget"):
            budget_scores(np.array(r), budget, 1e-8)


def test_budget_scores_at_the_lowest_budget():
    # at budget N * floor every score is the floor; an ulp above it, rounding
    # can floor all of N tied residuals, which must not divide by zero
    floor = 1e-8
    for r in ([3.0, 1.0, 0.0], [3.0, 1.0, 0.0, 2.0, 2.0, 5.0], [1.0] * 5):
        assert budget_scores(np.array(r), len(r) * floor, floor).tolist() == [floor] * len(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = budget_scores(np.ones(5), float(np.nextafter(5 * floor, 1.0)), floor)
    assert np.allclose(s, floor, rtol=1e-15)


def test_budget_scores_minimizes_objective_locally():
    r = np.array([1.0, 3.0])
    s = budget_scores(r, 1.0, 1e-8)

    def obj(s0):
        return r[0] * math.log(1 / s0) + r[1] * math.log(1 / (1 - s0))

    assert obj(s[0]) <= obj(s[0] + 0.01) and obj(s[0]) <= obj(s[0] - 0.01)


def test_budget_scores_kkt_conditions():
    rng = make_rng(16)
    r = np.exp(rng.normal(scale=2.0, size=40))
    r[::9] = 0.0
    floor = 1e-8
    for budget in (0.5, 1.0):
        s = budget_scores(r, budget, floor)
        assert s.sum() == pytest.approx(budget, abs=1e-9 * max(1.0, budget))
        assert (s >= floor).all() and (s <= 1.0).all()
        free = (s > floor * (1 + 1e-9)) & (s < 1.0 - 1e-12) & (r > 0)
        if free.any():
            lam = np.median(r[free] / s[free])
            assert np.allclose(r[free] / s[free], lam, rtol=1e-6)
            assert (r[s >= 1.0 - 1e-12] >= lam * (1 - 1e-6)).all()
            at_floor = (s <= floor * (1 + 1e-9)) & (r > 0)
            assert (r[at_floor] <= lam * floor * (1 + 1e-6)).all()


def test_budget_scores_huge_residual_stays_on_budget():
    # r / floor overflows for these residuals; the scores must still be feasible
    for r in ([1e301, 1.0, 2.0], [1e300, 1e-10, 3.0, 0.0], [1.5e308, 1.5e308, 1.0]):
        s = budget_scores(np.array(r), 1.0, 1e-8)
        assert s.sum() == pytest.approx(1.0, abs=1e-9)
        assert (s >= 1e-8).all() and (s <= 1.0).all()


def test_budget_scores_tiny_budget_over_huge_residuals_stays_on_budget():
    # the free scale budget / sum(r) would be subnormal for these residuals
    # unless the shift brings them near 1; the first two sums were off by
    # 1.6e-8 and 1.5e-8 of the budget
    for r, budget, floor in (([1e308, 1e308], 3e-9, 1e-9),
                             ([1e308, 1e308, 1e308], 4e-9, 1e-9),
                             ([1e308] * 5 + [0.0], 1e-7, 1e-8),
                             ([1.7e308, 1e300, 1e308], 1e-7, 1e-8)):
        s = budget_scores(np.array(r), budget, floor)
        assert abs(s.sum() - budget) <= 1e-12 * budget
        assert (s >= floor).all()
    assert budget_scores(np.array([1e308, 1e308]), 3e-9, 1e-9).tolist() == [1.5e-9, 1.5e-9]


def test_budget_scores_input_errors():
    with pytest.raises(ValueError):
        budget_scores(np.array([1.0, -1.0]), 1.0, 1e-8)
    with pytest.raises(ValueError):
        budget_scores(np.array([np.inf, 1.0]), 1.0, 1e-8)
    with pytest.raises(ValueError):
        budget_scores(np.empty(0), 1.0, 1e-8)
    with pytest.raises(ValueError):
        budget_scores(np.ones(3), 4.0, 1e-8)   # budget > 1
    with pytest.raises(ValueError):
        budget_scores(np.ones(3), 1e-9, 1e-8)  # budget < n * floor


@st.composite
def score_problems(draw):
    """(residuals, budget): N in 1..60 residuals drawn from a few values, so
    exact ties are common, among zero and magnitudes 1e-323..1e308 (subnormal
    ones included); a budget in [N * 1e-8, 1], often exactly 1."""
    n = draw(st.integers(1, 60))
    pool = [0.0, *draw(st.lists(st.floats(-323, 308).map(lambda e: 10.0 ** e),
                                 min_size=1, max_size=6))]
    r = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    budget = draw(st.one_of(st.just(1.0), st.floats(n * 1e-8, 1.0)))
    return r, budget


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(score_problems())
def test_budget_scores_properties(problem):
    r, budget = problem
    floor = 1e-8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = budget_scores(r, budget, floor)
    assert bool(caught) == (not r.any())  # the uniform split warns, nothing else does
    if r.size == 1:
        assert s.tolist() == [budget]
    assert abs(s.sum() - budget) <= 1e-9 * budget
    assert (s >= floor).all() and (s <= 1.0).all()
    if r.size >= 2 and budget == 1.0:
        assert (s < 1.0).all()
    free = s > floor * (1 + 1e-9)
    if r.any() and free.any():  # at budget N * floor every score is the floor
        # KKT on r / max(r), so the ratios cannot overflow: free scores share
        # one ratio lam, and floored scores have r <= floor * lam
        q = r / r.max()
        lam = np.median(q[free] / s[free])
        assert np.allclose(q[free] / s[free], lam, rtol=1e-6)
        assert (q[~free] <= lam * floor * (1 + 1e-6)).all()


def test_budget_scores_split_tiny_residuals_in_proportion():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = budget_scores(np.array([3e-301, 1e-301, 0.0]), 1.0, 1e-8)
    assert s[2] == 1e-8
    assert s[0] == pytest.approx(3 * s[1], rel=1e-12)
    assert s.sum() == pytest.approx(1.0, abs=1e-15)


def test_residuals_match_dense_oracles():
    rng = make_rng(17)
    net = rand_network(rng, 6, 4)
    model = rand_model(rng, 6, 2, 4)
    res = residuals(model, net.adjacency, net.attributes)
    a = net.adjacency.toarray()
    r1 = ((a - model.struct_embed @ model.struct_context) ** 2).sum(axis=1)
    want = budget_scores(r1, 1.0, 1e-8)
    got = budget_scores(res[0], 1.0, 1e-8)
    assert np.allclose(got, want, rtol=1e-12)

    r2 = ((to_dense(net.attributes) - model.attr_embed @ model.attr_basis) ** 2).sum(axis=1)
    got = budget_scores(res[1], 1.0, 1e-8)
    assert np.allclose(got, budget_scores(r2, 1.0, 1e-8), rtol=1e-12)

    r3 = ((model.struct_embed - model.attr_embed @ model.align.T) ** 2).sum(axis=1)
    got = budget_scores(res[2], 1.0, 1e-8)
    assert np.allclose(got, budget_scores(r3, 1.0, 1e-8), rtol=1e-12)


# --------------------------------------------------------- final outputs


def test_final_embedding_cases():
    rng = make_rng(18)
    u = rng.normal(size=(5, 2))
    r = random_orthogonal(rng, 2)
    model = FactorModel(u @ r.T, np.zeros((2, 5)), u, np.zeros((2, 3)), r)
    assert np.allclose(_final_embedding(model), u @ r.T, rtol=1e-12)

    g = rng.normal(size=(5, 2))
    model = FactorModel(g, np.zeros((2, 5)), np.zeros((5, 2)), np.zeros((2, 3)),
                        np.eye(2))
    assert np.allclose(_final_embedding(model), g / 2.0, rtol=1e-12)

    model = scalar_model(g=2.0, h=0.0, u=4.0, v=0.0)
    assert _final_embedding(model)[0, 0] == pytest.approx(3.0)


def columns(scores):
    """The N x 3 component-score array fit stores for the score vectors."""
    return np.column_stack([scores.structural, scores.attribute, scores.disagreement])


def test_final_outlier_score_cases():
    n = 4
    uniform = np.full((n, 3), 0.25)
    assert np.allclose(final_outlier_score(uniform, (1 / 3, 1 / 3, 1 / 3)), 0.25)

    rng = make_rng(19)
    triplet = rand_score_triplet(rng, n)
    scores = columns(triplet)
    assert np.array_equal(final_outlier_score(scores, (0.0, 1.0, 0.0)),
                          triplet.attribute)
    combined = final_outlier_score(scores, (0.25, 0.5, 0.25))
    assert combined.sum() == pytest.approx(1.0, abs=1e-9)

    with pytest.raises(ValueError):
        final_outlier_score(scores, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        final_outlier_score(scores, (-0.5, 1.0, 0.5))
    with pytest.raises(ValueError):
        final_outlier_score(scores, (math.nan, 0.5, 0.5))


def test_final_outlier_score_attribute_emphasis_changes_ranking():
    scores = columns(OutlierScores(structural=np.array([0.7, 0.3]),
                                   attribute=np.array([0.2, 0.8]),
                                   disagreement=np.array([0.7, 0.3])))
    equal = final_outlier_score(scores, (1 / 3, 1 / 3, 1 / 3))
    tilted = final_outlier_score(scores, (0.25, 0.5, 0.25))
    assert equal[0] > equal[1]      # node 0 leads when views count equally
    assert tilted[1] > tilted[0]    # attribute emphasis promotes node 1


# ------------------------------------------------------------------ fit


def test_hyperparams_validation():
    for kwargs in ({"dim": 0}, {"dim": 2, "attr_weight": 0.0},
                   {"dim": 2, "dis_weight": -1.0},
                   {"dim": 2, "iters": 0},
                   {"dim": 2, "combine_weights": (0.5, 0.5, 0.5)},
                   {"dim": 2, "combine_weights": (-0.1, 0.6, 0.5)},
                   {"dim": 2, "combine_weights": (math.nan, 0.5, 0.5)},
                   {"dim": 2, "init_passes": 0},
                   {"dim": 2, "attr_weight": math.inf},
                   {"dim": 2, "dis_weight": math.inf},
                   # bool used to pass as 1.0 and a string as a bare TypeError
                   {"dim": 2, "attr_weight": True},
                   {"dim": 2, "dis_weight": True},
                   {"dim": 2, "combine_weights": (True, False, False)},
                   {"dim": 2, "attr_weight": "1"},
                   {"dim": 2, "dis_weight": "1"},
                   {"dim": 2, "combine_weights": "abc"},
                   {"dim": 2, "combine_weights": ("0.25", 0.5, 0.25)},
                   {"dim": 2, "combine_weights": None},
                   {"dim": 2, "combine_weights": {0.2, 0.3, 0.5}}):
        with pytest.raises(ConfigError):
            HyperParams(**kwargs)
    assert HyperParams(dim=2, attr_weight=np.float64(0.5), dis_weight=2,
                       combine_weights=[np.float64(0.5), 0, 0.5]).attr_weight == 0.5


def test_hyperparams_refuses_the_old_init_iters_name():
    # init_iters counted updates per factor; an old setting must fail rather
    # than run three times the passes as init_passes
    with pytest.raises(TypeError, match="init_iters"):
        HyperParams(dim=2, init_iters=30)


@pytest.mark.parametrize("name", ["dim", "iters", "init_passes", "seed"])
@pytest.mark.parametrize("value", [2.5, 1.5, 2.0, True, "2", None])
def test_hyperparams_counts_must_be_integers(name, value):
    with pytest.raises(ConfigError, match=name):
        HyperParams(**{"dim": 2, name: value})
    hp = HyperParams(**{"dim": 2, name: np.int64(3)})  # numpy integers are kept
    assert getattr(hp, name) == 3


def test_fit_monotone_and_contract():
    rng = make_rng(20)
    net = rand_network(rng, 30, 12)
    hp = HyperParams(dim=4, seed=3)
    model, scores, result, diag = fit(net, hp)

    assert len(result.loss_trace) == hp.iters
    assert diag.initial_loss is not None
    trace = [diag.initial_loss, *result.loss_trace]
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-9 * abs(prev)

    for vec in (scores.structural, scores.attribute, scores.disagreement):
        assert vec.sum() == pytest.approx(1.0, abs=1e-9)
        assert (vec >= 1e-8).all() and (vec <= 1.0).all()
    assert np.abs(model.align.T @ model.align - np.eye(4)).max() < 1e-8
    assert np.array_equal(result.embedding, _final_embedding(model))
    assert np.array_equal(result.outlier_scores,
                          final_outlier_score(columns(scores), (0.25, 0.5, 0.25)))
    assert np.array_equal(result.component_scores[:, 1], scores.attribute)


class _Counted:
    """Tallies the matrix's products with dense matrices under tag."""

    tally: dict | None = None
    tag = ""

    def _note(self, key):
        if self.tally is not None:
            self.tally[key] = self.tally.get(key, 0) + 1

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and other.ndim == 2:
            self._note(self.tag)
        return super().__matmul__(other)


class _CountedCsc(_Counted, sp.csc_matrix):
    pass


class _CountedCsr(_Counted, sp.csr_matrix):
    """Its transpose tallies under tag + "T"."""

    def transpose(self, axes=None, copy=False):
        t = _CountedCsc(super().transpose(axes, copy))
        t.tally, t.tag = self.tally, self.tag + "T"
        return t


def test_fit_forms_each_sparse_product_once_per_round(monkeypatch):
    rng = make_rng(24)
    net = rand_network(rng, 40, 15)
    net.directed = True  # the path that forms A^T; an undirected A is its own
    tally = {}
    for name, tag in (("adjacency", "A"), ("attributes", "C")):
        counted = _CountedCsr(getattr(net, name))
        counted.tally, counted.tag = tally, tag
        setattr(net, name, counted)
    at_round_end = []
    solve = core._solve_scores

    def spy(r, budget, floor):  # fit solves three score vectors at the end of each round
        at_round_end.append(dict(tally))
        return solve(r, budget, floor)

    monkeypatch.setattr(core, "_solve_scores", spy)
    norms = core.row_sq_norms

    def count_norms(m):  # the row norms tally under tag + "*"
        m._note(m.tag + "*")
        return norms(m)

    monkeypatch.setattr(core, "row_sq_norms", count_norms)
    hp = HyperParams(dim=3, seed=1, init_passes=1, iters=3)
    _, _, result, _ = fit(net, hp)
    assert len(result.loss_trace) == 3

    ends = at_round_end[::3]
    assert len(ends) == hp.iters
    # one nmf_init pass (A^T P and A Q^T, which the initial residuals reuse), round 1
    assert ends[0] == {"A": 2, "AT": 2, "C": 2, "CT": 2, "A*": 1, "C*": 1}
    for before, after in zip(ends, ends[1:]):
        assert {k: after[k] - before[k] for k in after} == {
            "A": 1, "AT": 1, "C": 1, "CT": 1, "A*": 0, "C*": 0}
    assert tally == ends[-1]  # nothing after the last round's residuals


def test_fit_uses_an_undirected_adjacency_as_its_own_transpose(monkeypatch):
    # A is symmetric, so the products of A^T in the initialization and the H
    # sweeps are products of A, and no transpose of A is formed
    net = rand_network(make_rng(24), 40, 15)
    tally = {}
    for name, tag in (("adjacency", "A"), ("attributes", "C")):
        counted = _CountedCsr(getattr(net, name))
        counted.tally, counted.tag = tally, tag
        setattr(net, name, counted)
    at_round_end = []
    solve = core._solve_scores

    def spy(r, budget, floor):
        at_round_end.append(dict(tally))
        return solve(r, budget, floor)

    monkeypatch.setattr(core, "_solve_scores", spy)
    fit(net, HyperParams(dim=3, seed=1, iters=3))
    ends = at_round_end[::3]
    assert ends[0] == {"A": 4, "C": 2, "CT": 2}
    for before, after in zip(ends, ends[1:]):
        assert {k: after[k] - before[k] for k in after} == {"A": 2, "C": 1, "CT": 1}
    assert tally == ends[-1]


def test_default_rounds_detect_at_least_as_well_as_a_long_initialization():
    """With a strong attribute signal (attr_signal 0.9) detection quality
    follows the rounds, not how far the initialization converges: on
    sweep-small-shaped networks at its four widths, the defaults (one nmf_init
    pass, 15 rounds) find at least as many planted nodes as 67 passes and 5
    rounds (here 0.846 against 0.796 mean recall@25; at K = 9 alone these four
    networks tie). With a weak one (attr_signal 0.3) more passes help: on
    2000-node networks at K = 15, 10 passes and 10 rounds reach 0.55 mean
    recall@25 where 1 pass and 15 rounds reach 0.29 in the same fit time."""
    found = {"default": 0, "long-init": 0}
    for s in range(4):
        seeded = seed_outliers(synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=s),
                               SeedingPlan(total_fraction=0.05, seed=s))
        truth = seeded.outlier_ids
        for dim in (3, 6, 9, 12):
            for name, hp in (("default", HyperParams(dim=dim, seed=s)),
                             ("long-init", HyperParams(dim=dim, seed=s, init_passes=67,
                                                       iters=5))):
                _, _, result, _ = fit(seeded.network, hp)
                recall = recall_at(rank_nodes(result.outlier_scores), truth, 25)
                found[name] += round(recall * len(truth))
    assert found["default"] >= found["long-init"]


def test_fit_deterministic():
    rng = make_rng(21)
    net = rand_network(rng, 15, 8)
    hp = HyperParams(dim=3, seed=9)
    m1, s1, r1, _ = fit(net, hp)
    m2, s2, r2, _ = fit(net, hp)
    assert np.array_equal(m1.struct_embed, m2.struct_embed)
    assert np.array_equal(m1.align, m2.align)
    assert np.array_equal(s1.attribute, s2.attribute)
    assert np.array_equal(r1.embedding, r2.embedding)
    assert r1.loss_trace == r2.loss_trace


def test_fit_single_node():
    net = AttributedNetwork(adjacency=sp.csr_matrix((1, 1)),
                            attributes=np.array([[1.0, 2.0]]))
    _model, _scores, result, _diag = fit(net, HyperParams(dim=1))
    assert result.loss_trace[-1] == pytest.approx(0.0, abs=1e-12)


def test_fit_records_one_loss_per_round():
    rng = make_rng(22)
    net = rand_network(rng, 12, 6)
    for iters in (1, 2, 7):
        _, _, result, diag = fit(net, HyperParams(dim=2, iters=iters))
        assert len(result.loss_trace) == iters
        trace = [diag.initial_loss, *result.loss_trace]
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9 * abs(prev)


@pytest.mark.parametrize("iters", [1, 3])
def test_fit_updates_the_alignment_once_per_round(monkeypatch, iters):
    # the alignment for calibration serves round 1, whose scores are still uniform
    calls = []
    monkeypatch.setattr("oaembed.core.update_alignment",
                        lambda *a: calls.append(1) or update_alignment(*a))
    net = rand_network(make_rng(23), 12, 6)
    fit(net, HyperParams(dim=2, iters=iters))
    assert len(calls) == iters


class _TransposeCounted(sp.csr_matrix):
    """Counts the transposes built of it."""

    transposes = 0

    def transpose(self, axes=None, copy=False):
        self.transposes += 1
        return super().transpose(axes, copy)


def test_fit_forms_score_weights_once_per_round_and_transposes_once(monkeypatch):
    # the three log(1/score) vectors of each new OutlierScores serve every
    # update and the loss; A^T and C^T serve the initialization and all rounds
    net = rand_network(make_rng(26), 40, 15)
    net.directed = True  # the path that forms A^T; an undirected A is its own
    net.adjacency, net.attributes = (_TransposeCounted(net.adjacency),
                                     _TransposeCounted(net.attributes))
    weighed = []
    score_weights = core._score_weights
    monkeypatch.setattr(core, "_score_weights",
                        lambda *a: weighed.append(1) or score_weights(*a))
    at_round_end = []
    solve = core._solve_scores

    def spy(r, budget, floor):
        at_round_end.append(len(weighed))
        return solve(r, budget, floor)

    monkeypatch.setattr(core, "_solve_scores", spy)
    hp = HyperParams(dim=3, seed=1, iters=4)
    fit(net, hp)
    ends = at_round_end[::3]
    assert ends == list(range(1, hp.iters + 1))  # the uniform start's, then each round's
    assert len(weighed) == hp.iters + 1
    assert (net.adjacency.transposes, net.attributes.transposes) == (1, 1)


def test_fit_hands_each_gram_from_the_residual_pass_to_the_next_sweep(monkeypatch):
    # H H^T and V V^T are formed once per change of H and V: the Gram that a
    # residual pass reads is the object the next round's G or U sweep reads,
    # and it is the current factor's Gram, bit for bit; the initial pass reads
    # the product and Gram that nmf_init returned
    net = _directed_network(make_rng(27), 30, 12)
    models, reads = [], {"H": [], "V": []}  # per Gram: (reader, gram, is it exact)
    inits, products = [], {"H": [], "V": []}
    nmf_init = core.nmf_init
    monkeypatch.setattr(core, "nmf_init", lambda *a: inits.append(nmf_init(*a)) or inits[-1])

    def exact(gram, factor):
        return gram.tobytes() == (factor @ factor.T).tobytes()

    align = core.update_alignment
    monkeypatch.setattr(core, "update_alignment",
                        lambda model, weights: models.append(model) or align(model, weights))
    residual_pass = core.row_sq_residuals

    def pass_spy(p, qq, norms, mq):
        model = models[0]  # fit updates its one model in place
        which, factor = (("H", model.struct_context) if p is model.struct_embed
                         else ("V", model.attr_basis))
        reads[which].append(("pass", qq, exact(qq, factor)))
        products[which].append(mq)
        return residual_pass(p, qq, norms, mq)

    struct_sweep, attr_sweep = core.update_struct_embed, core.update_attr_embed

    def struct_spy(model, weights, dis_weight, ah, hh, diag):
        reads["H"].append(("sweep", hh, exact(hh, model.struct_context)))
        return struct_sweep(model, weights, dis_weight, ah, hh, diag)

    def attr_spy(model, weights, attr_weight, dis_weight, cv, vv, diag):
        reads["V"].append(("sweep", vv, exact(vv, model.attr_basis)))
        return attr_sweep(model, weights, attr_weight, dis_weight, cv, vv, diag)

    monkeypatch.setattr(core, "row_sq_residuals", pass_spy)
    monkeypatch.setattr(core, "update_struct_embed", struct_spy)
    monkeypatch.setattr(core, "update_attr_embed", attr_spy)
    hp = HyperParams(dim=4, seed=1, iters=3)
    fit(net, hp)
    for seen in reads.values():
        # the initial pass, then each round's sweep and pass
        assert [reader for reader, _, _ in seen] == ["pass"] + ["sweep", "pass"] * hp.iters
        assert all(ok for _, _, ok in seen)
        for (_, handed, _), (_, read, _) in zip(seen[::2], seen[1::2]):
            assert read is handed
    for (_, _, mq, qq), which in zip(inits, ("H", "V")):
        assert products[which][0] is mq and reads[which][0][1] is qq


def _directed_network(rng, n, d):
    """Directed, weighted, with a self-loop on every third node."""
    adj = sp.random(n, n, density=0.15, random_state=rng, format="lil",
                    data_rvs=lambda size: rng.uniform(0.5, 3.0, size))
    for i in range(0, n, 3):
        adj[i, i] = 2.0
    attrs = sp.random(n, d, density=0.4, random_state=rng, format="csr",
                      data_rvs=lambda size: rng.uniform(0.2, 2.0, size))
    return AttributedNetwork(adjacency=adj.tocsr(), attributes=attrs, directed=True)


def _undirected_weighted_network(rng, n, d):
    """Undirected, weighted, with a self-loop on every third node."""
    upper = sp.triu(sp.random(n, n, density=0.15, random_state=rng, format="csr",
                              data_rvs=lambda size: rng.uniform(0.5, 3.0, size)), k=1)
    loops = sp.diags(np.where(np.arange(n) % 3 == 0, 2.0, 0.0))
    adj = (upper + upper.T + loops).tocsr()
    attrs = sp.random(n, d, density=0.4, random_state=rng, format="csr",
                      data_rvs=lambda size: rng.uniform(0.2, 2.0, size))
    return AttributedNetwork(adjacency=adj, attributes=attrs)


def _isolated_network(rng, n, d):
    """Node 0 has no edges and no attributes; the only edge is the last
    node's self-loop. At n = 5, d = 4, K = 2, fit seed 1 and attr_weight and
    dis_weight 1e-14 every round skips all attr_embed coordinates."""
    adj = sp.csr_matrix(([1.0], ([n - 1], [n - 1])), shape=(n, n))
    attrs = rng.uniform(0.5, 1.5, size=(n, d))
    attrs[0] = 0.0
    return AttributedNetwork(adjacency=adj, attributes=attrs)


def _sweep_small_input():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=0)
    return seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=0)).network


@pytest.mark.parametrize("build, dim, weight", [
    (lambda: _directed_network(make_rng(27), 30, 12), 4, None),
    (lambda: _undirected_weighted_network(make_rng(30), 30, 12), 4, None),
    (lambda: _isolated_network(make_rng(28), 5, 4), 2, 1e-14),
    (lambda: rand_network(make_rng(29), 14, 6), 6, None),  # K = min(N, D)
    (_sweep_small_input, 3, None),
    (_sweep_small_input, 12, None),
], ids=["directed-weighted-self-loops", "undirected-weighted-self-loops",
        "isolated-node-empty-row", "k-min-n-d",
        "sweep-small-k3", "sweep-small-k12"])
def test_fit_matches_the_plain_update_calls(build, dim, weight):
    # fit hands on the score weights, the transposes, A H^T, C V^T and the row
    # norms; the update calls forming each of them afresh give the same bits
    net = build()
    hp = HyperParams(dim=dim, seed=1, attr_weight=weight, dis_weight=weight)
    model, _, result, diag = fit(net, hp)
    ref_model, ref_scores, ref_trace = reference_fit(net, hp)
    assert np.array_equal(result.embedding, _final_embedding(ref_model))
    assert np.array_equal(result.component_scores, columns(ref_scores))
    assert result.loss_trace == ref_trace
    assert np.array_equal(model.align, ref_model.align)
    if net.attributes[0].nnz == 0:
        assert diag.skipped["attr_embed"] > 0


@pytest.mark.parametrize("name", ["loss_tol", "score_floor"])
def test_hyperparams_has_no_stop_rule_or_floor_option(name):
    with pytest.raises(TypeError):
        HyperParams(dim=2, **{name: 1e-4})


def test_fit_zero_adjacency_falls_back_with_note():
    rng = make_rng(23)
    net = AttributedNetwork(adjacency=sp.csr_matrix((6, 6)),
                            attributes=rng.uniform(0.1, 1.0, size=(6, 4)))
    _, _, result, diag = fit(net, HyperParams(dim=2))
    assert any("degenerate initial losses" in note for note in diag.notes)
    assert all(np.isfinite(v) for v in result.loss_trace)


def test_fit_zero_attributes_fall_back_to_uniform_scores_with_notes():
    # C = 0 is a documented fallback: its initial factors and residuals are
    # exactly 0, so the calibration takes weights (1, 1) and every round's
    # attribute scores are the uniform split, each with a note naming them
    rng = make_rng(26)
    net = AttributedNetwork(adjacency=rand_network(rng, 6, 4).adjacency,
                            attributes=sp.csr_matrix((6, 4)))
    hp = HyperParams(dim=2, iters=4)
    model, scores, result, diag = fit(net, hp)
    for out in (*vars(model).values(), result.embedding, result.outlier_scores,
                result.component_scores, result.loss_trace):
        assert np.isfinite(out).all()
    assert sum("degenerate initial losses" in note for note in diag.notes) == 1
    assert scores.attribute.tolist() == [1.0 / 6] * 6
    assert [note for note in diag.notes if "residuals are all zero" in note] == [
        f"round {r}: attribute residuals are all zero; uniform scores"
        for r in range(1, hp.iters + 1)]
    trace = [diag.initial_loss, *result.loss_trace]
    assert all(after <= before for before, after in zip(trace, trace[1:]))


def _sweep_input(t):
    """Input t of a seeded sweep of small fits (generator seed 12345): N in
    3..39, D in 2..29, K in 1..min(N, D), a 0/1 undirected adjacency, random
    attributes and, in about 15 % of the inputs, an all-zero attribute matrix."""
    rng = np.random.default_rng(12345)
    for _ in range(t + 1):
        n, d = int(rng.integers(3, 40)), int(rng.integers(2, 30))
        k = int(rng.integers(1, min(n, d) + 1))
        a = np.triu((rng.random((n, n)) < rng.random() * 0.5).astype(float), 1)
        c = (rng.random((n, d)) < rng.random() * 0.6) * rng.random((n, d))
        if rng.random() < 0.15:
            c[:] = 0
    net = AttributedNetwork(adjacency=a + a.T, attributes=c)
    return net, HyperParams(dim=k, seed=t, iters=5)


def _largest_rise(diag, result) -> float:
    trace = [diag.initial_loss, *result.loss_trace]
    return max(after - before for before, after in zip(trace, trace[1:]))


@pytest.mark.parametrize("t, shape", [(167, (17, 2, 1)), (1332, (21, 3, 2))],
                         ids=["input-167", "input-1332"])
def test_fit_loss_never_rises_when_a_view_fits_within_rounding(t, shape):
    # most attribute rows are empty, so the initial factors fit C almost
    # exactly; calibrating against that rounding noise scaled it into a
    # weight that lifted the loss in a later round
    net, hp = _sweep_input(t)
    assert (net.n_nodes, net.n_attrs, hp.dim) == shape
    _, _, result, diag = fit(net, hp)
    assert _largest_rise(diag, result) <= 1e-12 * diag.initial_loss


@st.composite
def degenerate_networks(draw):
    """Undirected networks of 2..8 nodes with weighted edges, self-loops and
    isolated nodes, and 1..6 attributes with empty rows or none at all."""
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.8)), 1)
    adj = upper * rng.uniform(0.5, 3.0, (n, n))
    adj = adj + adj.T + np.diag((rng.random(n) < draw(st.floats(0.0, 1.0)))
                                * rng.uniform(0.5, 3.0, n))
    isolated = rng.random(n) < draw(st.floats(0.0, 0.5))
    adj[isolated] = 0.0
    adj[:, isolated] = 0.0
    attrs = (rng.random((n, d)) < draw(st.floats(0.0, 1.0))) * rng.uniform(0.1, 2.0, (n, d))
    attrs[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    return AttributedNetwork(adjacency=adj, attributes=attrs)


def _degenerate_params(net, seed):
    return HyperParams(dim=min(net.n_nodes, net.n_attrs), seed=seed, iters=5)


def _degenerate_fit(net, seed):
    return fit(net, _degenerate_params(net, seed))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(degenerate_networks(), st.integers(0, 2 ** 32 - 1))
def test_fit_loss_never_rises_on_degenerate_inputs(net, seed):
    _, _, result, diag = _degenerate_fit(net, seed)
    assert _largest_rise(diag, result) <= 1e-12 * diag.initial_loss


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(degenerate_networks(), st.integers(0, 2 ** 32 - 1))
def test_joint_loss_never_rises_after_any_update_on_degenerate_inputs(net, seed):
    # the loss after the start and after every align, G, H, U, V and score
    # step of a fit's rounds, with dense residuals: the Gram form's rounding,
    # scaled up by a large calibrated attr_weight, could mask or fake a rise
    losses = [(step, naive_joint_loss(net, model, scores, attr_weight, dis_weight))
              for step, model, scores, attr_weight, dis_weight
              in fit_steps(net, _degenerate_params(net, seed))]
    assert len(losses) == 1 + 5 * 5 + 4
    rises = [(step, after - before) for (_, before), (step, after) in zip(losses, losses[1:])
             if after - before > 1e-12 * losses[0][1]]
    assert rises == []


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(degenerate_networks(), st.integers(0, 2 ** 32 - 1))
def test_fit_align_is_orthonormal_on_degenerate_inputs(net, seed):
    align = _degenerate_fit(net, seed)[0].align
    assert np.abs(align.T @ align - np.eye(align.shape[0])).max() <= 1e-8


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(degenerate_networks(), st.integers(0, 2 ** 32 - 1))
def test_fit_scores_keep_their_budget_on_degenerate_inputs(net, seed):
    scores = _degenerate_fit(net, seed)[1]
    for s in vars(scores).values():
        assert abs(s.sum() - 1.0) <= 1e-9
        assert (s >= 1e-8).all()
        assert (s < 1.0).all() or s.tolist() == [1.0]  # a lone node's score is 1


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(degenerate_networks(), st.integers(0, 2 ** 32 - 1))
def test_fit_reruns_bit_identically_on_degenerate_inputs(net, seed):
    # model, scores, result and diagnostics, field by field
    for first, second in zip(_degenerate_fit(net, seed), _degenerate_fit(net, seed)):
        assert vars(first).keys() == vars(second).keys()
        assert all(np.array_equal(a, b) for a, b in zip(vars(first).values(),
                                                        vars(second).values()))


def test_fit_input_validation():
    rng = make_rng(24)
    net = rand_network(rng, 6, 4)
    with pytest.raises(ConfigError):
        fit(net, HyperParams(dim=5))  # dim > min(n, d)
    bad = AttributedNetwork(adjacency=net.adjacency,
                            attributes=to_dense(net.attributes) - 1.0)
    with pytest.raises(ConfigError):
        fit(bad, HyperParams(dim=2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_numeric_overflow_aborts():
    rng = make_rng(25)
    net = rand_network(rng, 6, 4)
    huge = AttributedNetwork(adjacency=net.adjacency,
                             attributes=net.attributes * 1e160)
    with pytest.raises(NumericError):
        fit(huge, HyperParams(dim=2))


def test_fit_separates_planted_outliers():
    net = synth_network(300, 3, 0.05, 0.005, 120, 0.9, seed=41)
    seeded = seed_outliers(net, SeedingPlan(total_fraction=0.05, seed=41))
    _, _, result, _ = fit(seeded.network, HyperParams(dim=9, seed=41))
    planted = np.array(seeded.outlier_ids)
    normal = np.setdiff1d(np.arange(seeded.network.n_nodes), planted)
    assert result.outlier_scores[planted].mean() > result.outlier_scores[normal].mean()


def test_default_dim():
    net = synth_network(30, 3, 0.3, 0.05, 12, 0.9, seed=0)
    assert default_dim(net) == 9
    unlabeled = AttributedNetwork(adjacency=net.adjacency, attributes=net.attributes)
    with pytest.raises(ConfigError):
        default_dim(unlabeled)
