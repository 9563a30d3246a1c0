import numpy as np

from depthuq import gradcheck
from depthuq.gradcheck import (
    central_difference,
    run_gradient_suite,
    scaled_error,
    suite_passed,
)
from depthuq.losses import head_forward


def test_central_difference_quadratic():
    fd = central_difference(lambda x: x * x, 3.0, 1e-6)
    assert abs(fd - 6.0) < 1e-8


def test_central_difference_is_second_order():
    # error on sin should scale like h^2
    coarse = abs(central_difference(np.sin, 1.0, 1e-2) - np.cos(1.0))
    fine = abs(central_difference(np.sin, 1.0, 1e-3) - np.cos(1.0))
    assert fine < coarse / 50


def test_scaled_error_relative_regime():
    # |a - n| / max(|a|, |n|) once values dwarf the abs floor
    e = scaled_error(np.array([100.0]), np.array([101.0]), rel_tol=1e-4, abs_tol=1e-8)
    assert abs(e - 1.0 / 101.0) < 1e-12


def test_scaled_error_absolute_regime():
    # tiny values compare against abs_tol/rel_tol instead of blowing up
    e = scaled_error(np.array([0.0]), np.array([5e-9]), rel_tol=1e-4, abs_tol=1e-8)
    assert abs(e - 5e-9 / 1e-4) < 1e-15


def test_redraw_keeps_the_first_instance_that_clears_every_kink():
    clear = gradcheck.KINK_CLEARANCE
    rng = object()

    def drawer(kink_lists):
        draws = []

        def draw(given):
            assert given is rng
            draws.append(kink_lists[len(draws)])
            return len(draws), np.array(draws[-1])

        return draws, draw

    # a distance at the clearance itself is too close; the sign does not count
    draws, draw = drawer([[1.0, clear], [-clear / 2, 1.0], [1.0, -2 * clear], [1.0, 1.0]])
    assert gradcheck._redraw(rng, draw) == 3
    assert len(draws) == 3
    # when no draw clears, the last of MAX_REDRAWS is kept
    draws, draw = drawer([[0.0]] * (gradcheck.MAX_REDRAWS + 1))
    assert gradcheck._redraw(rng, draw) == gradcheck.MAX_REDRAWS
    assert len(draws) == gradcheck.MAX_REDRAWS


def test_suite_all_pass_small():
    results = run_gradient_suite(trials=5, seed=1)
    # the ``check`` column of ``gradcheck --out``, in run order
    assert [r.name for r in results] == [
        "depth_term_wrt_pred",
        "soft_term_wrt_probs",
        "ranking_hinge_wrt_unc",
        "ranking_no_max_wrt_unc",
        "ranking_l1_direct_wrt_unc",
        "total_wrt_logits",
        "total_wrt_entropy_scale",
        "total_wrt_sigma",
        "regression_total_wrt_latent",
        "regression_total_wrt_readout",
        "auto_total_wrt_sigma",
    ]
    for r in results:
        assert r.passed, f"{r.name} worst {r.max_scaled}"
        assert r.trials == 5
    assert suite_passed(results)


def test_suite_seed_changes_instances_not_verdict():
    a = run_gradient_suite(trials=3, seed=100)
    b = run_gradient_suite(trials=3, seed=200)
    assert suite_passed(a) and suite_passed(b)
    assert any(x.max_scaled != y.max_scaled for x, y in zip(a, b))


def test_result_row_is_timing_free():
    r = run_gradient_suite(trials=2, seed=0)[0]
    row = r.row()
    assert "elapsed_s" not in row
    assert set(row) == {"check", "trials", "max_scaled", "tol", "passed"}


def test_result_rows_deterministic():
    a = [r.row() for r in run_gradient_suite(trials=3, seed=9)]
    b = [r.row() for r in run_gradient_suite(trials=3, seed=9)]
    assert a == b


def test_total_checks_catch_a_forward_that_training_does_not_differentiate(monkeypatch):
    # evaluation's decode drifts by 0.1 % from the depth full_backward differentiates
    def skewed(z, a, hyp, readout=None):
        depth, unc, p = head_forward(z, a, hyp, readout)
        return depth * (1.0 + 1e-3), unc, p

    monkeypatch.setattr(gradcheck, "head_forward", skewed)
    failed = {r.name for r in run_gradient_suite(trials=3) if not r.passed}
    assert failed >= {
        "total_wrt_logits",
        "total_wrt_sigma",
        "regression_total_wrt_latent",
        "regression_total_wrt_readout",
    }
