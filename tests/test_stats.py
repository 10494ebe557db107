"""Estimators, count combinations and the selection-adjusted CHSH bound."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eprbsim import stats

signs = st.integers(0, 1).map(lambda b: 2 * b - 1)


def test_pair_estimate_hand_worked():
    x1 = np.array([1, -1, 1, -1])
    x2 = np.array([1, 1, -1, -1])
    w1 = np.array([1, 1, 0, 1])
    w2 = np.array([1, 0, 1, 1])
    est = reference.pair_estimate(x1, x2, w1, w2)
    # pairs kept where both flags are set: trials 0 and 3
    assert est.e == pytest.approx(1.0)
    assert est.n_pass == 2
    assert est.n_total == 4
    # singles keep a side's own flag only
    assert est.e1 == pytest.approx((1 - 1 - 1) / 3)
    assert est.e2 == pytest.approx((1 - 1 - 1) / 3)
    assert est.n1 == 3
    assert est.n2 == 3


def test_pair_estimate_without_flags_uses_every_trial():
    x1 = np.array([1, -1, 1])
    x2 = np.array([-1, -1, 1])
    est = reference.pair_estimate(x1, x2)
    assert est.e == pytest.approx((-1 + 1 + 1) / 3)
    assert est.n_pass == 3
    assert est.e1 == pytest.approx(1 / 3)


def test_pair_estimate_empty_selection_is_undefined():
    x = np.array([1, -1])
    w0 = np.array([0, 0])
    est = reference.pair_estimate(x, x, w0, w0)
    assert est.e is None
    assert est.e1 is None and est.e2 is None
    assert est.n_pass == 0


def test_chsh_combination_and_none_propagation():
    assert stats.chsh(0.5, -0.5, 0.25, 0.25) == pytest.approx(1.5)
    assert stats.chsh(0.5, None, 0.25, 0.25) is None


def test_standard_error_formula():
    assert reference.standard_error(0.0, 400) == pytest.approx(0.05)
    assert reference.standard_error(1.0, 400) == 0.0


def test_quantum_reference_values():
    e0, s0 = stats.quantum_reference(0.0)
    assert e0 == pytest.approx(-1.0)
    assert s0 == pytest.approx(-2.0)
    e_max, s_max = stats.quantum_reference(3 * math.pi / 8)
    assert e_max == pytest.approx(math.sqrt(0.5))
    assert s_max == pytest.approx(2 * math.sqrt(2))
    _, s_quarter = stats.quantum_reference(math.pi / 4)
    assert s_quarter == pytest.approx(2.0)


@given(x1=signs, x1p=signs, x2=signs, x2p=signs)
def test_quadruple_combination_is_two_in_magnitude(x1, x1p, x2, x2p):
    assert stats.quadruple_s(x1, x1p, x2, x2p) in (-2, 2)


@given(x1=signs, x1p=signs, x2=signs, x2p=signs)
def test_three_product_sums_take_the_two_allowed_values(x1, x1p, x2, x2p):
    for b in stats.quadruple_b(x1, x1p, x2, x2p):
        assert b in (-1, 3)


@given(f=st.tuples(*[st.sampled_from([-1, 0, 1]) for _ in range(4)]))
def test_per_trial_count_combination_is_non_negative(f):
    assert stats.eberhard_j_terms(*f) >= 0


@given(o=st.tuples(*[st.integers(0, 1) for _ in range(4)]))
def test_detected_only_combination_is_non_negative(o):
    # On 0/1 detection indicators the combination is the CH one.
    assert stats.eberhard_j_terms(*o) >= 0


@given(data=st.lists(
    st.tuples(*[st.integers(0, 1) for _ in range(8)]),
    min_size=1, max_size=40))
def test_two_count_combinations_coincide_on_shared_records(data):
    # Fates are +1 kept ordinary, -1 kept extraordinary, 0 unidentified.
    # Folding them to CH detection indicators (extraordinary counted as
    # undetected) must leave the total unchanged.
    arr = np.array(data)
    fates = [(2 * arr[:, i] - 1) * arr[:, 4 + i] for i in range(4)]
    detected = [(f == 1).astype(np.int64) for f in fates]
    assert (stats.eberhard_j_terms(*fates).sum()
            == stats.eberhard_j_terms(*detected).sum())


def test_selected_pair_counts_hand_worked():
    x1 = np.array([1, 1, -1, -1, 1])
    x2 = np.array([1, -1, 1, -1, 1])
    w1 = np.array([1, 1, 1, 1, 0])
    w2 = np.array([1, 1, 1, 1, 1])
    c = reference.selected_pair_counts(x1, x2, w1, w2)
    assert c == {"n_oo": 1, "n_oe": 1, "n_eo": 1, "n_ee": 1, "n_pass": 4}


def test_selected_combination_hand_worked():
    def rec(x1, x2, w1, w2):
        return (np.array(x1), np.array(x2), np.array(w1), np.array(w2))

    records = {
        "11": rec([-1], [1], [1], [1]),    # n_eo = 1
        "12": rec([1], [1], [1], [1]),     # n_oo = 1
        "21": rec([1], [1], [1], [1]),     # -n_oo = -1
        "22": rec([1], [-1], [1], [1]),    # n_oe = 1
    }
    assert reference.eberhard_total_selected(records) == 2


def test_selected_combination_can_go_negative():
    # Only the subtracted pair has identified events; no per-trial
    # cancellation protects the total once flags differ per pair.
    def rec(x1, x2, w1, w2):
        return (np.array(x1), np.array(x2), np.array(w1), np.array(w2))

    records = {
        "11": rec([1, 1], [1, 1], [0, 0], [1, 1]),
        "12": rec([1, 1], [1, 1], [1, 1], [0, 0]),
        "21": rec([1, 1], [1, 1], [1, 1], [1, 1]),
        "22": rec([1, 1], [1, 1], [0, 1], [1, 0]),
    }
    assert reference.eberhard_total_selected(records) == -2


@given(data=st.lists(
    st.tuples(*[st.integers(0, 1) for _ in range(4)]),
    min_size=1, max_size=40))
def test_selected_combination_matches_fates_when_all_flags_pass(data):
    # With every flag set the identified subsets are the full record
    # set, and the per-pair counts reassemble the per-trial fate sum.
    arr = np.array(data)
    xs = [2 * arr[:, i] - 1 for i in range(4)]
    ones = np.ones(arr.shape[0], dtype=np.int64)
    records = {
        "11": (xs[0], xs[2], ones, ones),
        "12": (xs[0], xs[3], ones, ones),
        "21": (xs[1], xs[2], ones, ones),
        "22": (xs[1], xs[3], ones, ones),
    }
    assert (reference.eberhard_total_selected(records)
            == stats.eberhard_j_terms(*xs).sum())


def test_delta_ratio_max_pair():
    d, bound = stats.delta_ratio(50, (100, 80, 90, 60))
    assert d == pytest.approx(0.5)
    assert bound == pytest.approx(3.0)


def test_delta_ratio_full_selection_recovers_plain_bound():
    d, bound = stats.delta_ratio(100, (100, 100, 100, 100))
    assert d == 1.0
    assert bound == 2.0


def test_delta_ratio_zero_denominator_is_undefined():
    d, bound = stats.delta_ratio(0, (0, 0, 0, 0))
    assert d is None and bound is None


def test_delta_ratio_setting_quota():
    d, bound = stats.delta_ratio(50, (100, 80, 90, 60),
                                 denominator="setting-quota",
                                 per_setting_total=200)
    assert d == pytest.approx(0.25)
    assert bound == pytest.approx(3.5)
    with pytest.raises(ValueError):
        stats.delta_ratio(1, (1,), denominator="setting-quota")
    with pytest.raises(ValueError):
        stats.delta_ratio(1, (1,), denominator="bogus")


@settings(max_examples=50)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32),
)
def test_quadruple_identities_hold_on_generated_signs(n, seed):
    g = np.random.default_rng(seed)
    x = 2 * g.integers(0, 2, size=(n, 4)) - 1
    s = stats.quadruple_s(x[:, 0], x[:, 1], x[:, 2], x[:, 3])
    assert set(np.unique(np.abs(s))) <= {2}
    for b in stats.quadruple_b(x[:, 0], x[:, 1], x[:, 2], x[:, 3]):
        assert set(np.unique(b)) <= {-1, 3}
