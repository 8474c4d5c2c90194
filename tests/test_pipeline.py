import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnmpcqep import bench, pipeline, qep
from tnmpcqep.bench import BenchConfig
from tnmpcqep.mpc import Mpc3Session
from tnmpcqep.pipeline import (
    DemoConfig,
    EvalReport,
    LabeledBatch,
    aggregate_plain,
    aggregate_secure,
    evaluate,
    load_idx,
    readout_grad,
    readout_loss,
    readout_scores,
    select_threshold,
    synth_data,
    threshold_candidates,
    train_readout,
)
from tnmpcqep.qsim import NoiseSpec


# ---------------------------------------------------------------- aggregation


def test_aggregate_plain_single_client_epsilon_limit():
    rng = np.random.default_rng(10)
    f = rng.normal(size=(1, 6))
    x = aggregate_plain(f, [1.0], epsilon=1e-12)
    assert np.abs(x - f[0]).max() <= 1e-9


def test_aggregate_plain_equal_features_factor_out():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, d = rng.integers(1, 8), rng.integers(1, 10)
        f = rng.normal(size=d)
        w = rng.uniform(0.1, 3.0, size=n)
        got = aggregate_plain(np.tile(f, (n, 1)), w, epsilon=1e-6)
        expect = f * (w.sum() / (w.sum() + 1e-6))
        assert np.abs(got - expect).max() <= 1e-12


def test_aggregate_plain_two_client_weighted_mean():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    x = aggregate_plain(f, [1.0, 3.0], epsilon=1e-12)
    assert np.abs(x - [0.25, 0.75]).max() <= 1e-9


def test_aggregate_plain_domain_errors():
    f = np.ones((2, 3))
    with pytest.raises(ValueError, match="positive sum"):
        aggregate_plain(f, [0.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        aggregate_plain(f, [1.0, -0.5])
    with pytest.raises(ValueError, match="one weight per client"):
        aggregate_plain(f, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="epsilon"):
        aggregate_plain(f, [1.0, 1.0], epsilon=0.0)


def test_aggregate_plain_stack_domain_errors():
    stack = np.ones((4, 2, 3))
    with pytest.raises(ValueError, match="one weight per client"):
        aggregate_plain(stack, [1.0, 2.0, 3.0, 4.0])  # length of axis 0, not axis -2
    with pytest.raises(ValueError, match="one weight per client"):
        aggregate_plain(stack, [1.0, 2.0, 3.0])
    for bad in (np.ones(3), np.ones((1, 4, 2, 3))):
        with pytest.raises(ValueError, match=r"features must be \(n, d\) or \(m, n, d\)"):
            aggregate_plain(bad, [1.0, 2.0])
    # the weight checks run on a stack too, before any arithmetic
    with pytest.raises(ValueError, match="nonnegative"):
        aggregate_plain(stack, [1.0, -0.5])
    with pytest.raises(ValueError, match="positive sum"):
        aggregate_plain(stack, [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        aggregate_plain(np.full((4, 2, 3), np.nan), [np.inf, 1.0])


def _events(rng, m, n, d):
    """m one-owner events as features, owners and the (m, n, d) stack, with -0.0 entries."""
    feats = rng.normal(size=(m, d))
    feats[rng.random(size=(m, d)) < 0.2] = -0.0
    owners = rng.integers(0, n, size=m)
    stack = np.zeros((m, n, d))
    stack[np.arange(m), owners] = feats
    return feats, owners, stack


def _per_event_plain(stack, weights, epsilon):
    """The per-sample plain aggregation as it ran before stacking."""
    w = np.asarray(weights, dtype=np.float64)
    return np.stack([(w @ event) / (w.sum() + epsilon) for event in stack])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 19), d=st.integers(1, 70),
       dense=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_aggregate_plain_stack_is_bit_identical_to_the_per_event_loop(m, n, d, dense, seed):
    rng = np.random.default_rng(seed)
    if dense:  # every client row nonzero, so the order of the sum over n shows
        stack = rng.normal(size=(m, n, d))
        stack[rng.random(size=stack.shape) < 0.2] = -0.0
    else:
        stack = _events(rng, m, n, d)[2]
    weights = rng.integers(0, 30, size=n).astype(np.float64)
    weights[rng.integers(n)] += 1.0
    got = aggregate_plain(stack, weights, 1e-6)
    assert got.shape == (m, d)
    assert got.tobytes() == _per_event_plain(stack, weights, 1e-6).tobytes()


@pytest.mark.parametrize("n_clients", [1, 16])
@pytest.mark.parametrize("m", [31, 32, 33, 64, 65])
def test_plain_events_are_bit_identical_across_chunk_edges(m, n_clients):
    rng = np.random.default_rng(m * 100 + n_clients)
    feats, owners, stack = _events(rng, m, n_clients, 64)
    weights = np.bincount(owners, minlength=n_clients).astype(np.float64) + 1.0
    acfg = BenchConfig(n=n_clients, d=64)
    got, cost = pipeline._per_sample_aggregate(feats, owners, weights, acfg,
                                               secure=False, seed=0, split=0)
    assert got.tobytes() == _per_event_plain(stack, weights, acfg.epsilon).tobytes()
    assert cost.total_bits == 0


def test_plain_aggregation_calls_aggregate_plain_once_per_chunk(monkeypatch):
    sizes = []
    orig = pipeline.aggregate_plain

    def spy(features, weights, epsilon=1e-6):
        sizes.append(np.shape(features)[0])
        return orig(features, weights, epsilon)

    monkeypatch.setattr(pipeline, "aggregate_plain", spy)
    rng = np.random.default_rng(3)
    feats, owners, _ = _events(rng, 70, 4, 8)
    pipeline._per_sample_aggregate(feats, owners, np.ones(4), BenchConfig(n=4, d=8),
                                   secure=False, seed=0, split=0)
    assert sizes == [32, 32, 6]


def test_secure_events_are_the_per_sample_zero_padded_rows(monkeypatch):
    # each secure event is one row of its chunk's stack: byte for byte the (n, d) event
    # that a per-sample build gives, handed over with the seed stream [seed, split, s]
    calls = []
    orig = pipeline.aggregate_secure

    def spy(features, weights, cfg, seed=0):
        calls.append((np.array(features), seed))
        return orig(features, weights, cfg, seed=seed)

    monkeypatch.setattr(pipeline, "aggregate_secure", spy)
    rng = np.random.default_rng(4)
    feats, owners, _ = _events(rng, 70, 4, 8)  # three chunks, the last one partial
    acfg = BenchConfig(n=4, d=8)
    _, cost = pipeline._per_sample_aggregate(feats, owners, np.ones(4), acfg,
                                             secure=True, seed=9, split=1)
    assert [seed for _, seed in calls] == [[9, 1, s] for s in range(70)]
    for s, (event, _) in enumerate(calls):
        want = np.zeros((4, 8))
        want[owners[s]] = feats[s]
        assert event.tobytes() == want.tobytes()
    assert cost == bench.run_scenario(acfg, 2).scaled(70)


def test_aggregation_config_validation():
    with pytest.raises(ValueError, match="at least one client"):
        BenchConfig(n=0)
    with pytest.raises(ValueError, match="epsilon"):
        BenchConfig(epsilon=0.0)


def test_aggregate_secure_small_matches_plain():
    rng = np.random.default_rng(12)
    cfg = BenchConfig(n=2, d=4, fraction_bits=20)
    f = rng.uniform(0.0, 1.0, size=(2, 4))
    w = rng.uniform(0.5, 2.0, size=2)
    x, _ = aggregate_secure(f, w, cfg)
    assert np.abs(x - aggregate_plain(f, w, cfg.epsilon)).max() <= 1e-4


def test_aggregate_secure_zero_weights_rejected_before_protocol():
    cfg = BenchConfig(n=2, d=3)
    # the feature values would overflow the codec, so reaching the protocol
    # would raise a range error instead of the weight error asserted here
    huge = np.full((2, 3), 1e14)
    with pytest.raises(ValueError, match="positive sum"):
        aggregate_secure(huge, [0.0, 0.0], cfg)


def test_aggregate_secure_range_overflow_propagates():
    cfg = BenchConfig(n=1, d=2)
    with pytest.raises(ValueError, match="outside representable range"):
        aggregate_secure(np.full((1, 2), 1e14), [1.0], cfg)


def test_aggregate_secure_cost_equals_closed_form():
    rng = np.random.default_rng(13)
    for n, d in ((1, 1), (2, 4), (4, 7), (16, 64)):
        cfg = BenchConfig(n=n, d=d)
        f = rng.uniform(0.0, 1.0, size=(n, d))
        w = rng.uniform(0.5, 2.0, size=n)
        _, rep = aggregate_secure(f, w, cfg)
        assert rep == bench.run_scenario(cfg, 2)


def test_aggregate_secure_tracks_plain_on_random_instances():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 9))
        cfg = BenchConfig(n=n, d=d, fraction_bits=20)
        f = rng.uniform(-1.0, 1.0, size=(n, d))
        w = rng.uniform(0.1, 4.0, size=n)
        x, _ = aggregate_secure(f, w, cfg, seed=int(rng.integers(1 << 30)))
        err = np.abs(x - aggregate_plain(f, w, cfg.epsilon)).max()
        worst = max(worst, err)
        assert err <= n * 4.0 * 2.0**-20
    assert worst > 0.0  # fixed point really is quantizing


# -------------------------------------------------------------------- readout


def _blobs(rng, m=100, margin=2.0, std=0.5):
    half = m // 2
    a = rng.normal(loc=(-margin, 0.0), scale=std, size=(half, 2))
    b = rng.normal(loc=(margin, 0.0), scale=std, size=(m - half, 2))
    feats = np.concatenate([a, b])
    labels = np.concatenate([np.zeros(half, np.int64), np.ones(m - half, np.int64)])
    return feats, labels


def test_readout_gradient_matches_central_differences():
    rng = np.random.default_rng(20)
    feats = rng.normal(size=(20, 5))
    labels = rng.integers(0, 2, size=20)
    labels[:2] = (0, 1)
    cw = (1.0, 2.5)
    step = 1e-5
    for _ in range(3):
        w = rng.normal(size=(2, 5))
        b = rng.normal(size=2)
        gw, gb = readout_grad(w, b, feats, labels, cw)
        for arr, grad in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _v in it:
                i = it.multi_index
                hi, lo = arr.copy(), arr.copy()
                hi[i] += step
                lo[i] -= step
                if arr is w:
                    num = (readout_loss(hi, b, feats, labels, cw)
                           - readout_loss(lo, b, feats, labels, cw)) / (2 * step)
                else:
                    num = (readout_loss(w, hi, feats, labels, cw)
                           - readout_loss(w, lo, feats, labels, cw)) / (2 * step)
                denom = max(abs(num), abs(grad[i]), 1e-8)
                assert abs(grad[i] - num) / denom <= 1e-4


def test_readout_separable_blobs_trains_to_99():
    rng = np.random.default_rng(21)
    feats, labels = _blobs(rng)
    params = train_readout(feats, labels, steps=500)
    scores = readout_scores(params, feats)
    acc = float(((scores >= 0.5).astype(int) == labels).mean())
    assert acc >= 0.99


def test_readout_unit_class_weights_match_unweighted_gradient():
    rng = np.random.default_rng(22)
    feats, labels = _blobs(rng, m=40)
    w = np.zeros((2, 2))
    b = np.zeros(2)
    gw, gb = readout_grad(w, b, feats, labels, (1.0, 1.0))
    # plain cross-entropy gradient at zero parameters: p = (1/2, 1/2) per row
    g = (np.full((40, 2), 0.5) - np.eye(2)[labels]) / 40.0
    assert np.abs(gw - g.T @ feats).max() <= 1e-12
    assert np.abs(gb - g.sum(axis=0)).max() <= 1e-12


def test_readout_loss_history_never_increases():
    rng = np.random.default_rng(23)
    for trial in range(5):
        feats = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, size=30)
        labels[:2] = (0, 1)
        params = train_readout(feats, labels, steps=120, lr=2.0)
        hist = np.array(params.loss_history)
        assert hist.size == 121
        assert np.all(np.diff(hist) <= 0.0), f"loss increased on trial {trial}"


def _old_softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _old_readout_loss(w, b, features, labels, class_weights=(1.0, 1.0)):
    p = _old_softmax_rows(np.asarray(features) @ np.asarray(w).T + np.asarray(b))
    labels = np.asarray(labels)
    cw = np.asarray(class_weights, dtype=np.float64)[labels]
    nll = -np.log(np.clip(p[np.arange(labels.size), labels], 1e-300, None))
    return float((cw * nll).sum() / cw.sum())


def _old_readout_grad(w, b, features, labels, class_weights=(1.0, 1.0)):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    p = _old_softmax_rows(features @ np.asarray(w).T + np.asarray(b))
    cw = np.asarray(class_weights, dtype=np.float64)[labels]
    g = cw[:, None] * (p - np.eye(2)[labels]) / cw.sum()
    return g.T @ features, g.sum(axis=0)


_class_weights = st.sampled_from([(1.0, 1.0), (1.0, 2.5), (0.3, 7.0)]) | st.tuples(
    st.floats(0.01, 10.0), st.floats(0.01, 10.0))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 60), d=st.integers(1, 8), scale=st.sampled_from([0.0, 1.0, 30.0, 800.0]),
       cw=_class_weights, seed=st.integers(0, 2**32 - 1))
def test_readout_loss_and_grad_are_bit_identical_to_the_reduction_forms(m, d, scale, cw, seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(m, d))
    w = scale * rng.normal(size=(2, d))  # 800 saturates the softmax and underflows exp
    b = scale * rng.normal(size=2)
    labels = rng.integers(0, 2, size=m)
    got, want = readout_loss(w, b, feats, labels, cw), _old_readout_loss(w, b, feats, labels, cw)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    (gw, gb), (ww, wb) = readout_grad(w, b, feats, labels, cw), _old_readout_grad(
        w, b, feats, labels, cw)
    assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()
    z = feats @ w.T + b
    assert pipeline._softmax_rows(z).tobytes() == _old_softmax_rows(z).tobytes()


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 50), d=st.integers(1, 6), cw=_class_weights,
       steps=st.integers(1, 60), lr=st.sampled_from([0.5, 2.0, 40.0]),
       seed=st.integers(0, 2**32 - 1))
def test_train_readout_is_bit_identical_to_the_reduction_forms(m, d, cw, steps, lr, seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d)
    labels = rng.integers(0, 2, size=m)
    labels[:2] = (0, 1)
    got = train_readout(feats, labels, class_weights=cw, steps=steps, lr=lr)
    want = _gradient_per_step_training(feats, labels, cw, steps, lr,
                                       _old_readout_loss, _old_readout_grad)
    assert got.w.tobytes() == want[0].tobytes()
    assert got.b.tobytes() == want[1].tobytes()
    assert np.array(got.loss_history).tobytes() == np.array(want[2]).tobytes()


def _gradient_per_step_training(features, labels, class_weights, steps, lr, loss, grad):
    """train_readout's loop before it reused the accepted candidate's softmax: loss once
    per candidate and grad once per step, at the same (w, b).  Returns (w, b, losses)."""
    features = np.asarray(features, dtype=np.float64)
    mu = features.mean(axis=0)
    sigma = features.std(axis=0)
    sigma = np.where(sigma < 1e-8, 1.0, sigma)
    z = (features - mu) / sigma
    w, b = np.zeros((2, features.shape[1])), np.zeros(2)
    losses = [loss(w, b, z, labels, class_weights)]
    step = float(lr)
    for _ in range(steps):
        gw, gb = grad(w, b, z, labels, class_weights)
        accepted = False
        while step >= 1e-12:
            cand_w, cand_b = w - step * gw, b - step * gb
            cand = loss(cand_w, cand_b, z, labels, class_weights)
            if cand <= losses[-1]:
                w, b = cand_w, cand_b
                losses.append(cand)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            losses.append(losses[-1])
        else:
            step = min(step * 1.1, 10.0 * lr)
    return w, b, losses


def _counting(fn, calls, reject_after=None):
    """fn, recording each call's (w, b); from call reject_after on, every loss is 1 higher,
    so no later candidate is taken and the step halves until training stalls."""
    def wrapper(*args, **kwargs):
        calls.append(args[:2])
        loss = fn(*args, **kwargs)
        return loss + 1.0 if reject_after is not None and len(calls) > reject_after else loss
    return wrapper


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 60), d=st.integers(1, 8), cw=_class_weights,
       steps=st.integers(1, 80), lr=st.sampled_from([0.5, 2.0, 40.0, 1e4]),
       separable=st.booleans(), reject_after=st.none() | st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
def test_train_readout_reuses_the_accepted_softmax_byte_for_byte(m, d, cw, steps, lr, separable,
                                                                  reject_after, seed):
    # the same w, b and losses as the per-step gradient loop, through the same number of
    # readout_loss calls at the same candidates, which the benchmark's accept-ratio
    # replay counts, also when the loop stalls
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=m)
    labels[:2] = (0, 1)
    feats = rng.normal(size=(m, d)) + (8.0 * labels[:, None] if separable else 0.0)
    got_calls, want_calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "readout_loss",
                   _counting(pipeline.readout_loss, got_calls, reject_after))
        got = train_readout(feats, labels, class_weights=cw, steps=steps, lr=lr)
    want = _gradient_per_step_training(feats, labels, cw, steps, lr,
                                       _counting(readout_loss, want_calls, reject_after),
                                       readout_grad)
    assert got.w.tobytes() == want[0].tobytes()
    assert got.b.tobytes() == want[1].tobytes()
    assert np.array(got.loss_history).tobytes() == np.array(want[2]).tobytes()
    assert len(got_calls) == len(want_calls)
    for (gw, gb), (ww, wb) in zip(got_calls, want_calls):
        assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def test_readout_loss_writes_its_softmax_rows_into_probs():
    rng = np.random.default_rng(7)
    feats, w, b = rng.normal(size=(9, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
    labels = rng.integers(0, 2, size=9)
    probs = np.full((9, 2), np.nan)
    got = readout_loss(w, b, feats, labels, (1.0, 3.0), probs=probs)
    assert np.float64(got).tobytes() == np.float64(readout_loss(w, b, feats, labels, (1.0, 3.0))).tobytes()
    assert probs.tobytes() == pipeline._softmax_rows(feats @ w.T + b).tobytes()
    (gw, gb), (ww, wb) = (pipeline._grad_from_probs(probs, feats, labels, np.array([1.0, 3.0])[labels]),
                          readout_grad(w, b, feats, labels, (1.0, 3.0)))
    assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def test_readout_rejects_degenerate_training_sets():
    with pytest.raises(ValueError, match="both classes"):
        train_readout(np.ones((4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="at least two"):
        train_readout(np.ones((1, 2)), np.array([1]))
    with pytest.raises(ValueError, match="one label per row"):
        train_readout(np.ones((4, 2)), np.array([0, 1]))
    with pytest.raises(ValueError, match="class_weights"):
        train_readout(np.ones((4, 2)), np.array([0, 1, 0, 1]), class_weights=(1.0, 0.0))


# ----------------------------------------------------------------- thresholds


def test_threshold_separable_case_returns_midpoint():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert select_threshold(scores, labels) == pytest.approx(0.5)


def test_threshold_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        select_threshold(np.array([0.1, 0.9]), np.array([1, 1]))


def _youden(scores, labels, tau):
    pred = scores >= tau
    tp = np.sum(pred & (labels == 1))
    fn = np.sum(~pred & (labels == 1))
    fp = np.sum(pred & (labels == 0))
    tn = np.sum(~pred & (labels == 0))
    tpr = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return tpr - fpr


def test_threshold_matches_brute_force_oracle():
    rng = np.random.default_rng(30)
    for _ in range(40):
        m = int(rng.integers(4, 40))
        # coarse grid forces ties between candidate thresholds
        scores = rng.integers(0, 6, size=m) / 5.0
        labels = rng.integers(0, 2, size=m)
        labels[:2] = (0, 1)
        cands = threshold_candidates(scores)
        js = np.array([_youden(scores, labels, t) for t in cands])
        best = cands[np.flatnonzero(js == js.max())[0]]  # lowest tau on ties
        got = select_threshold(scores, labels)
        assert _youden(scores, labels, got) == pytest.approx(js.max())
        assert got == pytest.approx(best)


def test_threshold_f1_mode_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(6, 30))
        scores = rng.integers(0, 5, size=m) / 4.0
        labels = rng.integers(0, 2, size=m)
        labels[:2] = (0, 1)
        cands = threshold_candidates(scores)
        f1s = np.array([evaluate(scores, labels, t).f1[1] for t in cands])
        got = select_threshold(scores, labels, metric="f1")
        assert evaluate(scores, labels, got).f1[1] == pytest.approx(f1s.max())
        assert got == pytest.approx(cands[np.flatnonzero(f1s == f1s.max())[0]])
    with pytest.raises(ValueError, match="metric"):
        select_threshold(np.array([0.1, 0.9]), np.array([0, 1]), metric="auc")


def _ratio(num, den) -> float:
    """The scalar rate the per-candidate loop used: num / den, and 0.0 when den is 0."""
    return 0.0 if den == 0 else float(num) / float(den)


def _old_select_threshold(scores, labels, metric):
    """The per-candidate evaluate loop that select_threshold replaced."""
    best_tau, best_val = None, -np.inf
    for tau in threshold_candidates(scores):
        rep = evaluate(scores, labels, tau)
        tn_, fp, fn, tp = rep.confusion
        if metric == "youden":
            val = _ratio(tp, tp + fn) - _ratio(fp, fp + tn_)
        else:
            val = rep.f1[1]
        if val > best_val:
            best_val, best_tau = val, float(tau)
    return best_tau


_score_values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, -np.inf, np.inf, np.nan]) | st.floats(
    -1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(2, 40), label_set=st.sampled_from([(0, 1), (0, 2), (0, 1, 2)]),
       metric=st.sampled_from(["youden", "f1"]))
def test_select_threshold_is_bit_identical_to_the_per_candidate_loop(data, m, label_set, metric):
    scores = np.array(data.draw(st.lists(_score_values, min_size=m, max_size=m)))
    labels = np.array(data.draw(st.lists(st.sampled_from(label_set), min_size=m, max_size=m)))
    if len(np.unique(labels)) < 2:
        with pytest.raises(ValueError, match="both classes"):
            select_threshold(scores, labels, metric=metric)
        return
    got = select_threshold(scores, labels, metric=metric)
    want = _old_select_threshold(scores, labels, metric)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("metric", ["youden", "f1"])
def test_select_threshold_edge_cases_match_the_per_candidate_loop(metric):
    cases = [
        ([0.3, 0.3], [0, 1]),  # n = 2, tied scores
        ([np.nan, 0.2, 0.8, np.nan], [1, 0, 1, 0]),  # NaN scores are never >= tau
        ([np.nan, np.nan, 0.4], [1, 1, 0]),  # every positive NaN: NaN scores give no candidate
        ([-np.inf, 0.5, np.inf], [1, 0, 1]),  # -inf and +inf candidates besides the sentinels
        ([np.inf, -np.inf], [0, 1]),  # their midpoint candidate is 0.0, not NaN
        ([0.1, 0.9, 0.5], [0, 2, 2]),  # no label 1: the positive class is empty
        ([0.1, 0.9, 0.5, 0.5], [2, 1, 1, 0]),
    ]
    for scores, labels in cases:
        scores, labels = np.array(scores), np.array(labels)
        got = select_threshold(scores, labels, metric=metric)
        want = _old_select_threshold(scores, labels, metric)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (scores, labels)
    # an empty class divides by zero nowhere
    scores, labels = np.array([0.1, 0.9, 0.5]), np.array([0, 2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = select_threshold(scores, labels, metric)
    assert got == _old_select_threshold(scores, labels, metric)


def test_evaluate_perfect_predictions():
    rep = evaluate(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]), 0.5)
    assert rep.accuracy == 1.0
    assert rep.precision == (1.0, 1.0)
    assert rep.recall == (1.0, 1.0)
    assert rep.f1 == (1.0, 1.0)
    assert rep.confusion == (2, 0, 0, 2)


def test_evaluate_all_predicted_positive():
    rep = evaluate(np.array([0.9, 0.9, 0.9, 0.9]), np.array([1, 0, 1, 0]), 0.5)
    assert rep.precision[1] == 0.5
    assert rep.recall[1] == 1.0
    assert rep.recall[0] == 0.0 and rep.precision[0] == 0.0  # zero-division rule


def test_evaluate_hand_confusion_case():
    # tp=3, fp=1, fn=2, tn=4 at tau = 0.5
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.2, 0.1, 0.3, 0.2, 0.1, 0.0])
    labels = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0])
    rep = evaluate(scores, labels, 0.5)
    assert rep.confusion == (4, 1, 2, 3)
    assert rep.precision[1] == pytest.approx(0.75)
    assert rep.recall[1] == pytest.approx(0.6)
    assert rep.f1[1] == pytest.approx(2.0 / 3.0)
    assert rep.accuracy == pytest.approx(0.7)


def test_evaluate_identities_hold_on_random_reports():
    rng = np.random.default_rng(32)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        scores = rng.uniform(size=m)
        labels = rng.integers(0, 2, size=m)
        rep = evaluate(scores, labels, float(rng.uniform()))
        tn_, fp, fn, tp = rep.confusion
        assert tn_ + fp + fn + tp == rep.n == m
        assert rep.accuracy == pytest.approx((tp + tn_) / m)
        for cls in (0, 1):
            p, r, f = rep.precision[cls], rep.recall[cls], rep.f1[cls]
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0
            if p + r > 0:
                assert f == pytest.approx(2 * p * r / (p + r))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 30))
def test_evaluate_keeps_the_scalar_rate_bytes(data, m):
    # the per-rate Python floats that evaluate computed before it went through _ratios
    scores = np.array(data.draw(st.lists(_score_values, min_size=m, max_size=m)))
    labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m)))
    rep = evaluate(scores, labels, data.draw(st.sampled_from([0.0, 0.5, 1.0, np.inf])))
    tn_, fp, fn, tp = rep.confusion
    prec = (_ratio(tn_, tn_ + fn), _ratio(tp, tp + fp))
    rec = (_ratio(tn_, tn_ + fp), _ratio(tp, tp + fn))
    f1 = tuple(0.0 if p + r == 0.0 else 2.0 * p * r / (p + r) for p, r in zip(prec, rec))
    want = {"accuracy": _ratio(tp + tn_, m), "precision": prec, "recall": rec, "f1": f1}
    for name, value in want.items():
        assert repr(getattr(rep, name)) == repr(value), name


def test_eval_report_validation():
    with pytest.raises(ValueError, match="sum to n"):
        EvalReport(threshold=0.5, accuracy=1.0, precision=(1.0, 1.0),
                   recall=(1.0, 1.0), f1=(1.0, 1.0), confusion=(1, 0, 0, 1), n=3)
    with pytest.raises(ValueError, match="rates"):
        EvalReport(threshold=0.5, accuracy=1.5, precision=(1.0, 1.0),
                   recall=(1.0, 1.0), f1=(1.0, 1.0), confusion=(1, 0, 0, 1), n=2)


# ------------------------------------------------------------------ IDX files


def test_idx_single_saturated_image(tmp_path):
    ipath, lpath = tmp_path / "img", tmp_path / "lab"
    ipath.write_bytes(struct.pack(">IIII", 0x803, 1, 28, 28) + b"\xff" * 784)
    lpath.write_bytes(struct.pack(">II", 0x801, 1) + b"\x01")
    batch = load_idx(ipath, lpath)
    assert batch.images.shape == (1, 28, 28)
    assert np.all(batch.images == 1.0)
    assert batch.labels.tolist() == [1]


def test_idx_bad_magic_names_offset(tmp_path):
    p = tmp_path / "img"
    p.write_bytes(struct.pack(">IIII", 0x804, 1, 28, 28) + b"\x00" * 784)
    lpath = tmp_path / "lab"
    lpath.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(ValueError, match="offset 0"):
        load_idx(p, lpath)


def test_idx_truncated_payload(tmp_path):
    p = tmp_path / "img"
    p.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + b"\x00" * 784)
    lpath = tmp_path / "lab"
    lpath.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        load_idx(p, lpath)


def test_idx_image_label_count_mismatch(tmp_path, write_idx):
    batch = synth_data(4, seed=3)
    write_idx(batch, tmp_path / "img", tmp_path / "lab")
    short = LabeledBatch(batch.images[:3], batch.labels[:3])
    write_idx(short, tmp_path / "img3", tmp_path / "lab3")
    with pytest.raises(ValueError, match="4 images but .* 3 labels"):
        load_idx(tmp_path / "img", tmp_path / "lab3")


def test_idx_roundtrip_is_exact_on_the_u8_grid(tmp_path, write_idx):
    raw = synth_data(6, seed=4)
    grid = LabeledBatch(np.rint(raw.images * 255.0) / 255.0, raw.labels)
    write_idx(grid, tmp_path / "img", tmp_path / "lab")
    back = load_idx(tmp_path / "img", tmp_path / "lab")
    assert np.array_equal(back.images, grid.images)
    assert np.array_equal(back.labels, grid.labels)
    # a second trip through the serializer changes nothing
    write_idx(back, tmp_path / "img2", tmp_path / "lab2")
    assert (tmp_path / "img2").read_bytes() == (tmp_path / "img").read_bytes()
    assert (tmp_path / "lab2").read_bytes() == (tmp_path / "lab").read_bytes()


def test_idx_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "img"
    p.write_bytes(struct.pack(">IIII", 0x803, 1, 28, 28) + b"\x00" * 785)
    lpath = tmp_path / "lab"
    lpath.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_idx(p, lpath)


# ------------------------------------------------------------ data generation


def test_synth_data_deterministic_per_seed():
    a = synth_data(12, seed=7)
    b = synth_data(12, seed=7)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = synth_data(12, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_synth_data_shape_balance_and_range():
    batch = synth_data(10, seed=0)
    assert batch.images.shape == (10, 28, 28)
    assert np.bincount(batch.labels, minlength=2).tolist() == [5, 5]
    assert batch.images.min() >= 0.0 and batch.images.max() <= 1.0
    with pytest.raises(ValueError, match="at least two"):
        synth_data(1)


def test_synth_data_blob_halves():
    batch = synth_data(40, seed=1)
    upper = batch.images[:, :14, :].mean(axis=(1, 2))
    lower = batch.images[:, 14:, :].mean(axis=(1, 2))
    zero, one = batch.labels == 0, batch.labels == 1
    assert upper[zero].mean() > lower[zero].mean()
    assert lower[one].mean() > upper[one].mean()


def _per_sample_synth_data(n_samples, seed):
    # the per-sample loop that synth_data's chunked form must match byte for byte
    centers = ((9.0, 14.0), (19.0, 14.0))
    rng = np.random.default_rng([seed, pipeline._S_SYNTH])
    labels = np.arange(n_samples, dtype=np.int64) % 2
    rows, cols = np.mgrid[0:28, 0:28]
    images = np.empty((n_samples, 28, 28))
    for i in range(n_samples):
        cr, cc = centers[labels[i]]
        cr += rng.uniform(-1.0, 1.0)
        cc += rng.uniform(-1.0, 1.0)
        bump = 0.9 * np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2.0 * 5.0**2))
        images[i] = np.clip(bump + rng.normal(0.0, 0.05, size=bump.shape), 0.0, 1.0)
    return images, labels


@pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 64, 65, 200])
def test_synth_data_keeps_the_bytes_of_the_per_sample_loop(n):
    for seed in (0, 1, 11, 2**31 - 1):
        images, labels = _per_sample_synth_data(n, seed)
        batch = synth_data(n, seed)
        assert batch.images.tobytes() == images.tobytes(), (n, seed)
        assert batch.labels.tobytes() == labels.tobytes()


def test_synth_data_builds_no_full_size_temporary():
    import tracemalloc

    synth_data(500, seed=1)  # warm up numpy's caches
    tracemalloc.start()
    try:
        batch = synth_data(500, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= batch.images.nbytes + 2**20


def test_labeled_batch_validation():
    with pytest.raises(ValueError, match=r"\(m, 28, 28\)"):
        LabeledBatch(np.zeros((2, 14, 14)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="one label per image"):
        LabeledBatch(np.zeros((2, 28, 28)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        LabeledBatch(np.full((1, 28, 28), 1.5), np.zeros(1, dtype=int))
    with pytest.raises(ValueError, match="labels"):
        LabeledBatch(np.zeros((1, 28, 28)), np.array([2]))


@pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
def test_labeled_batch_rejects_non_finite_pixels(bad):
    # NaN fails every comparison, so a range check written as "min < 0 or max > 1" let
    # an all-NaN batch through; one NaN among valid pixels is caught as well
    for images in (np.full((2, 28, 28), bad), np.full((2, 28, 28), 0.5)):
        images[-1, -1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            LabeledBatch(images, np.zeros(2, dtype=int))


def _bucket_owners(labels, n_clients):
    """The dealing written out: one bucket per client, each label's indices dealt
    round-robin into the buckets, then each bucket's indices marked with its client."""
    buckets = [[] for _ in range(n_clients)]
    for lab in np.unique(labels):
        for j, s in enumerate(np.flatnonzero(labels == lab)):
            buckets[j % n_clients].append(int(s))
    owners = np.full(len(labels), -1, dtype=np.int64)
    for c, idx in enumerate(buckets):
        owners[idx] = c
    return owners


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 3), min_size=1, max_size=120),
       n_clients=st.integers(1, 20))
def test_owners_are_the_round_robin_bucket_dealing(labels, n_clients):
    labels = np.array(labels, dtype=np.int64)
    got = pipeline._owners(labels, n_clients)
    assert got.dtype == np.int64
    assert got.tobytes() == _bucket_owners(labels, n_clients).tobytes()


def test_owners_deal_each_label_within_one_of_proportional():
    rng = np.random.default_rng(40)
    for _ in range(25):
        m = int(rng.integers(2, 120))
        n_clients = int(rng.integers(1, 20))
        labels = rng.integers(0, 2, size=m)
        owners = pipeline._owners(labels, n_clients)
        assert owners.shape == (m,) and owners.min() >= 0 and owners.max() < n_clients
        for lab in (0, 1):
            total = int(np.sum(labels == lab))
            for c in range(n_clients):
                got = int(np.sum(labels[owners == c] == lab))
                assert abs(got - total / n_clients) < 1.0 + 1e-9


# ----------------------------------------------------------------------- demo


def test_demo_config_validation_and_echo():
    cfg = DemoConfig(noise=NoiseSpec(kind="mixed"))
    echoed = json.loads(json.dumps(cfg.to_dict(), sort_keys=True))
    assert echoed["kind"] == "ttn"
    assert echoed["noise"]["kind"] == "mixed"
    assert DemoConfig().to_dict()["noise"] is None
    with pytest.raises(ValueError, match="kind"):
        DemoConfig(kind="cnn")
    with pytest.raises(ValueError, match="mode"):
        DemoConfig(mode="hybrid")
    with pytest.raises(ValueError, match="observable"):
        DemoConfig(observables="stabilizers")
    with pytest.raises(TypeError, match="NoiseSpec"):
        DemoConfig(noise="mixed")
    with pytest.raises(ValueError, match="threshold metric"):
        DemoConfig(threshold_metric="auc")
    with pytest.raises(ValueError, match="at least one client"):
        DemoConfig(n_clients=0)  # the client dealing needs one


@pytest.mark.parametrize("field, value, match", [
    ("k", 4, "ring width"),
    ("theta", 0, "theta"),
    ("fraction_bits", 70, "fraction_bits"),
    ("epsilon", 0.0, "epsilon"),
])
def test_demo_config_rejects_ring_settings_before_any_run(field, value, match):
    # these used to pass here, and run_demo raised only after encoding both splits
    with pytest.raises(ValueError, match=match):
        DemoConfig(**{field: value})


def test_demo_config_aggregates_with_its_own_ring_settings():
    ring = dict(d=5, k=32, theta=2, fraction_bits=10, epsilon=1e-3)
    assert DemoConfig(n_clients=3, **ring).bench_config() == BenchConfig(n=3, **ring)


def test_demo_config_needs_the_processors_two_qubits():
    # n_q = 1 used to pass here, and run_demo then ran every secure event
    # before the observable set rejected it
    with pytest.raises(ValueError, match="n_q >= 2"):
        DemoConfig(n_q=1, secure=True)
    assert DemoConfig(n_q=2).n_q == 2


SMALL = dict(n_train=60, n_test=20)


def test_run_demo_alpha_zero_equals_classical():
    cfg = DemoConfig(**SMALL)
    base = qep.make_qep(d=cfg.d, n_q=cfg.n_q, layers=cfg.layers, scale=cfg.scale,
                        beta=cfg.beta, mode=cfg.observables, seed=cfg.seed)
    from dataclasses import replace
    pinned = replace(base, alpha_w=np.zeros(cfg.d), alpha_b=-1000.0)
    quantum = pipeline.run_demo(cfg, qep_params=pinned)
    classical = pipeline.run_demo(replace(cfg, mode="classical"))
    assert quantum.metrics == classical.metrics
    assert quantum.diagnostics.alpha_mean == 0.0


def test_run_demo_secure_matches_plain_within_a_point():
    """Secure and plain runs classify within one point of the test set alike.

    Counts of correctly classified samples (tn + tp) are compared against
    0.01 * n, as acceptance criterion 9 does, because a float accuracy
    difference of exactly one point can compute above 0.01.  At n_test=20
    one sample is 5 points, so this admits no flipped sample.
    """
    plain = pipeline.run_demo(DemoConfig(**SMALL))
    secure = pipeline.run_demo(DemoConfig(secure=True, **SMALL))
    correct_plain = plain.metrics.confusion[0] + plain.metrics.confusion[3]
    correct_secure = secure.metrics.confusion[0] + secure.metrics.confusion[3]
    assert abs(correct_secure - correct_plain) <= 0.01 * plain.metrics.n
    assert plain.cost.total_bits == 0
    # 80 aggregation events, each billed exactly at the closed form
    one = bench.run_scenario(bench.BenchConfig(n=16, d=64), 2)
    assert secure.cost == one.scaled(80)


def test_run_demo_secure_events_draw_fresh_share_masks(monkeypatch):
    # a mask reused across events would let a party subtract its views of
    # two events and read off the difference of the secrets
    masks = []
    share = Mpc3Session.share

    def spy(self, values):
        x = share(self, values)
        masks.append((x.components[0].tobytes(), x.components[1].tobytes()))
        return x

    monkeypatch.setattr(Mpc3Session, "share", spy)
    cfg = DemoConfig(mode="classical", secure=True, n_clients=4, n_train=12, n_test=4)
    pipeline.run_demo(cfg)
    assert len(masks) == 16 * 2 * cfg.n_clients  # 16 events, features and weight per client
    for component in (0, 1):
        distinct = len({m[component] for m in masks})
        assert distinct == len(masks)


def test_run_demo_deterministic_given_seed_and_config():
    a = pipeline.run_demo(DemoConfig(seed=5, **SMALL))
    b = pipeline.run_demo(DemoConfig(seed=5, **SMALL))
    assert a.to_json() == b.to_json()


def test_run_demo_reaches_target_accuracy_at_small_scale():
    report = pipeline.run_demo(DemoConfig(**SMALL))
    assert report.metrics.accuracy >= 0.9
    assert report.metrics.n == 20
    assert 0.0 <= report.diagnostics.alpha_mean <= 1.0
    assert report.diagnostics.q_std > 0.0


def test_run_demo_identity_gate_changes_nothing():
    cfg = DemoConfig(**SMALL)
    plain = pipeline.run_demo(cfg)
    gated = pipeline.run_demo(cfg, gate=lambda x: x)
    assert plain.to_json() == gated.to_json()


def test_run_demo_splits_small_external_batches():
    data = synth_data(50, seed=9)
    report = pipeline.run_demo(DemoConfig(), data=data)
    assert report.metrics.n == 10  # one fifth held out
    tiny = LabeledBatch(data.images[:2], data.labels[:2])
    with pytest.raises(ValueError, match="too small"):
        pipeline.run_demo(DemoConfig(), data=tiny)


@pytest.mark.parametrize("m, sizes", [(40, (24, 8)), (30, (24, 6)), (7, (6, 1))])
def test_split_takes_views_of_the_batch(m, sizes):
    data = synth_data(m, seed=4)
    cfg = DemoConfig(n_train=24, n_test=8)
    train, test = pipeline._split(data, cfg)
    assert (len(train), len(test)) == sizes
    for part, rows in ((train, np.arange(sizes[0])), (test, sizes[0] + np.arange(sizes[1]))):
        assert np.shares_memory(part.images, data.images)
        assert np.shares_memory(part.labels, data.labels)
        assert part.images.tobytes() == data.images[rows].tobytes()
        assert part.labels.tobytes() == data.labels[rows].tobytes()


def test_noise_sweep_record_schema():
    cfg = DemoConfig(n_train=24, n_test=8, n_q=4)
    records = pipeline.noise_sweep(kinds=("noiseless", "mixed"), seeds=(0,),
                                   n_q=4, config=cfg)
    assert len(records) == 2
    keys = {"noise_kind", "seed", "n_q", "p", "gamma",
            "accuracy", "f1", "alpha_mean", "q_std"}
    for rec in records:
        assert set(rec) == keys
    assert records[0]["p"] == 0.0 and records[1]["p"] == 0.01
    with pytest.raises(ValueError, match="noise kind"):
        pipeline.noise_sweep(kinds=("gaussian",), seeds=(0,), config=cfg)


def test_noise_sweep_zero_strength_kinds_agree():
    cfg = DemoConfig(n_train=24, n_test=8, n_q=4)
    records = pipeline.noise_sweep(seeds=(0,), n_q=4, p=0.0, gamma=0.0, config=cfg)
    assert len(records) == 4
    base = records[0]
    for rec in records[1:]:
        assert abs(rec["accuracy"] - base["accuracy"]) <= 1e-9
        assert abs(rec["f1"] - base["f1"]) <= 1e-9


_special_scores = st.sampled_from([np.nan, -np.inf, np.inf]) | st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(2, 30), metric=st.sampled_from(["youden", "f1"]))
def test_select_threshold_never_returns_nan(data, m, metric):
    scores = np.array(data.draw(st.lists(_special_scores, min_size=m, max_size=m)))
    labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m)))
    labels[:2] = (0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from an inf - inf midpoint
        cands = threshold_candidates(scores)
        tau = select_threshold(scores, labels, metric=metric)
    assert not np.any(np.isnan(cands))
    assert np.all(cands[1:] >= cands[:-1])
    assert not np.isnan(tau)


def test_threshold_candidates_drop_nan_and_split_infinities_at_zero():
    assert threshold_candidates([np.nan, -np.inf, np.inf, np.nan]).tolist() == \
        [-np.inf, 0.0, np.inf]
    assert threshold_candidates([np.nan]).tolist() == [-np.inf, np.inf]
    assert threshold_candidates([-np.inf, 1.0, np.inf]).tolist() == \
        [-np.inf, -np.inf, np.inf, np.inf]
