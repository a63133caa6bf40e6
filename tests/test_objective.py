import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnmt.corpus import make_batches, preprocess
from modnmt.model import CompositionError, DecoderModule, EncoderModule
from modnmt.objective import (
    DistanceMetric,
    correlation_distance,
    joint_loss,
    pairwise_distance,
)
from modnmt.optim import Adam
from modnmt.tensor import ShapeError, Tensor, _Op, finite_difference_gradient
from modnmt.tokenizer import learn_bpe


class TestCorrelationDistance:
    def test_identical_nonconstant(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(8, 5)))
        assert correlation_distance(h, h).item() == pytest.approx(0.0, abs=1e-9)

    def test_negated(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 5))
        d = correlation_distance(Tensor(x), Tensor(-x))
        assert d.item() == pytest.approx(2.0, abs=1e-9)

    def test_hand_example_b2_d1(self):
        # centered [-1, 1] vs [-1, 1] -> perfect correlation, distance 0
        d = correlation_distance(Tensor([[0.0], [2.0]]), Tensor([[1.0], [3.0]]))
        assert d.item() == pytest.approx(0.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = correlation_distance(Tensor(rng.normal(size=(6, 4))),
                                     Tensor(rng.normal(size=(6, 4)))).item()
            assert -1e-9 <= d <= 2.0 + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            correlation_distance(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 2))))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            correlation_distance(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))

    def test_constant_dimension_finite(self):
        h = Tensor(np.ones((4, 3)))
        d = correlation_distance(h, h)
        assert np.isfinite(d.item())

    @given(st.integers(0, 2**32 - 1),
           st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_positive_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 4))
        base = correlation_distance(Tensor(x), Tensor(y)).item()
        mapped = correlation_distance(Tensor(scale * x + shift), Tensor(y)).item()
        assert mapped == pytest.approx(base, abs=1e-7)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        hx = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        hy_data = rng.normal(size=(5, 4))
        correlation_distance(hx, Tensor(hy_data)).backward()
        fd = finite_difference_gradient(
            lambda: correlation_distance(Tensor(hx.data), Tensor(hy_data)).item(), hx)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(hx.grad - fd).max() / scale < 1e-3


class TestPairwiseDistance:
    def test_identical_zero_all_kinds(self):
        h = Tensor(np.random.default_rng(4).normal(size=(4, 3)))
        for kind in ("correlation", "l1", "l2", "none"):
            assert pairwise_distance(kind, h, h).item() == pytest.approx(0.0, abs=1e-9)

    def test_hand_l1_l2(self):
        hx, hy = Tensor([[0.0]]), Tensor([[2.0]])
        assert pairwise_distance("l1", hx, hy).item() == pytest.approx(2.0)
        assert pairwise_distance("l2", hx, hy).item() == pytest.approx(4.0)

    def test_none_always_zero(self):
        rng = np.random.default_rng(5)
        d = pairwise_distance("none", Tensor(rng.normal(size=(4, 3))),
                              Tensor(rng.normal(size=(4, 3))))
        assert d.item() == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            pairwise_distance("cosine", Tensor([[0.0]]), Tensor([[0.0]]))


class TestDistanceMetric:
    def test_defaults(self):
        m = DistanceMetric()
        assert m.kind == "correlation" and m.weight == 1.0

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            DistanceMetric(kind="hamming")

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            DistanceMetric(weight=-1.0)


@pytest.fixture(scope="module")
def tiny_pair():
    lines_x = ["a b c", "b c a", "c a b", "a c b", "b a c", "c b a", "a a b", "b b c"]
    lines_y = [line.translate(str.maketrans("abc", "xyz")) for line in lines_x]
    vx = learn_bpe(lines_x, "X", 12)
    vy = learn_bpe(lines_y, "Y", 12)
    corpus = preprocess(lines_x, lines_y, vx, vy)
    batch = make_batches(corpus, 1000, seed=0)[0]
    return vx, vy, batch


def make_modules(vx, vy, seed=1):
    arch = dict(dim=16, n_blocks=1, n_heads=2, ff_dim=32, seed=seed)
    return (EncoderModule("X", vx, **arch), DecoderModule("X", vx, **arch),
            EncoderModule("Y", vy, **arch), DecoderModule("Y", vy, **arch))


class TestJointLoss:
    def test_additivity_exact(self, tiny_pair):
        vx, vy, batch = tiny_pair
        mods = make_modules(vx, vy)
        metric = DistanceMetric("correlation", weight=0.5)
        bd, total = joint_loss(batch, *mods, metric)
        parts = ((bd.l_xx + bd.l_yy) + bd.l_xy) + bd.l_yx
        assert bd.total == parts + metric.weight * bd.d
        assert total.item() == bd.total

    def test_metric_none_contributes_zero(self, tiny_pair):
        vx, vy, batch = tiny_pair
        mods = make_modules(vx, vy)
        bd, _ = joint_loss(batch, *mods, DistanceMetric("none"))
        assert bd.d == 0.0
        assert bd.total == ((bd.l_xx + bd.l_yy) + bd.l_xy) + bd.l_yx

    def test_same_encoder_both_sides_zero_distance(self, tiny_pair):
        vx, vy, batch = tiny_pair
        e_x, d_x, _, d_y = make_modules(vx, vy)
        # feed X ids on both sides through the same encoder
        same_batch = type(batch)(batch.src_ids, batch.src_ids,
                                 batch.src_pad_mask, batch.src_pad_mask)
        e_y_same = e_x
        bd, _ = joint_loss(same_batch, e_x, d_x, e_y_same, d_x, DistanceMetric("correlation"))
        assert bd.d == pytest.approx(0.0, abs=1e-9)

    def test_overfit_tiny_corpus(self, tiny_pair):
        # memorizing 8 sentences drives all four CE terms below 0.01
        vx, vy, batch = tiny_pair
        e_x, d_x, e_y, d_y = make_modules(vx, vy, seed=2)
        metric = DistanceMetric("none")
        params = sum((m.parameters() for m in (e_x, d_x, e_y, d_y)), [])
        opt = Adam()
        for step in range(1, 801):
            for m in (e_x, d_x, e_y, d_y):
                m.zero_grad()
            bd, total = joint_loss(batch, e_x, d_x, e_y, d_y, metric)
            total.backward()
            opt.step(params, lr=2e-3 if step > 50 else 2e-3 * step / 50)
        assert max(bd.l_xx, bd.l_yy, bd.l_xy, bd.l_yx) < 0.01
        assert bd.total < 0.04

    def test_one_step_records_266_tape_entries(self, tiny_pair):
        # two blocks, as at the acceptance size: each of the 20 attention
        # sublayers is 5 entries (4 linears and the fused attention)
        vx, vy, batch = tiny_pair
        arch = dict(dim=16, n_blocks=2, n_heads=2, ff_dim=32, seed=1)
        mods = (EncoderModule("X", vx, **arch), DecoderModule("X", vx, **arch),
                EncoderModule("Y", vy, **arch), DecoderModule("Y", vy, **arch))
        _, total = joint_loss(batch, *mods, DistanceMetric())
        seen, todo = set(), [total._op]
        while todo:
            op = todo.pop()
            if id(op) not in seen:
                seen.add(id(op))
                todo.extend(p for p in op.parents if type(p) is _Op)
        assert len(seen) == 266

    def test_dim_mismatch_rejected(self, tiny_pair):
        vx, vy, batch = tiny_pair
        e_x, d_x, e_y, _ = make_modules(vx, vy)
        d_y_small = DecoderModule("Y", vy, dim=8, n_blocks=1, n_heads=2, ff_dim=16, seed=1)
        with pytest.raises(CompositionError, match="compose"):
            joint_loss(batch, e_x, d_x, e_y, d_y_small, DistanceMetric())
