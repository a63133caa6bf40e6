import operator
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnmt.optim import Adam, Parameter
from modnmt.tensor import (
    GradientError,
    ShapeError,
    Tensor,
    cross_entropy,
    finite_difference_gradient,
    no_grad,
)


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestMatmul:
    def test_identity(self):
        x = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = Tensor(np.eye(2)) @ Tensor(x)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_product(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_annihilation(self):
        out = Tensor(np.zeros((3, 4))) @ Tensor(np.ones((4, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 2)))

    def test_gradient_both_operands(self):
        rng = np.random.default_rng(0)
        a = Tensor(rand(rng, 3, 4), requires_grad=True)
        b = Tensor(rand(rng, 4, 2), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad is not None and b.grad is not None
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)


class TestSoftmax:
    def test_uniform(self):
        out = Tensor([0.0, 0.0, 0.0, 0.0]).softmax(-1)
        np.testing.assert_allclose(out.data, [0.25] * 4)

    def test_hand_values(self):
        out = Tensor([np.log(1.0), np.log(3.0)]).softmax(-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_overflow_stability(self):
        out = Tensor([1000.0, 0.0]).softmax(-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).softmax(3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 6)
        out = Tensor(x).softmax(-1).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        shifted = Tensor(x + 37.5).softmax(-1).data
        np.testing.assert_allclose(out, shifted, atol=1e-9)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2], [True] * 3)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_near_certain(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 20.0
        loss = cross_entropy(Tensor(logits), [2], [True])
        assert loss.item() < 1e-8

    def test_hand_value(self):
        logits = np.array([[np.log(3.0), np.log(1.0)]])
        loss = cross_entropy(Tensor(logits), [0], [True])
        assert loss.item() == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_masked_positions_excluded(self):
        logits = np.zeros((2, 4))
        logits[1] = [50.0, 0.0, 0.0, 0.0]  # would dominate if counted
        loss = cross_entropy(Tensor(logits), [0, 3], [True, False])
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_all_masked_is_degenerate(self):
        with pytest.raises(GradientError, match="masked"):
            cross_entropy(Tensor(np.zeros((2, 4))), [0, 1], [False, False])

    def test_target_out_of_range(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((1, 4))), [7], [True])


class TestBackward:
    def test_linear_sum(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_quadratic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_unreachable_untouched(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        w.sum().backward()
        assert other.grad is None

    def test_non_scalar_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError, match="scalar"):
            (w * 2.0).backward()

    def test_shared_subexpression_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        y = w * 2.0
        (y + y).sum().backward()
        np.testing.assert_array_equal(w.grad, [4.0])

    def test_aliased_gradient_paths(self):
        # a + a routes the same upstream gradient to one parent twice
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a + a).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    def test_shared_gradient_accumulates_per_parent(self):
        # h + k hands h and k the same gradient array, and each then adds a
        # second gradient; an add into the shared array would corrupt the other
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        h, k = a * 1.0, b * 1.0
        ((h + k + h * 3.0 + k * 5.0) * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [8.0, 8.0])
        np.testing.assert_array_equal(b.grad, [12.0, 12.0])

    def test_second_pass_adds_into_leaf_gradient(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        (w * w).sum().backward()
        first = w.grad
        (w * 3.0).sum().backward()
        assert w.grad is first
        np.testing.assert_array_equal(w.grad, [5.0, 7.0])

    def test_no_grad_suppresses_tape(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = w * 3.0
        assert not out.requires_grad


OPS = {
    "add": lambda a, b: (a + b).sum(),
    "sub": lambda a, b: (a - b).sum(),
    "mul": lambda a, b: (a * b).mean(),
    "div": lambda a, b: (a / (b * b + 1.0)).sum(),
    "matmul": lambda a, b: (a.reshape(4, 6) @ b.reshape(6, 4)).sum(),
    "sqrt": lambda a, b: ((a * a + 0.5).sqrt()).sum(),
    "relu": lambda a, b: (a.relu() * b.data).sum(),
    "abs": lambda a, b: ((a + 0.1).abs()).sum(),
    "softmax": lambda a, b: (a.reshape(4, 6).softmax(-1) * b.data.reshape(4, 6)).sum(),
    "transpose": lambda a, b: (a.reshape(2, 3, 4).transpose(2, 0, 1) * 1.5).sum(),
    "mean_axis": lambda a, b: a.reshape(4, 6).mean(axis=1).sum(),
    "sum_keepdims": lambda a, b: (a.reshape(4, 6).sum(axis=0, keepdims=True) * 2.0).sum(),
    "broadcast_add": lambda a, b: (a.reshape(4, 6) + b.reshape(4, 6).sum(axis=0, keepdims=True)).sum(),
}
B_ON_TAPE = {"add", "sub", "mul", "div", "matmul", "broadcast_add"}  # the others read b.data or not b


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_matches_finite_differences(name):
    # relative error < 1e-3 on random small inputs (shapes <= 8)
    f = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a = Tensor(rand(rng, 24), requires_grad=True)
    b = Tensor(rand(rng, 24), requires_grad=True)
    loss = f(a, b)
    loss.backward()
    assert (b.grad is not None) == (name in B_ON_TAPE)
    for t in (a, b) if name in B_ON_TAPE else (a,):
        fd = finite_difference_gradient(lambda: f(Tensor(a.data), Tensor(b.data)).item(), t)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(t.grad - fd).max() / scale < 1e-3


BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv, "matmul": operator.matmul}
# (left shape, right shape, left requires grad, right requires grad); None is a Python scalar
ELEMENTWISE_CASES = {
    "broadcast_right": ((3, 4), (4,), True, True),
    "broadcast_left": ((4,), (3, 4), True, True),
    "scalar_right": ((3, 4), None, True, False),
    "scalar_left": (None, (3, 4), False, True),
    "constant_right": ((3, 4), (3, 4), True, False),
    "constant_left": ((3, 4), (3, 4), False, True),
}
MATMUL_CASES = {
    "broadcast_right": ((2, 3, 4), (4, 5), True, True),
    "broadcast_left": ((3, 4), (2, 4, 5), True, True),
    "constant_right": ((3, 4), (4, 5), True, False),
    "constant_left": ((3, 4), (4, 5), False, True),
}


def _cases(op):
    return MATMUL_CASES if op == "matmul" else ELEMENTWISE_CASES


@pytest.mark.parametrize("op, case", [
    (op, case) for op in BINARY for case in _cases(op)
    if (op, case) != ("div", "scalar_left")  # Tensor has no __rtruediv__
])
def test_binary_op_gradients(op, case):
    left, right, left_grad, right_grad = _cases(op)[case]
    rng = np.random.default_rng(4)

    def operand(shape, trainable):
        return 1.5 if shape is None else Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=trainable)

    def data(t):
        return Tensor(t.data) if isinstance(t, Tensor) else t

    x, y = operand(left, left_grad), operand(right, right_grad)
    out = BINARY[op](x, y)
    weights = rand(rng, *out.shape)
    (out * weights).sum().backward()
    for t in (x, y):
        if not isinstance(t, Tensor):
            continue
        if not t.requires_grad:
            assert t.grad is None
            continue
        fd = finite_difference_gradient(lambda: (BINARY[op](data(x), data(y)) * weights).sum().item(), t)
        assert t.grad.shape == t.shape
        assert np.abs(t.grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-6


# (leaf shapes, the op on those leaves): the binary ops, the single-operand
# ops and the fused ones
READ_ONLY_CASES = {
    "add": (((3, 4), (4,)), operator.add),
    "sub": (((3, 4), (4,)), operator.sub),
    "mul": (((3, 4), (4,)), operator.mul),
    "div": (((3, 4), (4,)), operator.truediv),
    "matmul": (((2, 3, 4), (4, 5)), operator.matmul),
    "sqrt": (((3, 4),), Tensor.sqrt),
    "relu": (((3, 4),), Tensor.relu),
    "abs": (((3, 4),), Tensor.abs),
    "reshape": (((3, 4),), lambda a: a.reshape(2, 6)),
    "transpose": (((2, 3, 4),), lambda a: a.transpose(2, 0, 1)),
    "sum": (((3, 4),), lambda a: a.sum(axis=0)),
    "softmax": (((3, 4),), lambda a: a.softmax(-1)),
    "embedding": (((5, 4),), lambda a: a.embedding(np.array([[0, 2, 2]]))),
    "layer_norm": (((3, 4), (4,), (4,)), Tensor.layer_norm),
    "linear": (((2, 3, 4), (4, 5), (5,)), Tensor.linear),
    "cross_entropy": (((3, 5),), lambda a: cross_entropy(a, [1, 0, 4], [True, False, True])),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY_CASES))
def test_backward_never_writes_into_its_upstream_gradient(name):
    # backward() shares one gradient array among parents and adds to it out of
    # place, which is sound only while no op writes into the g it is handed
    shapes, op = READ_ONLY_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    out = op(*(Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True) for shape in shapes))
    g = rng.uniform(-1.0, 1.0, out.shape)
    g.setflags(write=False)
    grads = out._backward(g)
    assert len(grads) == len(out._parents)
    assert all(pg is not None for pg in grads)


def test_first_gradient_of_negative_zero_is_positive_zero():
    w = Tensor([1.0, 2.0], requires_grad=True)
    (w * -0.0).sum().backward()
    assert np.signbit(w.grad).tolist() == [False, False]


def test_layer_norm_gradients():
    rng = np.random.default_rng(5)
    x = Tensor(rand(rng, 3, 8), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, 8), requires_grad=True)
    bias = Tensor(rand(rng, 8), requires_grad=True)

    def f(xv, gv, bv):
        return (Tensor(xv).layer_norm(Tensor(gv), Tensor(bv)) * weights).sum().item()

    weights = rand(rng, 3, 8)
    loss = (x.layer_norm(gain, bias) * weights).sum()
    loss.backward()
    for t in (x, gain, bias):
        fd = finite_difference_gradient(lambda: f(x.data, gain.data, bias.data), t)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(t.grad - fd).max() / scale < 1e-3


@pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
def test_linear_equals_composed_ops(lead):
    rng = np.random.default_rng(9)
    x0, w0, b0, weights = rand(rng, *lead, 4), rand(rng, 4, 6), rand(rng, 6), rand(rng, *lead, 6)

    def run(fused):
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (x0, w0, b0))
        if fused:
            out = x.linear(w, b)
        else:
            flat = x.reshape(-1, 4) if len(lead) > 1 else x
            out = (flat @ w + b).reshape(*lead, 6)
        (out * weights).sum().backward()
        return [out.data, x.grad, w.grad, b.grad]

    for fused, composed in zip(run(True), run(False)):
        assert fused.tobytes() == composed.tobytes()


def test_embedding_gradient_scatter():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2, 2]])
    out = table.embedding(ids)
    (out * 1.0).sum().backward()
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0  # repeated id accumulates
    np.testing.assert_array_equal(table.grad, expected)


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(2)
    logits = Tensor(rand(rng, 4, 5), requires_grad=True)
    targets = np.array([1, 0, 4, 2])
    valid = np.array([True, True, False, True])
    cross_entropy(logits, targets, valid).backward()
    fd = finite_difference_gradient(
        lambda: cross_entropy(Tensor(logits.data), targets, valid).item(), logits)
    assert np.abs(logits.grad - fd).max() < 1e-6


class TestFiniteDifference:
    def test_square(self):
        x = Tensor([3.0])
        grad = finite_difference_gradient(lambda: float(x.data[0] ** 2), x, eps=1e-4)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        x = Tensor([1.0, 2.0])
        grad = finite_difference_gradient(lambda: 42.0, x)
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_two_layer_net(self):
        rng = np.random.default_rng(9)
        w1 = Tensor(rand(rng, 4, 6), requires_grad=True)
        w2 = Tensor(rand(rng, 6, 2), requires_grad=True)
        x = rand(rng, 3, 4)

        def net():
            h = (Tensor(x) @ w1).relu()
            return ((h @ w2) * (h @ w2)).sum()

        loss = net()
        loss.backward()
        for w in (w1, w2):
            fd = finite_difference_gradient(lambda: net().item(), w)
            scale = max(np.abs(fd).max(), 1e-8)
            assert np.abs(w.grad - fd).max() / scale < 1e-3


class TestAdam:
    def _param(self, values):
        return Parameter("p", Tensor(values, requires_grad=True))

    def test_zero_gradient_no_move(self):
        p = self._param([1.0, -2.0])
        before = p.tensor.data.copy()
        Adam().step([p], lr=0.1)
        np.testing.assert_array_equal(p.tensor.data, before)

    def test_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr in the gradient's sign direction
        p = self._param([1.0])
        p.tensor.grad = np.array([0.37])
        lr = 1e-3
        Adam().step([p], lr=lr)
        delta = 1.0 - p.tensor.data[0]
        assert delta == pytest.approx(lr, rel=1e-6)

    def test_frozen_untouched(self):
        p = self._param([1.0, 2.0])
        p.frozen = True
        p.tensor.grad = np.array([5.0, -5.0])
        before = p.tensor.data.tobytes()
        opt = Adam()
        opt.step([p], lr=0.1)
        assert p.tensor.data.tobytes() == before
        assert "p" not in opt.first_moment

    def test_lr_zero_bit_identical(self):
        rng = np.random.default_rng(1)
        p = self._param(rand(rng, 8))
        p.tensor.grad = rand(rng, 8)
        before = p.tensor.data.tobytes()
        Adam().step([p], lr=0.0)
        assert p.tensor.data.tobytes() == before

    def test_non_finite_gradient_aborts(self):
        p = self._param([1.0])
        p.tensor.grad = np.array([np.nan])
        with pytest.raises(GradientError, match="non-finite"):
            Adam().step([p], lr=0.1)

    def test_step_count_increments(self):
        p = self._param([1.0])
        opt = Adam()
        for expected in (1, 2, 3):
            p.tensor.grad = np.array([0.1])
            opt.step([p], lr=1e-3)
            assert opt.step_count == expected

    def test_seeded_determinism(self):
        def run():
            rng = np.random.default_rng(77)
            p = self._param(rng.uniform(-1, 1, 6))
            opt = Adam()
            for _ in range(25):
                p.tensor.grad = rng.uniform(-1, 1, 6)
                opt.step([p], lr=1e-2)
            return p.tensor.data.tobytes()

        assert run() == run()
