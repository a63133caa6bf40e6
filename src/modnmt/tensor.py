"""Minimal dense-tensor library with reverse-mode autodiff.

Everything is float64: two runs with the same seed and the same BLAS thread
count must produce bit-identical parameters. Nothing here pins BLAS threads;
the caller does, e.g. by setting OPENBLAS_NUM_THREADS=1 before numpy loads,
as the benchmark and the test suite do.

The op set is the minimum needed for a small transformer plus the training
objective: broadcasting arithmetic, batched matmul, reductions, fused
softmax / cross-entropy / layer-norm / linear, and an embedding gather.
"""

from __future__ import annotations

import numpy as np


class GradientError(ValueError):
    """Raised when a backward pass or optimizer step hits invalid state."""


class ShapeError(ValueError):
    """Raised on incompatible operand shapes."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


_GRAD_ENABLED = True

LAYER_NORM_EPS = 1e-6


class Tensor:
    """A float64 ndarray with an optional gradient tape entry."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None  # made by the first backward pass that reaches this tensor
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
                    break
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _binary(self, other, forward, grad_a, grad_b) -> "Tensor":
        """The one rule of a broadcasting binary op on self and `other`.

        `forward(a, b)` is the op on the operands' data; `grad_a(g, a, b)` and
        `grad_b(g, a, b)` are each operand's raw gradient, computed only for
        an operand that requires grad and then summed down to its shape.
        """
        a, b = self, Tensor._coerce(other)

        def backward(g):
            return (
                _unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
                _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(forward(a.data, b.data), (a, b), backward)

    def _unary(self, out: np.ndarray, grad) -> "Tensor":
        """The one rule of a single-operand op with value `out`: `grad(g)` is
        the gradient for self given the upstream gradient `g`."""
        return Tensor._from_op(out, (self,), lambda g: (grad(g),))

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide, lambda g, a, b: g / b,
                            lambda g, a, b: -g * a / (b * b))

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        if self.shape[-1] != other.shape[-2 if other.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner extents differ: {self.shape} vs {other.shape}")
        return self._binary(other, np.matmul, lambda g, a, b: g @ np.swapaxes(b, -1, -2),
                            lambda g, a, b: np.swapaxes(a, -1, -2) @ g)

    __matmul__ = matmul

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return self._unary(out, lambda g: g / (2.0 * out))

    def relu(self) -> "Tensor":
        return self._unary(np.maximum(self.data, 0.0), lambda g: g * (self.data > 0.0))

    def abs(self) -> "Tensor":
        return self._unary(np.abs(self.data), lambda g: g * np.sign(self.data))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        return self._unary(self.data.reshape(shape), lambda g: g.reshape(self.shape))

    def transpose(self, *axes) -> "Tensor":
        return self._unary(self.data.transpose(axes), lambda g: g.transpose(np.argsort(axes)))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def grad(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.shape)

        return self._unary(self.data.sum(axis=axis, keepdims=keepdims), grad)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- fused neural-net ops -------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along `axis`."""
        if not (-self.ndim <= axis < self.ndim):
            raise ShapeError(f"softmax axis {axis} invalid for shape {self.shape}")
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        return self._unary(out, lambda g: (g - (g * out).sum(axis=axis, keepdims=True)) * out)

    def layer_norm(self, gain: "Tensor", bias: "Tensor") -> "Tensor":
        """Normalize over the last axis, then scale and shift."""
        a = self
        n = a.data.shape[-1]
        # np.add.reduce(...) / n is ndarray.mean's arithmetic without its Python wrapper
        mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
        centered = a.data - mu
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat = centered * inv
        out = xhat * gain.data + bias.data

        def backward(g):
            gy = g * gain.data
            m1 = np.add.reduce(gy, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(gy * xhat, axis=-1, keepdims=True) / n
            dx = (gy - m1 - xhat * m2) * inv
            axes = tuple(range(g.ndim - 1))
            dgain = (g * xhat).sum(axis=axes)
            dbias = g.sum(axis=axes)
            return (dx, dgain, dbias)

        return Tensor._from_op(out, (a, gain, bias), backward)

    def linear(self, w: "Tensor", b: "Tensor") -> "Tensor":
        """[..., D_in] @ w [D_in, D_out] + b [D_out] as one op and one GEMM.

        The arithmetic is that of reshape, matmul, add and reshape back, so
        the values and gradients are bit-identical to composing those ops.
        """
        x = self
        flat = x.data.reshape(-1, x.data.shape[-1])
        out = (flat @ w.data + b.data).reshape(*x.data.shape[:-1], -1)

        def backward(g):
            g = g.reshape(flat.shape[0], -1)
            gx = (g @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
            gw = flat.T @ g if w.requires_grad else None
            gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
            return (gx, gw, gb)

        return Tensor._from_op(out, (x, w, b), backward)

    def embedding(self, ids: np.ndarray) -> "Tensor":
        """Gather rows of a [V, D] table; self is the table."""
        ids = np.asarray(ids)

        def grad(g):
            da = np.zeros_like(self.data)
            np.add.at(da, ids.reshape(-1), g.reshape(-1, self.data.shape[-1]))
            return da

        return self._unary(self.data[ids], grad)

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Only valid on scalars; raises otherwise.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise GradientError(f"backward() requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            return

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # leaf: 0.0 + g copies the first gradient and turns any -0.0 into
                # +0.0, the value a sum into zeros gives; later ones add into it
                if node.grad is None:
                    node.grad = 0.0 + g
                else:
                    node.grad += g
                continue
            # a gradient may be g itself or a view shared with another parent;
            # that is safe because no op's backward writes into the g it is
            # handed, so gradients are stored as given and added out of place
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg


def cross_entropy(logits: Tensor, targets: np.ndarray, valid_mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over positions where `valid_mask` is True.

    logits: [N, V]; targets: int ids [N]; valid_mask: bool [N]. Padded (False)
    positions are excluded from both the sum and the normalizer.
    """
    targets = np.asarray(targets).reshape(-1)
    valid = np.asarray(valid_mask, dtype=bool).reshape(-1)
    flat = logits.reshape(-1, logits.shape[-1])
    n, v = flat.shape
    if targets.shape[0] != n or valid.shape[0] != n:
        raise ShapeError(f"cross_entropy: {n} logit rows vs {targets.shape[0]} targets")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        raise ShapeError(f"target id out of range for vocabulary size {v}")
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise GradientError("cross_entropy: all positions masked (degenerate batch)")

    x = flat.data
    xmax = x.max(axis=-1, keepdims=True)
    shifted = x - xmax
    lse = np.log(np.exp(shifted).sum(axis=-1)) + xmax[:, 0]
    picked = x[np.arange(n), targets]
    losses = (lse - picked) * valid
    out = np.asarray(losses.sum() / n_valid)

    def grad(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(n), targets] -= 1.0
        probs *= (valid / n_valid)[:, None] * g
        return probs

    return flat._unary(out, grad)


def finite_difference_gradient(f, param: Tensor, eps: float = 1e-4) -> np.ndarray:
    """Central-difference estimate of d f() / d param, per coordinate.

    `f` must be a deterministic nullary function reading `param.data`.
    """
    base = param.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f())
        flat[i] = orig - eps
        lo = float(f())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
