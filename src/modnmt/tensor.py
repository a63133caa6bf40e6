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
        a = self
        out = np.sqrt(a.data)

        def backward(g):
            return (g / (2.0 * out),)

        return Tensor._from_op(out, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        out = np.maximum(a.data, 0.0)

        def backward(g):
            return (g * (a.data > 0.0),)

        return Tensor._from_op(out, (a,), backward)

    def abs(self) -> "Tensor":
        a = self

        def backward(g):
            return (g * np.sign(a.data),)

        return Tensor._from_op(np.abs(a.data), (a,), backward)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        a = self

        def backward(g):
            return (g.reshape(a.shape),)

        return Tensor._from_op(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes) -> "Tensor":
        a = self

        def backward(g):
            return (g.transpose(np.argsort(axes)),)

        return Tensor._from_op(a.data.transpose(axes), (a,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape),)

        return Tensor._from_op(out, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        count = a.data.size if axis is None else a.data.shape[axis]
        return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- fused neural-net ops -------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along `axis`."""
        a = self
        if not (-a.ndim <= axis < a.ndim):
            raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return ((g - dot) * out,)

        return Tensor._from_op(out, (a,), backward)

    def layer_norm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-6) -> "Tensor":
        """Normalize over the last axis, then scale and shift."""
        a = self
        n = a.data.shape[-1]
        # np.add.reduce(...) / n is ndarray.mean's arithmetic without its Python wrapper
        mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
        centered = a.data - mu
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(var + eps)
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
        a = self
        ids = np.asarray(ids)
        out = a.data[ids]

        def backward(g):
            da = np.zeros_like(a.data)
            np.add.at(da, ids.reshape(-1), g.reshape(-1, a.data.shape[-1]))
            return (da,)

        return Tensor._from_op(out, (a,), backward)

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
        borrowed: set[int] = set()
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
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                if acc is None:
                    # a view / alias of g may be shared with another parent:
                    # copy it before any in-place accumulation, and only then
                    # if it is contiguous (most are never accumulated into)
                    if pg is g or not pg.flags.owndata:
                        if pg.flags.c_contiguous:
                            borrowed.add(id(parent))
                        else:
                            pg = pg.copy()
                    grads[id(parent)] = pg
                else:
                    if id(parent) in borrowed:
                        borrowed.discard(id(parent))
                        acc = grads[id(parent)] = acc.copy()
                    acc += pg


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

    def backward(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[np.arange(n), targets] -= 1.0
        probs *= (valid / n_valid)[:, None] * g
        return (probs,)

    return Tensor._from_op(out, (flat,), backward)


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
