"""Minimal dense-tensor library with reverse-mode autodiff.

Everything is float64: two runs with the same seed and the same BLAS thread
count must produce bit-identical parameters. Nothing here pins BLAS threads;
the caller does, e.g. by setting OPENBLAS_NUM_THREADS=1 before numpy loads,
as the benchmark does.

The op set is the minimum needed for a small transformer plus the training
objective: broadcasting arithmetic, batched matmul, reductions, fused
softmax / cross-entropy / layer-norm, and an embedding gather.
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
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
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
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def check_finite(self, what: str = "tensor") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise GradientError(f"non-finite values in {what}")
        return self

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data - b.data, (a, b), backward)

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None,
            )

        return Tensor._from_op(a.data / b.data, (a, b), backward)

    def __neg__(self):
        a = self

        def backward(g):
            return (-g,)

        return Tensor._from_op(-a.data, (a,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self, other
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
        out = a.data @ b.data

        def backward(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
            return (ga, gb)

        return Tensor._from_op(out, (a, b), backward)

    __matmul__ = matmul

    def exp(self) -> "Tensor":
        a = self
        out = np.exp(a.data)

        def backward(g):
            return (g * out,)

        return Tensor._from_op(out, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g):
            return (g / a.data,)

        return Tensor._from_op(np.log(a.data), (a,), backward)

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

    def tanh(self) -> "Tensor":
        a = self
        out = np.tanh(a.data)

        def backward(g):
            return (g * (1.0 - out * out),)

        return Tensor._from_op(out, (a,), backward)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self

        def backward(g):
            return (g.reshape(a.shape),)

        return Tensor._from_op(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
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
            return (np.broadcast_to(g, a.shape).copy(),)

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
        mu = a.data.mean(axis=-1, keepdims=True)
        centered = a.data - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv
        out = xhat * gain.data + bias.data

        def backward(g):
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            dx = (gy - m1 - xhat * m2) * inv
            axes = tuple(range(g.ndim - 1))
            dgain = (g * xhat).sum(axis=axes)
            dbias = g.sum(axis=axes)
            return (dx, dgain, dbias)

        return Tensor._from_op(out, (a, gain, bias), backward)

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
                # leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
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


def concat(tensors: list, axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return Tensor._from_op(out, tensors, backward)


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
