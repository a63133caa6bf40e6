"""Minimal dense-tensor library with reverse-mode autodiff.

Everything is float64: two runs with the same seed and the same BLAS thread
count must produce bit-identical parameters. Nothing here pins or changes BLAS
threads; the caller does, e.g. by setting OPENBLAS_NUM_THREADS=1 before numpy
loads, as the benchmark and the test suite do.

`Tensor.linear`, and nothing else, shares its large GEMMs with one private
worker thread, started on first use (`LINEAR_SPLIT`). From `SPLIT_ROWS`
flattened rows, `x @ w` and a lone input gradient `g @ w.T` run as two row
halves, one per thread, into one output; when both gradients are needed,
`x.T @ g` runs whole on the worker beside `g @ w.T`. `x.T @ g` reduces over
the rows and is never split. numpy releases the GIL inside BLAS, so the parts
overlap, and the worker leaves BLAS threads as the caller set them.

Each part is the numpy call of the unsplit op, or that call on row halves, so
the bytes are the unsplit op's wherever a GEMM row's bits do not depend on
how many rows share the call, the property the decoder cache's byte equality
with a full recompute and the inference encoder's packed real rows already
rest on. OpenBLAS 0.3.31 keeps it at 256 to 2100 rows for every pair of widths
among 16, 24, 32, 64, 96, 128 and 256, but not for every shape: [M, 64] @
[64, 12] switches kernels near M = 1300, and [M, 32] @ [32, 8] differs at
M = 256 to 300.

The op set is the minimum needed for a small transformer plus the training
objective: broadcasting arithmetic, batched matmul, reductions, fused
softmax / cross-entropy / layer-norm / linear / multi-head attention, and an
embedding gather.

The tape holds only what gradients read: an `_Op` entry per recorded op keeps
its operands' entries and the arrays its rule saved, never a result `Tensor`,
and `Tensor.backward` consumes the graph, freeing each entry as it runs.

Because `backward` frees saved arrays while it runs, glibc's malloc would
hand the top of the heap back to the kernel mid-pass, and the gradients
allocated next would fault the same pages in again. Importing this module
therefore raises glibc's mmap and trim thresholds (`HEAP`), so freed memory
stays mapped for the next allocation; where `mallopt` is absent nothing
changes and `HEAP` reads "default".
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# glibc adapts its mmap threshold (from 128 kB up to 32 MB) and its trim
# threshold (twice the mmap one) as large blocks are freed. Setting any one
# tunable, e.g. only MALLOC_TOP_PAD_, turns that off and leaves the mmap
# threshold at 128 kB, so every array over 128 kB gets its own mapping and
# faults in anew; hence the mmap threshold is set to the 32 MB ceiling the
# adaptation would reach, and only then the trim threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _keep_heap_mapped() -> str:
    """Apply both thresholds through glibc's `mallopt`; say what was applied."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return "default"
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        return f"mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
    return "default"


HEAP = _keep_heap_mapped()

# Handing half a GEMM to the worker costs about 12 us, which a [256, 64] @ [64, 64]
# product just repays; row halves of 128 or more also keep the bits (see above).
SPLIT_ROWS = 256
LINEAR_SPLIT = (f"rows>={SPLIT_ROWS}: x@w and lone g@w.T in row halves, "
                "x.T@g whole beside g@w.T, on 1 worker thread")


def _new_worker() -> None:
    """Make the one-thread executor; its thread starts with the first task.

    A forked child gets a new one: it has no copy of the worker thread, so the
    executor it inherits would queue tasks that nothing runs.
    """
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="modnmt-linear")


_new_worker()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_new_worker)


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; from SPLIT_ROWS rows of `a`, the worker computes the top half."""
    m = a.shape[0]
    if m < SPLIT_ROWS:
        return a @ b
    out = np.empty((m, b.shape[1]))
    top = _worker.submit(np.matmul, a[:m // 2], b, out=out[:m // 2])
    np.matmul(a[m // 2:], b, out=out[m // 2:])
    top.result()
    return out


class GradientError(ValueError):
    """Raised when a backward pass or optimizer step hits invalid state."""


class ShapeError(ValueError):
    """Raised on incompatible operand shapes."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax of `x` along `axis`, in a new array."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """The gradient through a softmax whose output is `out`; `g` is only read."""
    d = g - (g * out).sum(axis=axis, keepdims=True)
    d *= out
    return d


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


def is_grad_enabled() -> bool:
    """Whether ops are recorded on the tape: False inside `no_grad`."""
    return _GRAD_ENABLED


LAYER_NORM_EPS = 1e-6


class _Op:
    """A recorded op: per operand, `parents` holds its `_Op`, the leaf, or None off
    the tape; `backward(g)` gives one gradient each, and is None once it has run."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward):
        self.parents = parents
        self.backward = backward


class Tensor:
    """A float64 ndarray; `_op` is its tape entry when a recorded op made it."""

    __slots__ = ("data", "requires_grad", "grad", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None  # made by the first backward pass that reaches this tensor
        self._op = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, operands: tuple, rule) -> "Tensor":
        """An op's result; only if it is recorded does `rule(*on_tape)` make its backward."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = out._op = None
        on_tape = [t.requires_grad for t in operands] if _GRAD_ENABLED else ()
        out.requires_grad = True in on_tape
        if out.requires_grad:
            parents = tuple([(t._op or t) if t.requires_grad else None for t in operands])
            out._op = _Op(parents, rule(*on_tape))
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

    def _binary(self, other, forward, grad_a, grad_b, reads: tuple) -> "Tensor":
        """The one rule of a broadcasting binary op on self and `other`.

        `forward(a, b)` is the op on the operands' data; `grad_a(g, a, b)` and
        `grad_b(g, a, b)` are each operand's raw gradient, computed only for
        an operand on the tape and then summed down to its shape; only the
        operand values `reads[i]` names for the i-th formula are saved.
        """
        a, b = self, Tensor._coerce(other)

        def rule(need_a, need_b):
            saved = (reads[0] if need_a else "") + (reads[1] if need_b else "")
            av, bv = (a.data if "a" in saved else None), (b.data if "b" in saved else None)
            a_shape, b_shape = a.data.shape, b.data.shape
            return lambda g: (_unbroadcast(grad_a(g, av, bv), a_shape) if need_a else None,
                              _unbroadcast(grad_b(g, av, bv), b_shape) if need_b else None)

        return Tensor._from_op(forward(a.data, b.data), (a, b), rule)

    def _unary(self, out: np.ndarray, grad) -> "Tensor":
        """A one-operand op with value `out`; `grad(g)`, reading no Tensor, is self's gradient."""
        return Tensor._from_op(out, (self,), lambda need: lambda g: (grad(g),))

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g, ("", ""))

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g, ("", ""))

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a,
                            ("b", "a"))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide, lambda g, a, b: g / b,
                            lambda g, a, b: -g * a / (b * b), ("b", "ab"))

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        if self.shape[-1] != other.shape[-2 if other.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner extents differ: {self.shape} vs {other.shape}")
        return self._binary(other, np.matmul, lambda g, a, b: g @ np.swapaxes(b, -1, -2),
                            lambda g, a, b: np.swapaxes(a, -1, -2) @ g, ("b", "a"))

    __matmul__ = matmul

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return self._unary(out, lambda g: g / (2.0 * out))

    def relu(self) -> "Tensor":
        out = np.maximum(self.data, 0.0)  # out > 0.0 is the mask x > 0.0
        return self._unary(out, lambda g: g * (out > 0.0))

    def abs(self) -> "Tensor":
        x = self.data
        return self._unary(np.abs(x), lambda g: g * np.sign(x))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        before = self.shape
        return self._unary(self.data.reshape(shape), lambda g: g.reshape(before))

    def transpose(self, *axes) -> "Tensor":
        return self._unary(self.data.transpose(axes), lambda g: g.transpose(np.argsort(axes)))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape)

        return self._unary(self.data.sum(axis=axis, keepdims=keepdims), grad)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- fused neural-net ops -------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along `axis`."""
        if not (-self.ndim <= axis < self.ndim):
            raise ShapeError(f"softmax axis {axis} invalid for shape {self.shape}")
        out = _softmax(self.data, axis)
        return self._unary(out, lambda g: _softmax_grad(g, out, axis))

    def attention(self, k: "Tensor", v: "Tensor", n_heads: int, bias: np.ndarray | None) -> "Tensor":
        """Multi-head scaled dot-product attention as one op; self is the query.

        q [B,Tq,D] and k, v [B,Tk,D] are split into `n_heads` heads of D/H
        channels; `bias`, an additive mask broadcast to [B,H,Tq,Tk] (None: no
        mask), joins the scaled scores before the softmax, and the heads'
        contexts merge back to [B,Tq,D]. The numpy calls, forward and
        backward, are those of the split, matmul, scale, add, softmax, matmul
        and merge ops in turn, so values and gradients are bit-identical to
        composing them.
        """
        (b, tq, d), tk = self.shape, k.shape[1]
        if d % n_heads or k.shape != (b, tk, d) or v.shape != k.shape:
            raise ShapeError(f"attention: q {self.shape}, k {k.shape}, v {v.shape}, {n_heads} heads")
        dh = d // n_heads
        qh, kh, vh = (t.data.reshape(b, t.shape[1], n_heads, dh).transpose(0, 2, 1, 3)
                      for t in (self, k, v))
        scale = 1.0 / np.sqrt(dh)
        scores = qh @ np.swapaxes(kh, -1, -2)
        scores *= scale
        if bias is not None:
            scores += bias
        probs = _softmax(scores, -1)
        out = (probs @ vh).transpose(0, 2, 1, 3).reshape(b, tq, d)

        def merge(heads: np.ndarray) -> np.ndarray:
            return heads.transpose(0, 2, 1, 3).reshape(b, heads.shape[2], d)

        def rule(need_q, need_k, need_v):
            scores_on_tape = need_q or need_k
            kv, qv, vv = (kh if need_q else None), (qh if need_k else None), (vh if scores_on_tape else None)

            def backward(g):
                gc = g.reshape(b, tq, n_heads, dh).transpose(0, 2, 1, 3)
                gq = gk = None
                if scores_on_tape:
                    gs = _softmax_grad(gc @ np.swapaxes(vv, -1, -2), probs, -1)
                    gs *= scale
                    gq = merge(gs @ kv) if need_q else None
                    gk = merge(np.swapaxes(np.swapaxes(qv, -1, -2) @ gs, -1, -2)) if need_k else None
                gv = merge(np.swapaxes(probs, -1, -2) @ gc) if need_v else None
                return (gq, gk, gv)
            return backward

        return Tensor._from_op(out, (self, k, v), rule)

    def layer_norm(self, gain: "Tensor", bias: "Tensor") -> "Tensor":
        """Normalize over the last axis, then scale and shift."""
        n = self.data.shape[-1]
        # np.add.reduce(...) / n is ndarray.mean's arithmetic without its Python wrapper
        mu = np.add.reduce(self.data, axis=-1, keepdims=True) / n
        centered = self.data - mu
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat = centered * inv
        out = xhat * gain.data + bias.data

        gv = gain.data

        def rule(need_x, need_gain, need_bias):
            def backward(g):
                gy = g * gv
                m1 = np.add.reduce(gy, axis=-1, keepdims=True) / n
                m2 = np.add.reduce(gy * xhat, axis=-1, keepdims=True) / n
                axes = tuple(range(g.ndim - 1))
                dgain = (g * xhat).sum(axis=axes) if need_gain else None
                dbias = g.sum(axis=axes) if need_bias else None
                return ((gy - m1 - xhat * m2) * inv, dgain, dbias)
            return backward

        return Tensor._from_op(out, (self, gain, bias), rule)

    def linear(self, w: "Tensor", b: "Tensor") -> "Tensor":
        """[..., D_in] @ w [D_in, D_out] + b [D_out] as one op and one GEMM.

        The arithmetic is that of reshape, matmul, add and reshape back, so
        the values and gradients are bit-identical to composing those ops,
        also where a large GEMM is shared with the worker thread, on the
        shapes the module docstring names.
        """
        flat = self.data.reshape(-1, self.data.shape[-1])
        out = _matmul_rows(flat, w.data)
        out += b.data
        out = out.reshape(*self.data.shape[:-1], -1)

        def rule(need_x, need_w, need_b):
            wv, xv = (w.data if need_x else None), (flat if need_w else None)
            x_shape, b_shape = self.data.shape, b.data.shape
            def backward(g):
                g = g.reshape(-1, g.shape[-1])
                if need_x and need_w and len(g) >= SPLIT_ROWS:
                    gw = _worker.submit(np.matmul, xv.T, g)
                    gx = g @ wv.T
                    gw = gw.result()
                else:
                    gx = _matmul_rows(g, wv.T) if need_x else None
                    gw = xv.T @ g if need_w else None
                gb = _unbroadcast(g, b_shape) if need_b else None
                return (gx.reshape(x_shape) if need_x else None, gw, gb)
            return backward

        return Tensor._from_op(out, (self, w, b), rule)

    def embedding(self, ids: np.ndarray) -> "Tensor":
        """Gather rows of a [V, D] table; self is the table."""
        ids = np.asarray(ids)
        shape = self.data.shape

        def grad(g):
            da = np.zeros(shape)
            np.add.at(da, ids.reshape(-1), g.reshape(-1, shape[-1]))
            return da

        return self._unary(self.data[ids], grad)

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Only valid on scalars; raises otherwise. The pass consumes the graph.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise GradientError(f"backward() requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            return

        root = self if self._op is None else self._op
        order: list = []  # _Op entries and leaf tensors, parents first
        seen: set[int] = set()
        stack: list[tuple] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if type(node) is _Op:
                if node.backward is None:
                    raise GradientError("backward() reached a graph an earlier backward() consumed")
                stack.extend((p, False) for p in node.parents)

        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if type(node) is Tensor:
                # leaf: 0.0 + g copies the first gradient and turns any -0.0 into
                # +0.0, the value a sum into zeros gives; later ones add into it
                if node.grad is None:
                    node.grad = 0.0 + g
                else:
                    node.grad += g
                continue
            rule, node.backward = node.backward, None
            # a gradient may be g itself or a view shared with another parent;
            # that is safe because no op's backward writes into the g it is
            # handed, so gradients are stored as given and added out of place
            for parent, pg in zip(node.parents, rule(g)):
                if parent is None:
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

    `f` must be a deterministic nullary function reading `param.data`; it
    runs under `no_grad`.
    """
    base = param.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    with no_grad():  # f() is only evaluated, so no op in it needs the tape
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f())
            flat[i] = orig - eps
            lo = float(f())
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
