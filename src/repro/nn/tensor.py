"""Reverse-mode automatic differentiation over NumPy arrays.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it so gradients can be computed with :meth:`Tensor.backward`.  The
design follows the classic define-by-run tape: each op returns a new tensor
holding a closure that, given the upstream gradient, accumulates gradients
into its parents.

Only the operations needed by the TURL model family are implemented, but each
is implemented with full broadcasting support so the layers above can be
written naturally.

The hot layers record fused nodes instead of chains of primitive ops:
:func:`linear` is the whole affine map ``x @ W + b`` (one node whose weight
gradient is a single 2-D GEMM over the flattened leading axes), and
:func:`repro.nn.attention.masked_attention` is the whole masked multi-head
attention core.  Fused nodes are built through :meth:`Tensor._make` like
every other op, so the sanitizer, ``op_name`` and the profiler's tape
tagging see them as one node each.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.hooks import TAPE_HOOK
from repro.nn.sanitize import (
    SANITIZER,
    SanitizerError,
    assert_finite_array,
    op_name,
    record_tape_guard,
    verify_tape_guard,
)

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

# Per-thread switch used by ``no_grad`` to disable graph construction during
# evaluation, which keeps inference memory flat.  Thread-local (rather than
# process-global) so concurrent serving workers can each run their own
# inference block without one worker's ``no_grad`` exit re-enabling gradient
# recording mid-predict on another; single-threaded behavior is unchanged.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking inside its block."""
    previous = getattr(_GRAD_STATE, "enabled", True)
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Whether new operations currently record into the autograd tape
    (on the calling thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array contents; converted to ``float64`` for numerical robustness.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("_data", "grad", "requires_grad", "_backward", "_parents",
                 "_version", "_op", "_tape_guard", "_tape_path")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self._version = 0
        self._data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self._op: Optional[str] = None
        self._tape_guard = None
        self._tape_path = None

    @property
    def data(self) -> np.ndarray:
        """The wrapped array.

        Rebinding ``tensor.data`` bumps a per-tensor version counter so the
        opt-in sanitizer (:mod:`repro.nn.sanitize`) can detect updates to
        arrays the autograd tape still references.  Raw ``.data`` indexing or
        assignment outside :mod:`repro.nn` silently detaches gradients and is
        rejected by lint rule TEN001.
        """
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._version += 1

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if SANITIZER.enabled:
            assert_finite_array(data, f"output of op '{op_name(backward)}'")
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward = backward
        if SANITIZER.enabled:
            out._op = op_name(backward)
            out._tape_guard = record_tape_guard(out._parents)
        if TAPE_HOOK.enabled:
            out._tape_path = TAPE_HOOK.tag()
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if SANITIZER.enabled and grad.shape != self._data.shape:
            raise SanitizerError(
                f"gradient shape {grad.shape} != data shape {self._data.shape} "
                f"for tensor created by op '{self._op or '<leaf>'}'")
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 and is only optional for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        sanitizing = SANITIZER.enabled
        if sanitizing and grad.shape != self._data.shape:
            raise SanitizerError(
                f"backward() gradient shape {grad.shape} != output shape "
                f"{self._data.shape}")

        # Topological order over the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        if sanitizing and len(order) != len({id(node) for node in order}):
            raise SanitizerError(
                "topological sweep visited a node twice; the tape is corrupt")

        self._accumulate(grad)
        # Snapshot once: a hook toggled mid-backward must not split the pass.
        tape_hook = TAPE_HOOK if TAPE_HOOK.enabled else None
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                if sanitizing:
                    if node._tape_guard is not None:
                        verify_tape_guard(node._tape_guard, node._op or "<unknown>")
                    assert_finite_array(
                        node.grad,
                        f"gradient flowing into op '{node._op or '<leaf>'}'")
                if tape_hook is not None and node._tape_path is not None:
                    tape_hook.run(node._tape_path, node._backward, node.grad)
                else:
                    node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.shape))
            other_t._accumulate(_unbroadcast(g, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.shape))
            other_t._accumulate(_unbroadcast(-g, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g * other_t.data, self.shape))
            other_t._accumulate(_unbroadcast(g * self.data, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g / other_t.data, self.shape))
            other_t._accumulate(
                _unbroadcast(-g * self.data / (other_t.data**2), other_t.shape)
            )

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        # Promote 1-D operands (NumPy matmul semantics) via reshape so the
        # batched backward below only ever sees >= 2-D arrays.
        if self.ndim == 1 and other_t.ndim == 1:
            return (self * other_t).sum()
        if self.ndim == 1:
            return (self.reshape(1, -1) @ other_t).squeeze(-2)
        if other_t.ndim == 1:
            return (self @ other_t.reshape(-1, 1)).squeeze(-1)
        data = self.data @ other_t.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ np.swapaxes(other_t.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other_t.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other_t._accumulate(_unbroadcast(gb, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable sigmoid: branch on sign to avoid overflow.
        data = np.empty_like(self.data)
        positive = self.data >= 0
        data[positive] = 1.0 / (1.0 + np.exp(-self.data[positive]))
        exp_x = np.exp(self.data[~positive])
        data[~positive] = exp_x / (1.0 + exp_x)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """GELU activation (tanh approximation, as used by BERT)."""
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        # Products, not ``x**3``: NumPy sends a cube through libm ``pow``,
        # about 100x slower than two multiplies.
        x_squared = x * x
        inner = c * (x + 0.044715 * (x_squared * x))
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)

        def backward(g: np.ndarray) -> None:
            dinner = c * (1.0 + 3 * 0.044715 * x_squared)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            self._accumulate(g * local)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                shape = [1 if i in axes else n for i, n in enumerate(self.shape)]
                grad = grad.reshape(shape)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = g
            expanded = data
            if axis is not None and not keepdims:
                axes = (axis,) if np.isscalar(axis) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                shape = [1 if i in axes else n for i, n in enumerate(self.shape)]
                grad = grad.reshape(shape)
                expanded = data.reshape(shape)
            mask = self.data == expanded
            # Split gradient evenly across ties to keep it a valid subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.broadcast_to(grad, self.shape) * mask / counts)

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        """Drop a size-1 axis (implemented as a reshape)."""
        axis = axis % self.ndim
        if self.shape[axis] != 1:
            raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
        shape = list(self.shape)
        shape.pop(axis)
        return self.reshape(tuple(shape))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            self._accumulate(grad)

        return Tensor._make(data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style gather of rows; grad is scatter-added.

        ``indices`` may have any shape; result shape is ``indices.shape + (dim,)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, indices.reshape(-1), g.reshape(-1, self.shape[-1]))
            self._accumulate(grad)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Fused numerical ops
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> None:
            dot = (g * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (g - dot))

        return Tensor._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_norm
        softmax = np.exp(data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g - softmax * g.sum(axis=axis, keepdims=True))

        return Tensor._make(data, (self,), backward)

    def layer_norm(self, weight: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        """Fused layer normalization over the last axis."""
        mu = self.data.mean(axis=-1, keepdims=True)
        centered = self.data - mu
        var = (centered**2).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        normalized = centered * inv_std
        data = normalized * weight.data + bias.data

        def backward(g: np.ndarray) -> None:
            if weight.requires_grad:
                weight._accumulate(
                    _unbroadcast(g * normalized, weight.shape)
                )
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(g, bias.shape))
            if self.requires_grad:
                gx_hat = g * weight.data
                mean_g = gx_hat.mean(axis=-1, keepdims=True)
                mean_gx = (gx_hat * normalized).mean(axis=-1, keepdims=True)
                self._accumulate(inv_std * (gx_hat - mean_g - normalized * mean_gx))

        return Tensor._make(data, (self, weight, bias), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a copy with positions where ``mask`` is True set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.where(mask, 0.0, g))

        return Tensor._make(data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout; identity when ``rate`` is 0."""
        if rate <= 0.0:
            return self
        return self * Tensor(dropout_mask(rate, rng, self.shape))


def dropout_mask(rate: float, rng: np.random.Generator,
                 shape: Tuple[int, ...]) -> np.ndarray:
    """Inverted-dropout keep-mask: ``1 / (1 - rate)`` where kept, else 0.

    The one draw :meth:`Tensor.dropout` and fused ops that apply dropout
    inside their own node share, so both consume ``rng`` identically.
    """
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


class Parameter(Tensor):
    """A trainable tensor; always requires grad."""

    def __init__(self, data: ArrayLike):
        super().__init__(data, requires_grad=True)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` over the last axis as one tape node.

    ``x`` has shape ``(..., in)``, ``weight`` ``(in, out)`` and ``bias``
    ``(out,)``.  The backward pass computes the input gradient as
    ``g @ weight.T``, the weight gradient as one 2-D GEMM over the flattened
    leading axes and the bias gradient as one row sum.
    """
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        rows = g.reshape(-1, g.shape[-1])
        if weight.requires_grad:
            weight._accumulate(x.data.reshape(-1, x.shape[-1]).T @ rows)
        if bias is not None and bias.requires_grad:
            bias._accumulate(rows.sum(axis=0))

    return Tensor._make(data, parents, backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis if axis >= 0 else t.ndim + axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(g[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)
