"""Reverse-mode automatic differentiation on NumPy arrays.

The paper's training methods — surrogate-gradient backpropagation through
time for SNNs, standard backprop for CNNs, straight-through-estimator
quantization, and message-passing graph convolutions — all need a
gradient engine.  Since the reproduction environment provides no deep
learning framework, this module implements one from scratch: a
:class:`Tensor` wrapping a ``float64`` ndarray that records a dynamic
computation graph and differentiates it with a topological-order
backward pass.

The design follows the classic define-by-run pattern: every operation
creates a result tensor holding a closure that, given the result's
gradient, accumulates gradients into its parents.  Broadcasting is fully
supported (gradients are summed back over broadcast axes).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "custom_gradient",
    "stable_matmul",
    "is_stable_matmul",
]


class _EngineState:
    """Module-wide autograd flags.

    ``no_grad``/``stable_matmul`` set a flag on entry and restore the
    previous value on exit, also when the body raises.  No code in this
    package runs the engine on a second thread, so the flags are plain
    module state.
    """

    __slots__ = ("grad_enabled", "stable_matmul")

    def __init__(self) -> None:
        self.grad_enabled = True
        self.stable_matmul = False


_STATE = _EngineState()


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _STATE.grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """True when operations record the autograd graph."""
    return _STATE.grad_enabled


class stable_matmul:
    """Context manager making 2-D matmul products batch-size independent.

    BLAS ``gemm``/``gemv`` kernels choose their reduction order (blocking,
    SIMD partial sums) from the operand shapes, so row ``i`` of ``A @ W``
    is not, in general, bit-identical to ``A[i:i+1] @ W``.  Inside this
    context, 2-D ``Tensor`` matmuls are evaluated with ``np.einsum``,
    whose per-row reduction never depends on how many rows ride along.
    The incremental per-event GNN path computes exactly the rows the
    batch path computes, one at a time, with the same einsum on plain
    arrays — running the batch forward in this context is what makes
    the two bit-equal rather than merely close.
    """

    def __enter__(self) -> "stable_matmul":
        self._prev = _STATE.stable_matmul
        _STATE.stable_matmul = True
        return self

    def __exit__(self, *exc) -> None:
        _STATE.stable_matmul = self._prev


def is_stable_matmul() -> bool:
    """True when 2-D matmuls use the batch-size-independent reduction."""
    return _STATE.stable_matmul


def _matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward matmul honouring :class:`stable_matmul`."""
    if _STATE.stable_matmul and a.ndim == 2 and b.ndim == 2:
        return np.einsum("ij,jk->ik", a, b)
    return a @ b


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable multi-dimensional array.

    Args:
        data: anything convertible to a float64 ndarray.
        requires_grad: whether gradients should flow to this tensor.

    Attributes:
        data: the underlying ndarray.
        grad: accumulated gradient (ndarray of the same shape), populated
            by :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _STATE.grad_enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _result(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result, wiring the graph only when grad is enabled."""
        needs = _STATE.grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Args:
            grad: gradient contribution (broadcast shapes allowed).
            owned: the caller cedes ownership of a freshly allocated
                ``grad`` — the buffer may be adopted in place instead of
                copied.  Values are identical either way; this only skips
                one float64 temporary per hot-loop accumulation.
        """
        if not self.requires_grad:
            return
        g = np.asarray(grad, dtype=np.float64)
        reduced = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            # _unbroadcast allocates whenever it actually reduces (size
            # shrinks); a same-size result may be a reshape view, so only
            # a strictly smaller result is known-fresh.
            if (owned and reduced is g and g is grad) or (
                reduced is not g and reduced.size < g.size
            ):
                self.grad = reduced
            else:
                self.grad = reduced.copy()
        else:
            self.grad += reduced

    # ------------------------------------------------------------------
    # Shape & dtype
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
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
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """A detached copy of the data."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Args:
            grad: incoming gradient; defaults to ones (must be supplied
                explicitly only for non-scalar outputs where a seed other
                than all-ones is wanted).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)

        # Topological order over the dynamic graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(g)

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g, owned=True)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        # Single fused node: IEEE-754 guarantees a - b == a + (-b) bitwise,
        # so this matches the old two-node ``self + (-other)`` chain exactly
        # while skipping one graph node and one float64 temporary.
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            other._accumulate(-g, owned=True)

        return Tensor._result(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = other.data - self.data

        def backward(g: np.ndarray) -> None:
            other._accumulate(g)
            self._accumulate(-g, owned=True)

        return Tensor._result(out_data, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * other.data, owned=True)
            other._accumulate(g * self.data, owned=True)

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / other.data, owned=True)
            other._accumulate(-g * self.data / (other.data**2), owned=True)

        return Tensor._result(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._result(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = _matmul_data(self.data, other.data)

        def backward(g: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product
                self._accumulate(g * b, owned=True)
                other._accumulate(g * a, owned=True)
            elif a.ndim == 1:  # (k,) @ (k, n)
                self._accumulate(g @ b.T, owned=True)
                other._accumulate(np.outer(a, g), owned=True)
            elif b.ndim == 1:  # (m, k) @ (k,)
                self._accumulate(np.outer(g, b), owned=True)
                other._accumulate(a.T @ g, owned=True)
            else:
                ga = g @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ g
                self._accumulate(_unbroadcast(ga, a.shape), owned=True)
                other._accumulate(_unbroadcast(gb, b.shape), owned=True)

        return Tensor._result(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
            else:
                g_exp = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g_exp, self.data.shape))

        return Tensor._result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * g, owned=True)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = (self.data == expanded).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                g_exp = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(mask * g_exp, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        # Direct kernel replacing the old ``-((-self).max())`` three-node
        # chain.  Bitwise identical: negation is an exact sign flip, so
        # min(x) == -max(-x) and the tie-splitting mask is the same, while
        # the double negation of the gradient cancels exactly.
        out_data = self.data.min(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == self.data.min()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * g, owned=True)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = (self.data == expanded).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                g_exp = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(mask * g_exp, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance, differentiable (built from mean ops)."""
        centred = self - self.mean(axis=axis, keepdims=True)
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / np.maximum(out_data, 1e-300), owned=True)

        return Tensor._result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        orig = self.data.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(orig))

        return Tensor._result(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)  # sort-ok: axes is a permutation, no ties

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return Tensor._result(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)
            self._accumulate(full, owned=True)

        return Tensor._result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data**2), owned=True)

        return Tensor._result(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data), owned=True)

        return Tensor._result(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * sign, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask, owned=True)

        return Tensor._result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (no gradient; return plain bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other) -> np.ndarray:
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other) -> np.ndarray:
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other) -> np.ndarray:
        return self.data <= (other.data if isinstance(other, Tensor) else other)


def custom_gradient(
    forward_value: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Sequence[np.ndarray]],
) -> Tensor:
    """Build a tensor with a user-defined backward rule.

    This is the extension point for *surrogate gradients*: the SNN spike
    function uses a hard threshold forward but a smooth derivative
    backward (Neftci et al. 2019), and STE quantization uses an identity
    backward through the rounding forward.

    Args:
        forward_value: the op's forward result.
        parents: the tensors the op consumed.
        backward: maps the output gradient to one gradient per parent
            (entries may be None to skip a parent).

    Returns:
        A tensor wired into the autograd graph with the custom rule.
    """

    def _backward(g: np.ndarray) -> None:
        grads = backward(g)
        if len(grads) != len(parents):
            raise ValueError("backward must return one gradient per parent")
        for parent, grad in zip(parents, grads):
            if grad is not None:
                parent._accumulate(grad)

    return Tensor._result(np.asarray(forward_value, dtype=np.float64), parents, _backward)
