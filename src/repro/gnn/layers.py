"""Graph convolution layers on the autograd engine.

Three layer families from the event-GNN literature cited in Section IV:

* :class:`GCNConv` — the spectral-motivated convolution of Kipf &
  Welling (ref [67]): symmetric-normalised neighbourhood averaging
  followed by a linear transform;
* :class:`EdgeConv` — a PointNet-style edge convolution: an MLP applied
  to ``(x_dst, x_src - x_dst, relative position)`` per edge, aggregated
  by max or mean (the workhorse of AEGNN-style classifiers, ref [70]);
* :class:`SplineConvLite` — a continuous-kernel convolution in the
  spirit of SplineCNN (ref [68]): the weight applied to each message is
  a learned function of the spatiotemporal edge offset, expressed in a
  fixed Gaussian radial basis.  This is the mechanism that injects
  *precise event timing* into the features.

Aggregation uses differentiable scatter operations defined here.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Linear, Module, Sequential, ReLU
from ..nn.tensor import Tensor, custom_gradient

__all__ = [
    "scatter_sum",
    "scatter_mean",
    "scatter_max",
    "GCNConv",
    "EdgeConv",
    "SplineConvLite",
]


def _check_index(values: Tensor, index, num_targets: int) -> np.ndarray:
    """``index`` as int64 after checking it names one bin per value row.

    Rejects, before any work, what numpy would otherwise wrap silently
    (a negative index lands in a bin counted from the end) or report
    obscurely: a non-integer index (a cast would truncate it), a
    non-1-D index, a length other than ``values.shape[0]`` and any index
    outside ``[0, num_targets)``.  An empty index of any dtype (``[]``
    arrives as float64) is accepted.
    """
    index = np.asarray(index)
    if index.size and not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"index must be integer, got dtype {index.dtype}")
    index = index.astype(np.int64, copy=False)
    if index.ndim != 1:
        raise ValueError(f"index must be 1-D, got shape {index.shape}")
    if index.shape[0] != values.shape[0]:
        raise ValueError(
            f"one index per value row required: {index.shape[0]} indices "
            f"for {values.shape[0]} rows"
        )
    if index.size and (index.min() < 0 or index.max() >= num_targets):
        raise ValueError(f"index out of range [0, {num_targets})")
    return index


def scatter_sum(values: Tensor, index: np.ndarray, num_targets: int) -> Tensor:
    """Sum rows of ``values`` into ``num_targets`` bins given by ``index``."""
    index = _check_index(values, index, num_targets)
    out = np.zeros((num_targets,) + values.shape[1:])
    np.add.at(out, index, values.data)

    def backward(g: np.ndarray):
        return [g[index]]

    return custom_gradient(out, [values], backward)


def scatter_mean(values: Tensor, index: np.ndarray, num_targets: int) -> Tensor:
    """Mean-aggregate rows into bins (empty bins stay zero)."""
    index = _check_index(values, index, num_targets)
    counts = np.bincount(index, minlength=num_targets).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    summed = scatter_sum(values, index, num_targets)
    return summed * Tensor(1.0 / counts).reshape(num_targets, *([1] * (values.ndim - 1)))


def scatter_max(values: Tensor, index: np.ndarray, num_targets: int) -> Tensor:
    """Max-aggregate rows into bins.

    Every output cell whose maximum is not finite -- an empty bin, or a
    bin holding a NaN or an infinity -- is ``0.0``.  The gradient of a
    cell flows to exactly one row: the first, in row order, whose value
    equals the cell's output, so ties and a cleaned non-finite cell
    (which picks the first row equal to zero, if any) never split it.

    The rows are stable-sorted by bin so each bin is one contiguous
    segment; ``np.maximum.reduceat`` takes the segment maxima, and the
    first equal row per (segment, column) is the head of its run among
    the column-major equal hits.  Outputs and gradients are byte-equal
    to the per-row loop this replaced, kept as the test oracle.
    """
    index = _check_index(values, index, num_targets)
    out, winner = _segment_max(values.data, index, num_targets)

    def backward(g: np.ndarray):
        return [g[index] * winner]

    return custom_gradient(out, [values], backward)


def _segment_max(
    data: np.ndarray, index: np.ndarray, num_targets: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scatter_max`'s forward: the bin maxima and the winner mask."""
    out = np.zeros((num_targets,) + data.shape[1:])
    winner = np.zeros(data.shape, dtype=bool)
    n_rows = data.shape[0]
    if n_rows == 0:
        return out, winner
    width = int(np.prod(data.shape[1:]))
    # A stable sort of <= 16-bit keys is a radix sort.
    keys = index.astype(np.uint16) if num_targets <= 1 << 16 else index
    order = np.argsort(keys, kind="stable")
    sorted_index = index[order]
    rows = np.take(data.reshape(n_rows, width), order, axis=0)
    new_seg = np.empty(n_rows, dtype=bool)
    new_seg[0] = True
    np.not_equal(sorted_index[1:], sorted_index[:-1], out=new_seg[1:])
    starts = np.flatnonzero(new_seg)
    seg = np.cumsum(new_seg) - 1
    peak = np.maximum.reduceat(rows, starts, axis=0)
    zero = peak == 0
    peak[~np.isfinite(peak)] = 0.0
    # Column-major equal hits: each (column, segment) cell is one run of
    # ascending sorted rows, so a run's head is the cell's first equal row.
    hits = np.flatnonzero(np.ascontiguousarray((rows == np.take(peak, seg, axis=0)).T))
    col, row = np.divmod(hits, n_rows)
    cell = col * len(starts) + seg[row]
    edge = np.ones(len(cell) + 1, dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=edge[1:-1])
    if zero.any():
        # np.maximum returns its second argument on a tie, so a row-order
        # fold ends on the last equal row's sign bit; reduceat may fold in
        # another order, so take a zero maximum's sign from that row.
        last_row, last_col = row[edge[1:]], col[edge[1:]]
        peak[zero] = 0.0
        neg = zero[seg[last_row], last_col] & np.signbit(rows[last_row, last_col])
        peak[seg[last_row[neg]], last_col[neg]] = -0.0
    first = edge[:-1]
    winner.reshape(-1)[order[row[first]] * width + col[first]] = True
    out.reshape(num_targets, width)[sorted_index[starts]] = peak
    return out, winner


class GCNConv(Module):
    """Graph convolution with symmetric degree normalisation (ref [67]).

    ``h_i = W * sum_j (A_ij / sqrt(d_i d_j)) x_j`` over the graph with
    self-loops added.

    Args:
        in_features, out_features: feature widths.
        rng: initialisation generator.
    """

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, edges: np.ndarray) -> Tensor:
        """Apply the layer.

        Args:
            x: ``(N, F)`` node features.
            edges: ``(E, 2)`` directed (src, dst) pairs.
        """
        n = x.shape[0]
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = np.stack([np.arange(n)] * 2, axis=1)
        e = np.concatenate([edges, loops]) if edges.size else loops
        src, dst = e[:, 0], e[:, 1]
        deg = np.bincount(dst, minlength=n).astype(np.float64)
        norm = 1.0 / np.sqrt(np.maximum(deg[src] * deg[dst], 1e-12))
        messages = x[src] * Tensor(norm[:, None])
        agg = scatter_sum(messages, dst, n)
        return self.linear(agg)


class EdgeConv(Module):
    """PointNet-style edge convolution with geometric edge attributes.

    Per edge, an MLP consumes ``[x_dst, x_src - x_dst, pos_src - pos_dst]``
    and the results are aggregated at the destination.

    Args:
        in_features: node feature width.
        out_features: output width.
        hidden: MLP hidden width.
        aggregation: "max" or "mean".
        rng: initialisation generator.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden: int = 32,
        aggregation: str = "max",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if aggregation not in ("max", "mean"):
            raise ValueError("aggregation must be 'max' or 'mean'")
        rng = rng or np.random.default_rng(0)
        self.aggregation = aggregation
        self.mlp = Sequential(
            Linear(2 * in_features + 3, hidden, rng=rng),
            ReLU(),
            Linear(hidden, out_features, rng=rng),
        )
        self.self_mlp = Linear(in_features, out_features, rng=rng)

    def forward(
        self,
        x: Tensor,
        edges: np.ndarray,
        positions: np.ndarray,
        rel_pos: np.ndarray | None = None,
    ) -> Tensor:
        """Apply the layer.

        Args:
            x: ``(N, F)`` node features.
            edges: ``(E, 2)`` directed (src, dst) pairs.
            positions: ``(N, 3)`` node coordinates.
            rel_pos: optional precomputed ``(E, 3)`` edge offsets
                ``pos[src] - pos[dst]`` — how a quantized compact graph
                injects its grid-valued attributes; defaults to the
                exact offsets from ``positions``.
        """
        n = x.shape[0]
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        out = self.self_mlp(x)
        if edges.size == 0:
            return out
        src, dst = edges[:, 0], edges[:, 1]
        if rel_pos is None:
            rel_pos = positions[src] - positions[dst]
        else:
            rel_pos = np.asarray(rel_pos, dtype=np.float64).reshape(-1, 3)
            if rel_pos.shape[0] != edges.shape[0]:
                raise ValueError("rel_pos must provide one offset per edge")
        from ..nn import functional as F

        edge_in = F.concatenate(
            [x[dst], x[src] - x[dst], Tensor(rel_pos)], axis=1
        )
        messages = self.mlp(edge_in)
        if self.aggregation == "max":
            agg = scatter_max(messages, dst, n)
        else:
            agg = scatter_mean(messages, dst, n)
        return out + agg


class SplineConvLite(Module):
    """Continuous-kernel graph convolution over spatiotemporal offsets.

    The kernel weight for an edge with offset ``u`` is
    ``sum_b basis_b(u) * W_b`` where the basis is a fixed grid of
    Gaussian bumps over the offset space and the ``W_b`` are learned —
    a dense-evaluation approximation of SplineCNN's B-spline kernels
    (ref [68]).

    Args:
        in_features, out_features: feature widths.
        num_basis: Gaussian bumps per offset dimension axis (total
            ``num_basis`` bumps placed on a diagonal grid).
        offset_scale: characteristic offset magnitude for basis placement.
        rng: initialisation generator.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_basis: int = 8,
        offset_scale: float = 3.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_basis <= 0:
            raise ValueError("num_basis must be positive")
        if offset_scale <= 0:
            raise ValueError("offset_scale must be positive")
        rng = rng or np.random.default_rng(0)
        self.num_basis = num_basis
        # Basis centres scattered over the offset ball (fixed, not learned).
        self._centres = rng.uniform(-offset_scale, offset_scale, (num_basis, 3))
        self._width = offset_scale
        scale = 1.0 / np.sqrt(in_features * num_basis)
        self.weights = Tensor(
            rng.normal(0.0, scale, (num_basis, out_features, in_features)),
            requires_grad=True,
        )
        self.root = Linear(in_features, out_features, rng=rng)

    def basis(self, offsets: np.ndarray) -> np.ndarray:
        """Evaluate the Gaussian basis at edge offsets, ``(E, num_basis)``."""
        offsets = np.asarray(offsets, dtype=np.float64).reshape(-1, 3)
        d2 = ((offsets[:, None, :] - self._centres[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * self._width**2))

    def forward(
        self,
        x: Tensor,
        edges: np.ndarray,
        positions: np.ndarray,
        rel_pos: np.ndarray | None = None,
    ) -> Tensor:
        """Apply the layer (arguments as :meth:`EdgeConv.forward`).

        ``rel_pos`` follows the EdgeConv convention ``pos[src] -
        pos[dst]``; this layer's kernel consumes the opposite sign, and
        negating a symmetric-grid quantized offset is exact.
        """
        n = x.shape[0]
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        out = self.root(x)
        if edges.size == 0:
            return out
        src, dst = edges[:, 0], edges[:, 1]
        if rel_pos is None:
            offsets = positions[dst] - positions[src]
        else:
            rel_pos = np.asarray(rel_pos, dtype=np.float64).reshape(-1, 3)
            if rel_pos.shape[0] != edges.shape[0]:
                raise ValueError("rel_pos must provide one offset per edge")
            offsets = -rel_pos
        b = self.basis(offsets)  # (E, B), constants w.r.t. autograd
        x_src = x[src]  # (E, F_in)
        # message_e = sum_b b_eb * (W_b @ x_src_e)
        # Compute per-basis transforms then mix: (E, B, F_out).
        per_basis = []
        from ..nn import functional as F

        for bi in range(self.num_basis):
            w_b = self.weights[bi]  # (F_out, F_in)
            per_basis.append((x_src @ w_b.T) * Tensor(b[:, bi : bi + 1]))
        messages = per_basis[0]
        for m in per_basis[1:]:
            messages = messages + m
        agg = scatter_mean(messages, dst, n)
        return out + agg
