"""Hot numeric kernels: direct convolution, fully-connected, max-pool.

Whole-layer kernels take a leading batch axis and give, for every item, the
bits the kernel gives that item alone: the fault engine pushes a batch of
faulty inferences through the same kernels the clean forward uses, so the
two agree exactly. They are numpy: BLAS products for ``conv2d`` and ``fc``,
an elementwise ``fmax`` for ``maxpool2d``.

The summing kernels take and return float64; ``maxpool2d`` takes values in
any format, since a maximum is one of its inputs. Accumulating in float64
makes the INT8 path exact (products and sums stay far below 2**53). Casting
to the storage format happens at layer boundaries, outside these kernels.

The element kernels (``conv2d_elem``, ``fc_elem``) define the order in which
a faulty output element is summed: sequentially from 0.0 over the fan-in, in
(channel, row, column) order. ``dot_sequential`` sums many such elements for
a batch of flips at once, in that order: its terms are laid out fan-in-major,
so one ``np.add.reduce`` over the leading axis adds them row by row, with no
loop over the fan-in. ``sum_pairwise`` sums softmax's classes along a
leading axis in the order numpy's pairwise sum adds a row of them.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # numpy is the only backend; the benchmark fingerprint reads this

IM2COL_BYTES = 1 << 18  # largest im2col copy conv2d makes at once


def _im2col(x, kh, kw, stride, pad, oh, ow):
    """(B, C*kh*kw, oh*ow) patches, rows in (channel, row, column) order."""
    # A zeroed copy and a strided view, as np.pad and sliding_window_view
    # cost several times as much on the small batches the fault engine and
    # its one-input reference pass; the view is made by the ndarray
    # constructor, which checks it against the buffer in a fraction of the
    # time as_strided takes.
    if pad:
        xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad, x.shape[3] + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:-pad, pad:-pad] = x
        x = xp
    x = np.ascontiguousarray(x)
    s0, s1, s2, s3 = x.strides
    win = np.ndarray(  # (B, C, kh, kw, oh, ow)
        x.shape[:2] + (kh, kw, oh, ow), x.dtype, x, 0,
        (s0, s1, s2, s3, s2 * stride, s3 * stride))
    # Contiguous, as BLAS needs it: numpy sums a strided operand in its own order.
    return np.ascontiguousarray(win).reshape(len(x), -1, oh * ow)


def conv2d(x, w, stride, pad):
    nb, ic, ih, iw = x.shape
    oc, _, kh, kw = w.shape
    oh = (ih + 2 * pad - kh) // stride + 1
    ow = (iw + 2 * pad - kw) // stride + 1
    w2 = np.ascontiguousarray(w.reshape(oc, -1))
    out = np.empty((nb, oc, oh * ow), dtype=np.float64)
    # A stacked matmul runs one BLAS product per item, each the one a single
    # input would get; chunking the batch bounds the im2col copy.
    step = max(1, IM2COL_BYTES // (8 * w2.shape[1] * oh * ow))
    for i in range(0, nb, step):
        np.matmul(w2, _im2col(x[i : i + step], kh, kw, stride, pad, oh, ow), out=out[i : i + step])
    return out.reshape(nb, oc, oh, ow)


def fc(x, w):
    # Per item a matrix-vector product, as ``w @ x`` gives one input;
    # ``x @ w.T`` would sum in another order.
    return np.matmul(w, np.ascontiguousarray(x)[:, :, None])[:, :, 0]


def maxpool2d(x, kernel, stride):
    nb, c, ih, iw = x.shape
    oh = (ih - kernel) // stride + 1
    ow = (iw - kernel) // stride + 1
    out = x[:, :, : oh * stride : stride, : ow * stride : stride].copy()
    for ky in range(kernel):
        for kz in range(kernel):
            np.fmax(out, x[:, :, ky : ky + oh * stride : stride, kz : kz + ow * stride : stride],
                    out=out)
    return out


# --- faulty output elements --------------------------------------------------

def conv2d_elem(x, w, o, y, z, stride, pad):
    """Recompute a single convolution output element of one input."""
    ic, ih, iw = x.shape
    _, _, kh, kw = w.shape
    acc = 0.0
    for c in range(ic):
        for ky in range(kh):
            sy = y * stride - pad + ky
            if sy < 0 or sy >= ih:
                continue
            for kz in range(kw):
                sz = z * stride - pad + kz
                if sz < 0 or sz >= iw:
                    continue
                acc += x[c, sy, sz] * w[o, c, ky, kz]
    return acc


def fc_elem(x, w, r):
    """Recompute a single fully-connected output element of one input."""
    acc = 0.0
    for c in range(w.shape[1]):
        acc += w[r, c] * x[c]
    return acc


def _sum_rows(a):
    """a[0] + a[1] + ... + a[-1], added in that order, elementwise.

    ``add.reduce`` over the leading axis of a C-ordered array adds row by row,
    vectorised along the rows; over a single column it would add pairwise,
    so that case takes ``add.accumulate``, a scalar chain.
    """
    rows = np.ascontiguousarray(a).reshape(len(a), -1)
    if rows.shape[1] == 1:
        return np.add.accumulate(rows, axis=0)[-1].reshape(a.shape[1:])
    return np.add.reduce(rows, axis=0).reshape(a.shape[1:])


def sum_pairwise(a):
    """a[0] + a[1] + ... + a[-1], elementwise, added in the order numpy's
    pairwise sum adds a contiguous row of len(a) terms (``a.T.sum(axis=1)``),
    but vectorised along the trailing axes instead of row by row.

    Below 8 terms the order is sequential. Up to 128 terms, lane j sums terms
    j, j + 8, j + 16, ... of the whole blocks of eight in order, the lanes
    combine as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), and the
    terms after the last block follow in order. Above 128 terms the two
    halves are summed so and added, the first half n // 2 terms rounded
    down to a multiple of 8. numpy's reduction then adds the result to
    +0.0, which turns -0.0 into +0.0; this sum leaves -0.0 as it is.
    """
    n = len(a)
    if n < 8:
        return _sum_rows(a)
    if n > 128:
        h = n // 2 - n // 2 % 8
        return sum_pairwise(a[:h]) + sum_pairwise(a[h:])
    m = n - n % 8
    lane = a if m == 8 else _sum_rows(a[:m].reshape((m // 8, 8) + a.shape[1:]))
    pair = lane[0:8:2] + lane[1:8:2]
    s = (pair[0] + pair[1]) + (pair[2] + pair[3])
    for k in range(m, n):
        s += a[k]
    return s


def dot_sequential(terms, hit_k, faulty):
    """Recomputed output elements for a batch of flips, each summed from 0.0
    in fan-in order, the order of ``conv2d_elem`` and ``fc_elem``.

    ``terms`` (K, E, n), fan-in-major: the clean products of E elements over
    n inputs, in fan-in order, 0.0 where the element kernels skip a term
    (padding). ``hit_k`` (E,): the fan-in position at which each element
    reads the flipped value. ``faulty`` (E, F, n): the product at that
    position under each of F flips. Returns (E, F, n).

    Under one flip, the flipped products overwrite their terms and the terms
    are summed as they are; ``terms`` is scratch. Under several, the terms
    before the first flipped one are the same under every flip and are
    summed once into a head; the rest of each sum adds, row by row, a
    (1 + K - k0, E, F, n) tail: the head, then the terms from there on with
    the flipped product in its place. Both add term by term in order
    (``_sum_rows``), as the element kernels do (``np.sum`` adds pairwise
    and differs in the last bits). A sum started from +0.0 is never -0.0,
    so adding 0.0 for a skipped term leaves it unchanged; adding a sum to
    0.0 gives it the sign of zero a sum from 0.0 has, since ``_sum_rows``
    starts from the first term.
    """
    n_terms, n_elems, n = terms.shape
    if faulty.shape[1] == 1:
        terms[hit_k, np.arange(n_elems)] = faulty[:, 0]
        return (0.0 + _sum_rows(terms))[:, None]
    k0 = int(hit_k.min())
    tail = np.empty((1 + n_terms - k0, n_elems, faulty.shape[1], n))
    tail[0] = (0.0 + _sum_rows(terms[:k0]))[:, None, :] if k0 else 0.0
    tail[1:] = terms[k0:, :, None, :]
    tail[hit_k - k0 + 1, np.arange(n_elems)] = faulty
    return _sum_rows(tail)
