"""Hot numeric kernels: direct convolution, fully-connected, max-pool.

Whole-layer kernels take a leading batch axis and give, for every item, the
bits the kernel gives that item alone: the fault engine pushes a batch of
faulty inferences through the same kernels the clean forward uses, so the
two agree exactly.

Two interchangeable backends: numba ``@njit`` loops when numba is installed
(the optional ``numba`` extra) and pure numpy otherwise. Set
``RESACC_NO_NUMBA=1`` to force the numpy path.

The summing kernels take and return float64; ``maxpool2d`` takes values in
any format, since a maximum is one of its inputs. Accumulating in float64
makes the INT8 path exact (products and sums stay far below 2**53). For
float inputs the two backends can differ by a few ulps (sequential vs BLAS
summation order), so cross-backend agreement is to tight tolerance, not
bitwise; a single run is deterministic within its backend. Casting to the
storage format happens at layer boundaries, outside these kernels.

Only the numpy backend has been run with the batched fault engine: its batch
independence and the engine's bit-exactness against the one-input reference
are tested on numpy alone. The numba loops take the same batch axis but
have not been run.

The element kernels (``conv2d_elem``, ``fc_elem``) define the order in which
a faulty output element is summed: sequentially from 0.0 over the fan-in, in
(channel, row, column) order. ``dot_sequential`` sums many such elements for
a batch of flips at once, in that order, with one ``np.add.accumulate`` and
no loop over the fan-in.
"""

from __future__ import annotations

import os

import numpy as np

_want_numba = os.environ.get("RESACC_NO_NUMBA", "0") not in ("1", "true", "yes")

if _want_numba:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

if not HAVE_NUMBA:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


@njit(cache=True)
def conv2d_loops(x, w, stride, pad):
    nb, ic, ih, iw = x.shape
    oc, _, kh, kw = w.shape
    oh = (ih + 2 * pad - kh) // stride + 1
    ow = (iw + 2 * pad - kw) // stride + 1
    out = np.zeros((nb, oc, oh, ow), dtype=np.float64)
    for b in range(nb):
        for o in range(oc):
            for y in range(oh):
                for z in range(ow):
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
                                acc += x[b, c, sy, sz] * w[o, c, ky, kz]
                    out[b, o, y, z] = acc
    return out


@njit(cache=True)
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


@njit(cache=True)
def fc_loops(x, w):
    nb = x.shape[0]
    o, i = w.shape
    out = np.zeros((nb, o), dtype=np.float64)
    for b in range(nb):
        for r in range(o):
            acc = 0.0
            for c in range(i):
                acc += w[r, c] * x[b, c]
            out[b, r] = acc
    return out


@njit(cache=True)
def fc_elem(x, w, r):
    """Recompute a single fully-connected output element of one input."""
    acc = 0.0
    for c in range(w.shape[1]):
        acc += w[r, c] * x[c]
    return acc


@njit(cache=True)
def maxpool2d_loops(x, kernel, stride):
    nb, c, ih, iw = x.shape
    oh = (ih - kernel) // stride + 1
    ow = (iw - kernel) // stride + 1
    out = np.empty((nb, c, oh, ow), dtype=np.float64)
    for b in range(nb):
        for ch in range(c):
            for y in range(oh):
                for z in range(ow):
                    # NaN loses every comparison unless the whole window is
                    # NaN, matching fmax in the numpy backend.
                    best = x[b, ch, y * stride, z * stride]
                    for ky in range(kernel):
                        for kz in range(kernel):
                            v = x[b, ch, y * stride + ky, z * stride + kz]
                            if v > best or best != best:
                                best = v
                    out[b, ch, y, z] = best
    return out


# --- pure-numpy fallback ---------------------------------------------------

IM2COL_BYTES = 1 << 18  # largest im2col copy conv2d_numpy makes at once


def _im2col(x, kh, kw, stride, pad, oh, ow):
    """(B, C*kh*kw, oh*ow) patches, rows in (channel, row, column) order."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, : oh * stride : stride, : ow * stride : stride]  # (B, C, oh, ow, kh, kw)
    # Contiguous, as BLAS needs it: numpy sums a strided operand in its own order.
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(len(x), -1, oh * ow)


def conv2d_numpy(x, w, stride, pad):
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


def fc_numpy(x, w):
    # Per item a matrix-vector product, as ``w @ x`` gives one input;
    # ``x @ w.T`` would sum in another order.
    return np.matmul(w, np.ascontiguousarray(x)[:, :, None])[:, :, 0]


def maxpool2d_numpy(x, kernel, stride):
    nb, c, ih, iw = x.shape
    oh = (ih - kernel) // stride + 1
    ow = (iw - kernel) // stride + 1
    out = x[:, :, : oh * stride : stride, : ow * stride : stride].copy()
    for ky in range(kernel):
        for kz in range(kernel):
            np.fmax(out, x[:, :, ky : ky + oh * stride : stride, kz : kz + ow * stride : stride],
                    out=out)
    return out


if HAVE_NUMBA:
    conv2d = conv2d_loops
    fc = fc_loops

    def maxpool2d(x, kernel, stride):
        return maxpool2d_loops(x.astype(np.float64), kernel, stride)

else:
    conv2d = conv2d_numpy
    fc = fc_numpy
    maxpool2d = maxpool2d_numpy


# --- faulty output elements --------------------------------------------------

def dot_sequential(terms, hit_k, faulty):
    """Recomputed output elements for a batch of flips, each summed from 0.0
    in fan-in order, the order of ``conv2d_elem`` and ``fc_elem``.

    ``terms`` (n, E, K): the clean products of E elements over n inputs, in
    fan-in order, 0.0 where the element kernels skip a term (padding).
    ``hit_k`` (E,): the fan-in position at which each element reads the
    flipped value. ``faulty`` (F, n, E): the product at that position under
    each of F flips. Returns (F, n, E).

    The terms before the first flipped one are the same under every flip and
    are summed once into a head; the rest of each sum is one ``add.accumulate``
    over (head, terms from there on, the flipped product in its place).
    ``accumulate`` adds term by term in order, as the element kernels do
    (``np.sum`` and ``add.reduce`` add pairwise and differ in the last bits).
    A sum started from +0.0 is never -0.0, so adding 0.0 for a skipped term
    leaves it unchanged; adding the head to 0.0 gives it the sign of zero a
    sum from 0.0 has, since ``accumulate`` starts from the first term.
    """
    n, n_elems, n_terms = terms.shape
    k0 = int(hit_k.min())
    tail = np.empty((len(faulty), n, n_elems, 1 + n_terms - k0))
    tail[..., 0] = 0.0 + np.add.accumulate(terms[:, :, :k0], axis=2)[:, :, -1] if k0 else 0.0
    tail[..., 1:] = terms[:, :, k0:]
    tail[:, :, np.arange(n_elems), hit_k - k0 + 1] = faulty
    return np.add.accumulate(tail, axis=3, out=tail)[..., -1]
