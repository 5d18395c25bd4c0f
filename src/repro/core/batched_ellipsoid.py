"""Batched Löwner–John ellipsoid updates over stacked ellipsoids.

One stacked cut over ``k`` ellipsoids at once: centers as a ``(k, n)`` array,
shape matrices as ``(k, n, n)``, one cut direction/offset per ellipsoid.  The
per-item semantics replicate :func:`repro.core.cuts.loewner_john_cut` under
``on_infeasible='skip'`` — the mode every online consumer (the ellipsoid
pricer's ``update``, the serving feedback path) uses — including the
degenerate-direction clamp, the no-op range ``α < -1/n``, the skip range
``α > 1`` and the point-collapse at ``α = 1``.

Two interchangeable implementations sit behind :func:`get_backend`:

* ``"batched"`` — numpy ``einsum``/broadcast arithmetic.  This is the default
  fast backend: one stacked update replaces ``k`` Python-level cut calls.
* ``"batched-torch"`` — the same formulas in ``torch`` (double precision),
  available only when torch is importable; :data:`HAS_TORCH` gates it and
  :class:`BackendUnavailableError` is raised otherwise.

Both round differently than the scalar reference path (``einsum``/gemm
contraction order vs. per-round ``x @ A @ x``), so results are admitted under
the **relaxed** equivalence tier (:mod:`repro.engine.equivalence`), never the
bit-exact golden tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.cuts import _ALPHA_TOLERANCE, _DEGENERATE_GAIN, cut_trusted
from repro.core.ellipsoid import Ellipsoid

try:  # pragma: no cover - exercised only where torch is installed
    import torch

    HAS_TORCH = True
except ImportError:  # pragma: no cover
    torch = None
    HAS_TORCH = False


class BackendUnavailableError(RuntimeError):
    """A requested math backend's runtime dependency is not installed."""


#: Names accepted by :func:`get_backend` (and the engine/serving ``backend=``
#: knobs; ``"reference"`` is handled by the callers, not here).
BACKEND_NAMES = ("batched", "batched-torch")


def keep_signs(keep) -> np.ndarray:
    """Map per-item ``'leq'``/``'geq'`` keep modes to the cut-formula signs.

    ``+1`` keeps ``{θ : x^T θ <= offset}`` (rejection feedback), ``-1`` keeps
    ``{θ : x^T θ >= offset}`` (acceptance feedback) — the same convention as
    the scalar :func:`~repro.core.cuts.loewner_john_cut`.
    """
    if isinstance(keep, str):
        keep = [keep]
    signs = np.empty(len(keep), dtype=float)
    for index, mode in enumerate(keep):
        if mode == "leq":
            signs[index] = 1.0
        elif mode == "geq":
            signs[index] = -1.0
        else:
            raise ValueError("keep must be 'leq' or 'geq', got %r" % (mode,))
    return signs


@dataclass
class BatchedCutResult:
    """Outcome of one stacked cut over ``k`` ellipsoids.

    ``centers``/``shapes`` hold the post-cut geometry for every item (no-op
    items carry their input values through unchanged); ``alphas`` the position
    parameters (``NaN`` for degenerate directions); ``updated`` which items
    actually changed — the batch analogue of ``CutResult.updated``, which is
    what counter bookkeeping (``cuts_applied``/``cut_count``) keys off.
    """

    centers: np.ndarray
    shapes: np.ndarray
    alphas: np.ndarray
    updated: np.ndarray


def _validate_batch(centers, shapes, directions, offsets, signs):
    centers = np.ascontiguousarray(centers, dtype=float)
    shapes = np.ascontiguousarray(shapes, dtype=float)
    directions = np.ascontiguousarray(directions, dtype=float)
    offsets = np.ascontiguousarray(offsets, dtype=float).reshape(-1)
    signs = np.ascontiguousarray(signs, dtype=float).reshape(-1)
    if centers.ndim != 2:
        raise ValueError("centers must be (k, n), got shape %s" % (centers.shape,))
    count, dimension = centers.shape
    if dimension < 2:
        raise ValueError(
            "batched Löwner–John updates require dimension >= 2, got %d" % dimension
        )
    if shapes.shape != (count, dimension, dimension):
        raise ValueError(
            "shapes must be (k, n, n) = %s, got %s"
            % ((count, dimension, dimension), shapes.shape)
        )
    if directions.shape != (count, dimension):
        raise ValueError(
            "directions must be (k, n) = %s, got %s"
            % ((count, dimension), directions.shape)
        )
    if offsets.shape != (count,) or signs.shape != (count,):
        raise ValueError(
            "offsets and keep signs must be length-%d vectors, got %s / %s"
            % (count, offsets.shape, signs.shape)
        )
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("keep signs must be +1 (leq) or -1 (geq)")
    return centers, shapes, directions, offsets, signs


# --------------------------------------------------------------------------- #
# numpy implementation
# --------------------------------------------------------------------------- #


def batched_support_intervals(
    centers: np.ndarray, shapes: np.ndarray, directions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Support intervals ``x^T c ± sqrt(x^T A x)`` for ``k`` (ellipsoid, direction) pairs.

    All inputs are stacked along axis 0; returns ``(lower, upper)`` length-k
    vectors.  Negative gains from numerical noise are clamped to zero, like
    the scalar :meth:`Ellipsoid.support_interval`.
    """
    raw = np.matmul(shapes, directions[:, :, None])[:, :, 0]  # A x, batched gemm
    gains = np.einsum("ki,ki->k", raw, directions)
    np.maximum(gains, 0.0, out=gains)
    half_widths = np.sqrt(gains)
    middles = np.einsum("ki,ki->k", directions, centers)
    return middles - half_widths, middles + half_widths


def block_support_intervals(
    center: np.ndarray, shape: np.ndarray, features: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Support intervals of **one** ellipsoid along ``r`` feature directions.

    The engine's conservative-tail block primitive: between two applied cuts
    the knowledge ellipsoid is constant, so a whole block of rounds can be
    bounded with one gemm-backed contraction instead of ``r`` Python-level
    matrix–vector products.
    """
    raw = features @ shape  # one gemm for the whole block
    gains = np.einsum("ri,ri->r", raw, features)
    np.maximum(gains, 0.0, out=gains)
    half_widths = np.sqrt(gains)
    middles = features @ center
    return middles - half_widths, middles + half_widths


def batched_cut(
    centers: np.ndarray,
    shapes: np.ndarray,
    directions: np.ndarray,
    offsets: np.ndarray,
    signs: np.ndarray,
    validate: bool = True,
) -> BatchedCutResult:
    """One stacked Löwner–John cut over ``k`` ellipsoids (numpy).

    Item-wise semantics match ``loewner_john_cut(..., on_infeasible='skip')``:

    * degenerate direction (``x^T A x < tiny``, including exact zero and
      denormal underflow) — no-op, ``alpha = NaN``;
    * ``α < -1/n - tol`` — no-op (the kept region's Löwner–John ellipsoid is
      the original);
    * ``α > 1 + tol`` — no-op (inconsistent observation, skipped);
    * ``1 <= α <= 1 + tol`` — collapse onto the supporting point with a tiny
      positive-definite shape;
    * otherwise — the Grötschel–Lovász–Schrijver deep/shallow-cut formulas,
      re-symmetrised.

    ``validate=False`` skips the dtype/shape validation pass for trusted
    internal callers (the engine's per-cut hot path) — inputs must already be
    C-contiguous float arrays of the documented shapes.
    """
    if validate:
        centers, shapes, directions, offsets, signs = _validate_batch(
            centers, shapes, directions, offsets, signs
        )
    count, dimension = centers.shape

    raw = np.matmul(shapes, directions[:, :, None])[:, :, 0]  # A x per item
    gains = np.einsum("ki,ki->k", raw, directions)  # x^T A x per item
    degenerate = ~(gains >= _DEGENERATE_GAIN)

    safe_gains = np.where(degenerate, 1.0, gains)
    roots = np.sqrt(safe_gains)
    signed = (np.einsum("ki,ki->k", directions, centers) - offsets) / roots
    alphas = signs * signed
    alphas[degenerate] = np.nan

    noop = degenerate | (alphas < -1.0 / dimension - _ALPHA_TOLERANCE)
    noop |= alphas > 1.0 + _ALPHA_TOLERANCE
    collapse = ~noop & (alphas >= 1.0)
    regular = ~noop & ~collapse

    boundary = raw / roots[:, None]  # b = A x / sqrt(x^T A x)
    if regular.all():
        # The common window: every item takes the regular formulas, so the
        # update runs on the whole stack with no gather/scatter copies.
        new_centers, new_shapes = _regular_cuts(
            centers, shapes, boundary, alphas, signs, dimension
        )
    else:
        new_centers = centers.copy()
        new_shapes = shapes.copy()
        if np.any(collapse):
            idx = np.nonzero(collapse)[0]
            new_centers[idx] = centers[idx] - signs[idx, None] * boundary[idx]
            traces = np.trace(shapes[idx], axis1=1, axis2=2)
            tiny = 1e-18 * traces / dimension
            new_shapes[idx] = tiny[:, None, None] * np.eye(dimension)[None, :, :]
        if np.any(regular):
            idx = np.nonzero(regular)[0]
            new_centers[idx], new_shapes[idx] = _regular_cuts(
                centers[idx], shapes[idx], boundary[idx], alphas[idx], signs[idx], dimension
            )

    return BatchedCutResult(
        centers=new_centers, shapes=new_shapes, alphas=alphas, updated=~noop
    )


def _regular_cuts(centers, shapes, boundary, alphas, signs, dimension):
    """Deep/shallow-cut formulas for a stack of regular items.

    The in-place scalings round exactly like the scalar-times-array
    expressions they replace (IEEE products commute), and spare four
    ``(k, n, n)`` temporaries per call.
    """
    scale = dimension**2 * (1.0 - alphas**2) / (dimension**2 - 1.0)
    rank_one = 2.0 * (1.0 + dimension * alphas) / ((dimension + 1.0) * (1.0 + alphas))
    shaped = boundary[:, :, None] * boundary[:, None, :]
    shaped *= rank_one[:, None, None]
    np.subtract(shapes, shaped, out=shaped)
    shaped *= scale[:, None, None]
    symmetric = shaped + np.swapaxes(shaped, 1, 2)
    symmetric *= 0.5
    step = ((1.0 + dimension * alphas) / (dimension + 1.0)) * signs
    return centers - step[:, None] * boundary, symmetric


def single_cut(
    center: np.ndarray,
    shape: np.ndarray,
    direction: np.ndarray,
    offset: float,
    sign: float,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Scalar twin of :func:`batched_cut` for the engine's k=1 hot path.

    A thin wrapper over the scalar cut kernel
    :func:`~repro.core.cuts.cut_trusted` under ``on_infeasible='skip'``, so
    the cut rule exists once.  Returns ``(new_center, new_shape)`` (fresh
    arrays, re-symmetrised) when the cut changes the ellipsoid, or ``None``
    for every no-op outcome — degenerate direction, shallow-cut no-op,
    inconsistent skip.  Inputs must already be float arrays of matching
    dimension with an exactly symmetric ``shape``.
    """
    result = cut_trusted(
        Ellipsoid.from_trusted(center, shape),
        direction,
        float(offset),
        "leq" if sign > 0 else "geq",
        "skip",
    )
    if not result.updated:
        return None
    return result.ellipsoid.center, result.ellipsoid.shape


# --------------------------------------------------------------------------- #
# torch implementation (optional; same interface, numpy in / numpy out)
# --------------------------------------------------------------------------- #


def _require_torch() -> None:
    if not HAS_TORCH:
        raise BackendUnavailableError(
            "the 'batched-torch' backend requires torch, which is not installed; "
            "use backend='batched' (numpy)"
        )


def batched_support_intervals_torch(centers, shapes, directions):
    """Torch twin of :func:`batched_support_intervals` (double precision)."""
    _require_torch()
    c = torch.as_tensor(np.ascontiguousarray(centers, dtype=float))
    a = torch.as_tensor(np.ascontiguousarray(shapes, dtype=float))
    d = torch.as_tensor(np.ascontiguousarray(directions, dtype=float))
    gains = torch.einsum("ki,kij,kj->k", d, a, d).clamp_min(0.0)
    half_widths = torch.sqrt(gains)
    middles = torch.einsum("ki,ki->k", d, c)
    return (middles - half_widths).numpy(), (middles + half_widths).numpy()


def block_support_intervals_torch(center, shape, features):
    """Torch twin of :func:`block_support_intervals` (double precision)."""
    _require_torch()
    c = torch.as_tensor(np.ascontiguousarray(center, dtype=float))
    a = torch.as_tensor(np.ascontiguousarray(shape, dtype=float))
    x = torch.as_tensor(np.ascontiguousarray(features, dtype=float))
    gains = torch.einsum("ri,ij,rj->r", x, a, x).clamp_min(0.0)
    half_widths = torch.sqrt(gains)
    middles = x @ c
    return (middles - half_widths).numpy(), (middles + half_widths).numpy()


def batched_cut_torch(
    centers, shapes, directions, offsets, signs, validate: bool = True
) -> BatchedCutResult:
    """Torch twin of :func:`batched_cut` (double precision, numpy in/out)."""
    _require_torch()
    if validate:
        centers, shapes, directions, offsets, signs = _validate_batch(
            centers, shapes, directions, offsets, signs
        )
    centers_np, shapes_np, directions_np, offsets_np, signs_np = (
        np.asarray(centers, dtype=float),
        np.asarray(shapes, dtype=float),
        np.asarray(directions, dtype=float),
        np.asarray(offsets, dtype=float),
        np.asarray(signs, dtype=float),
    )
    count, dimension = centers_np.shape
    c = torch.as_tensor(centers_np)
    a = torch.as_tensor(shapes_np)
    d = torch.as_tensor(directions_np)
    o = torch.as_tensor(offsets_np)
    s = torch.as_tensor(signs_np)

    raw = torch.einsum("kij,kj->ki", a, d)
    gains = torch.einsum("ki,ki->k", raw, d)
    degenerate = ~(gains >= _DEGENERATE_GAIN)

    roots = torch.sqrt(torch.where(degenerate, torch.ones_like(gains), gains))
    signed = (torch.einsum("ki,ki->k", d, c) - o) / roots
    alphas = s * signed
    alphas = torch.where(degenerate, torch.full_like(alphas, float("nan")), alphas)

    noop = degenerate | (alphas < -1.0 / dimension - _ALPHA_TOLERANCE)
    noop |= alphas > 1.0 + _ALPHA_TOLERANCE
    collapse = ~noop & (alphas >= 1.0)
    regular = ~noop & ~collapse

    new_c = c.clone()
    new_a = a.clone()
    boundary = raw / roots[:, None]

    if bool(collapse.any()):
        idx = torch.nonzero(collapse).reshape(-1)
        new_c[idx] = c[idx] - s[idx, None] * boundary[idx]
        traces = torch.diagonal(a[idx], dim1=1, dim2=2).sum(dim=1)
        tiny = 1e-18 * traces / dimension
        eye = torch.eye(dimension, dtype=a.dtype)
        new_a[idx] = tiny[:, None, None] * eye[None, :, :]

    if bool(regular.any()):
        idx = torch.nonzero(regular).reshape(-1)
        al = alphas[idx]
        scale = dimension**2 * (1.0 - al**2) / (dimension**2 - 1.0)
        rank_one = 2.0 * (1.0 + dimension * al) / ((dimension + 1.0) * (1.0 + al))
        outer = boundary[idx, :, None] * boundary[idx, None, :]
        shaped = scale[:, None, None] * (a[idx] - rank_one[:, None, None] * outer)
        new_a[idx] = 0.5 * (shaped + shaped.transpose(1, 2))
        step = ((1.0 + dimension * al) / (dimension + 1.0)) * s[idx]
        new_c[idx] = c[idx] - step[:, None] * boundary[idx]

    return BatchedCutResult(
        centers=new_c.numpy(),
        shapes=new_a.numpy(),
        alphas=alphas.numpy(),
        updated=(~noop).numpy(),
    )


def single_cut_torch(center, shape, direction, offset, sign):
    """Torch twin of :func:`single_cut` — delegates to the stacked kernel."""
    result = batched_cut_torch(
        np.asarray(center, dtype=float)[None, :],
        np.asarray(shape, dtype=float)[None, :, :],
        np.asarray(direction, dtype=float)[None, :],
        np.array([offset], dtype=float),
        np.array([sign], dtype=float),
        validate=False,
    )
    if not result.updated[0]:
        return None
    return result.centers[0], result.shapes[0]


# --------------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Backend:
    """One batched math backend: the primitive set the engine/serving use."""

    name: str
    batched_cut: Callable[..., BatchedCutResult]
    batched_support_intervals: Callable[..., Tuple[np.ndarray, np.ndarray]]
    block_support_intervals: Callable[..., Tuple[np.ndarray, np.ndarray]]
    single_cut: Callable[..., Optional[Tuple[np.ndarray, np.ndarray]]]


_NUMPY_BACKEND = Backend(
    name="batched",
    batched_cut=batched_cut,
    batched_support_intervals=batched_support_intervals,
    block_support_intervals=block_support_intervals,
    single_cut=single_cut,
)

_TORCH_BACKEND = Backend(
    name="batched-torch",
    batched_cut=batched_cut_torch,
    batched_support_intervals=batched_support_intervals_torch,
    block_support_intervals=block_support_intervals_torch,
    single_cut=single_cut_torch,
)


def get_backend(name: str) -> Backend:
    """Resolve a backend name to its primitive set.

    ``"batched"`` always resolves; ``"batched-torch"`` raises
    :class:`BackendUnavailableError` when torch is not installed (the
    container's toolchain is numpy-first — torch is strictly optional).
    """
    if name == "batched":
        return _NUMPY_BACKEND
    if name == "batched-torch":
        _require_torch()
        return _TORCH_BACKEND
    raise ValueError(
        "unknown batched backend %r; expected one of %r" % (name, BACKEND_NAMES)
    )
