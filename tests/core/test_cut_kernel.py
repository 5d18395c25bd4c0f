"""The trusted cut kernel against a frozen copy of the validating cut.

``_oracle_cut`` is the Löwner–John cut as it was written before the kernel
split it into a validating entry and a trusted body: every public helper
re-validated its direction and recomputed ``x^T A x``, and the resulting
``Ellipsoid`` was symmetrised a second time by its constructor.  The kernel
must reproduce it byte for byte (``tobytes()`` of center and shape, plus
``alpha``, ``kind`` and ``updated``) through every entry that reaches it —
``loewner_john_cut``, ``EllipsoidKnowledge.cut`` and
``EllipsoidPricer.update`` — and ``single_cut`` must agree with it within the
relaxed tier's geometry tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.base import PricingDecision
from repro.core.batched_ellipsoid import single_cut
from repro.core.cuts import CutKind, loewner_john_cut
from repro.core.ellipsoid import Ellipsoid, random_ellipsoid
from repro.core.knowledge import EllipsoidKnowledge
from repro.core.pricing import EllipsoidPricer, PricerConfig
from repro.engine.equivalence import KNOWLEDGE_GEOMETRY
from repro.exceptions import InvalidCutError

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TINY = float(np.finfo(float).tiny)
_ALPHA_TOLERANCE = 1e-12


# --------------------------------------------------------------------------- #
# The frozen oracle
# --------------------------------------------------------------------------- #


def _oracle_cut(center, shape, direction, offset, keep, on_infeasible):
    """Frozen copy of the cut before the kernel split.

    Returns ``(center, shape, alpha, kind, updated)``; raises
    ``InvalidCutError`` exactly where the old ``on_infeasible='raise'`` did.
    """
    dimension = center.shape[0]
    gain = float(direction @ shape @ direction)  # loewner_john_cut's direction_gain
    if not gain >= _TINY:
        if on_infeasible == "raise":
            raise InvalidCutError("degenerate")
        return center, shape, float("nan"), CutKind.NOOP, False
    gain = float(direction @ shape @ direction)  # cut_position's direction_gain
    signed = (float(direction @ center) - offset) / math.sqrt(gain)
    alpha = signed if keep == "leq" else -signed
    if alpha > 1.0 + _ALPHA_TOLERANCE:
        if on_infeasible == "raise":
            raise InvalidCutError("empty")
        if on_infeasible == "skip":
            return center, shape, alpha, CutKind.NOOP, False
        alpha = 1.0
    if alpha < -1.0 / dimension - _ALPHA_TOLERANCE:
        return center, shape, alpha, CutKind.NOOP, False
    if abs(alpha) <= _ALPHA_TOLERANCE:
        kind = CutKind.CENTRAL
    elif alpha > 0:
        kind = CutKind.DEEP
    else:
        kind = CutKind.SHALLOW
    sign = 1.0 if keep == "leq" else -1.0
    gain = float(direction @ shape @ direction)  # boundary_vector's direction_gain
    boundary = (shape @ direction) / math.sqrt(gain)
    if alpha >= 1.0:
        new_center = center - sign * boundary
        new_shape = (1e-18 * np.trace(shape) / dimension) * np.eye(dimension)
    else:
        scale = dimension**2 * (1.0 - alpha**2) / (dimension**2 - 1.0)
        rank_one = 2.0 * (1.0 + dimension * alpha) / ((dimension + 1.0) * (1.0 + alpha))
        new_shape = scale * (shape - rank_one * np.outer(boundary, boundary))
        new_center = center - sign * ((1.0 + dimension * alpha) / (dimension + 1.0)) * boundary
        new_shape = 0.5 * (new_shape + new_shape.T)
    new_shape = 0.5 * (new_shape + new_shape.T)  # Ellipsoid.__init__, second pass
    return new_center, new_shape, alpha, kind, True


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #


def _same_alpha(left, right):
    return (math.isnan(left) and math.isnan(right)) or left == right


def _assert_bytes_equal(ellipsoid, center, shape):
    assert ellipsoid.center.tobytes() == center.tobytes()
    assert ellipsoid.shape.tobytes() == shape.tobytes()


@st.composite
def cut_cases(draw):
    """(ellipsoid, direction, offset, keep) covering every alpha regime.

    The offset is placed at a drawn target ``α`` (``> 1``, ``[-1/n, 1]``,
    ``< -1/n``), so deep, shallow, central, no-op and infeasible cuts all
    occur; directions include zero and denormal vectors.
    """
    dimension = draw(st.integers(min_value=2, max_value=7))
    ellipsoid = random_ellipsoid(
        dimension,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        scale=draw(st.sampled_from([1e-3, 1.0, 50.0])),
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    kind = draw(st.sampled_from(["regular", "regular", "regular", "zero", "denormal"]))
    direction = rng.standard_normal(dimension)
    if kind == "zero":
        direction = np.zeros(dimension)
    elif kind == "denormal":
        direction = direction * 10.0 ** draw(st.integers(min_value=-320, max_value=-150))
    keep = draw(st.sampled_from(["leq", "geq"]))
    target = draw(
        st.one_of(
            st.floats(min_value=-1.0 / dimension, max_value=1.0),
            st.floats(min_value=1.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=-1.0 / dimension),
            st.sampled_from([0.0, 1.0, -1.0 / dimension, 1.0 + 1e-13]),
        )
    )
    gain = float(direction @ ellipsoid.shape @ direction)
    root = math.sqrt(gain) if gain > 0 else 1.0
    middle = float(direction @ ellipsoid.center)
    offset = middle - target * root if keep == "leq" else middle + target * root
    return ellipsoid, direction, float(offset), keep


def _unit_ball_alpha_one(keep):
    """A cut whose ``α`` is exactly 1: the kept region is one point."""
    ellipsoid = Ellipsoid.ball(3, 1.0)
    direction = np.array([1.0, 0.0, 0.0])
    return ellipsoid, direction, (-1.0 if keep == "leq" else 1.0), keep


# --------------------------------------------------------------------------- #
# Bit-exact through every entry
# --------------------------------------------------------------------------- #


MODES = ["raise", "skip", "clamp"]


@pytest.mark.parametrize("on_infeasible", MODES)
@SETTINGS
@given(case=cut_cases())
@example(case=_unit_ball_alpha_one("leq"))
@example(case=_unit_ball_alpha_one("geq"))
def test_loewner_john_cut_is_bit_exact(on_infeasible, case):
    ellipsoid, direction, offset, keep = case
    try:
        expected = _oracle_cut(
            ellipsoid.center, ellipsoid.shape, direction, offset, keep, on_infeasible
        )
    except InvalidCutError:
        with pytest.raises(InvalidCutError):
            loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible=on_infeasible)
        return
    result = loewner_john_cut(ellipsoid, direction, offset, keep, on_infeasible=on_infeasible)
    center, shape, alpha, kind, updated = expected
    _assert_bytes_equal(result.ellipsoid, center, shape)
    assert _same_alpha(result.alpha, alpha)
    assert result.kind is kind
    assert result.updated is updated
    if not updated:
        assert result.ellipsoid is ellipsoid


@pytest.mark.parametrize("on_infeasible", MODES)
@SETTINGS
@given(case=cut_cases())
@example(case=_unit_ball_alpha_one("leq"))
def test_knowledge_cut_is_bit_exact(on_infeasible, case):
    ellipsoid, direction, offset, keep = case
    knowledge = EllipsoidKnowledge(ellipsoid.copy())
    try:
        expected = _oracle_cut(
            ellipsoid.center, ellipsoid.shape, direction, offset, keep, on_infeasible
        )
    except InvalidCutError:
        with pytest.raises(InvalidCutError):
            knowledge.cut(direction, offset, keep, on_infeasible=on_infeasible)
        assert knowledge.cut_count == 0
        return
    changed = knowledge.cut(direction, offset, keep, on_infeasible=on_infeasible)
    center, shape, alpha, kind, updated = expected
    assert changed is updated
    assert knowledge.cut_count == int(updated)
    _assert_bytes_equal(knowledge.ellipsoid, center, shape)
    assert _same_alpha(knowledge.last_cut.alpha, alpha)
    assert knowledge.last_cut.kind is kind


@SETTINGS
@given(case=cut_cases(), delta=st.sampled_from([0.0, 0.05]), accepted=st.booleans())
def test_pricer_update_is_bit_exact(case, delta, accepted):
    ellipsoid, direction, offset, _ = case
    dimension = ellipsoid.dimension
    config = PricerConfig(dimension=dimension, radius=1.0, epsilon=1e-9, delta=delta)
    pricer = EllipsoidPricer(config, initial_ellipsoid=ellipsoid)
    lower, upper = ellipsoid.support_interval(direction)
    price = offset + delta if accepted else offset - delta
    decision = PricingDecision(
        features=direction,
        reserve=None,
        lower_bound=lower,
        upper_bound=upper,
        price=price,
        exploratory=True,
        skipped=False,
        round_index=0,
    )
    pricer.update(decision, accepted)
    keep, cut_offset = ("geq", price - delta) if accepted else ("leq", price + delta)
    if upper - lower <= 1e-12:
        center, shape, updated = ellipsoid.center, ellipsoid.shape, False
    else:
        center, shape, _, _, updated = _oracle_cut(
            ellipsoid.center, ellipsoid.shape, direction, cut_offset, keep, "skip"
        )
    _assert_bytes_equal(pricer.knowledge.ellipsoid, center, shape)
    assert pricer.cuts_applied == int(updated)


@SETTINGS
@given(case=cut_cases())
def test_single_cut_within_relaxed_tolerances(case):
    ellipsoid, direction, offset, keep = case
    sign = 1.0 if keep == "leq" else -1.0
    center, shape, _, _, updated = _oracle_cut(
        ellipsoid.center, ellipsoid.shape, direction, offset, keep, "skip"
    )
    result = single_cut(ellipsoid.center, ellipsoid.shape, direction, offset, sign)
    assert (result is not None) is updated
    if result is not None:
        KNOWLEDGE_GEOMETRY.assert_close(result[0], center, "center")
        KNOWLEDGE_GEOMETRY.assert_close(result[1], shape, "shape")
