"""Public entries still refuse bad input after the trusted-kernel split.

Every public geometry and pricing entry validates its inputs once and then
hands them to an unchecked kernel.  NaN, infinite and wrong-dimension input
must still be refused at the entry with the same exception type as before
the split — ``ValueError`` for non-finite values, ``DimensionMismatchError``
for a wrong shape — and a cut whose arithmetic overflows must raise rather
than store a non-finite ellipsoid.
"""

import numpy as np
import pytest

from repro.core.cuts import cut_position, loewner_john_cut
from repro.core.ellipsoid import Ellipsoid, random_ellipsoid
from repro.core.knowledge import EllipsoidKnowledge
from repro.core.pricing import EllipsoidPricer, PricerConfig
from repro.exceptions import DimensionMismatchError, NotPositiveDefiniteError

DIMENSION = 4
GOOD = np.array([0.5, -0.25, 1.0, 0.75])
BAD_VECTORS = [
    pytest.param(np.array([0.5, np.nan, 1.0, 0.75]), ValueError, id="nan"),
    pytest.param(np.array([0.5, np.inf, 1.0, 0.75]), ValueError, id="inf"),
    pytest.param(np.array([0.5, -np.inf, 1.0, 0.75]), ValueError, id="-inf"),
    pytest.param(np.ones(DIMENSION + 1), DimensionMismatchError, id="too-long"),
    pytest.param(np.ones(DIMENSION - 1), DimensionMismatchError, id="too-short"),
    pytest.param(np.ones((DIMENSION, 1)), DimensionMismatchError, id="two-dimensional"),
]
BAD_SCALARS = [
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(float("-inf"), id="-inf"),
]


def _ellipsoid():
    return random_ellipsoid(DIMENSION, seed=5)


def _pricer():
    config = PricerConfig(dimension=DIMENSION, radius=3.0, epsilon=1e-3)
    return EllipsoidPricer(config)


VECTOR_ENTRIES = {
    "loewner_john_cut": lambda x: loewner_john_cut(_ellipsoid(), x, 0.1, "leq", "skip"),
    "cut_position": lambda x: cut_position(_ellipsoid(), x, 0.1, "leq"),
    "EllipsoidKnowledge.cut": lambda x: EllipsoidKnowledge(_ellipsoid()).cut(x, 0.1, "geq"),
    "Ellipsoid.support_interval": lambda x: _ellipsoid().support_interval(x),
    "Ellipsoid.direction_gain": lambda x: _ellipsoid().direction_gain(x),
    "Ellipsoid.boundary_vector": lambda x: _ellipsoid().boundary_vector(x),
    "EllipsoidPricer.propose": lambda x: _pricer().propose(x, reserve=0.1),
}

SCALAR_ENTRIES = {
    "loewner_john_cut": lambda v: loewner_john_cut(_ellipsoid(), GOOD, v, "leq", "skip"),
    "cut_position": lambda v: cut_position(_ellipsoid(), GOOD, v, "leq"),
    "EllipsoidKnowledge.cut": lambda v: EllipsoidKnowledge(_ellipsoid()).cut(GOOD, v, "geq"),
    "EllipsoidPricer.propose": lambda v: _pricer().propose(GOOD, reserve=v),
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_good_vector_is_accepted(entry):
    VECTOR_ENTRIES[entry](GOOD)


@pytest.mark.parametrize("bad, error", BAD_VECTORS)
@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_bad_vector_is_refused(entry, bad, error):
    with pytest.raises(error):
        VECTOR_ENTRIES[entry](bad)


@pytest.mark.parametrize("bad", BAD_SCALARS)
@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
def test_non_finite_scalar_is_refused(entry, bad):
    with pytest.raises(ValueError):
        SCALAR_ENTRIES[entry](bad)


def test_refused_cut_leaves_knowledge_untouched():
    knowledge = EllipsoidKnowledge(_ellipsoid())
    before = knowledge.ellipsoid
    with pytest.raises(ValueError):
        knowledge.cut(np.array([0.5, np.nan, 1.0, 0.75]), 0.1, "leq")
    assert knowledge.ellipsoid is before
    assert knowledge.cut_count == 0


def test_overflowing_cut_raises_instead_of_storing_inf():
    # A central cut scales the untouched axis by n²/(n² - 1) = 4/3, which
    # overflows the re-symmetrisation of an entry near the largest double.
    ellipsoid = Ellipsoid(np.zeros(2), 8e307 * np.eye(2))
    knowledge = EllipsoidKnowledge(ellipsoid)
    direction = np.array([1.0, 0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        loewner_john_cut(ellipsoid, direction, 0.0, "leq")
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        knowledge.cut(direction, 0.0, "leq")
    assert knowledge.ellipsoid is ellipsoid
    assert np.isfinite(knowledge.ellipsoid.shape).all()


class TestConstruction:
    def test_validating_constructor_rejects_non_positive_definite_shape(self):
        with pytest.raises(NotPositiveDefiniteError):
            Ellipsoid(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_validating_constructor_rejects_singular_shape(self):
        with pytest.raises(NotPositiveDefiniteError):
            Ellipsoid(np.zeros(3), np.diag([1.0, 1.0, 0.0]))

    def test_ball_is_bit_identical_to_the_validated_construction(self):
        for dimension, radius in [(2, 1.0), (20, 2.0 * np.sqrt(20)), (55, 0.3)]:
            ball = Ellipsoid.ball(dimension, radius)
            validated = Ellipsoid(np.zeros(dimension), (radius**2) * np.eye(dimension))
            assert ball.center.tobytes() == validated.center.tobytes()
            assert ball.shape.tobytes() == validated.shape.tobytes()

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
    def test_ball_rejects_bad_radius(self, radius):
        with pytest.raises(ValueError):
            Ellipsoid.ball(3, radius)

    def test_ball_too_small_to_be_positive_definite(self):
        # The validated constructor's eigenvalue tolerance, in scalar form.
        with pytest.raises(NotPositiveDefiniteError):
            Ellipsoid.ball(3, 1e-6)

    def test_ball_rejects_wrong_center_dimension(self):
        with pytest.raises(DimensionMismatchError):
            Ellipsoid.ball(3, 1.0, center=np.zeros(4))
