"""Validate once at the boundary: the finite-check budget of a served quote.

A quote served through ``QuoteService`` and settled through
``feedback_batch`` crosses two validating entries — ``propose`` (the
features) and ``EllipsoidKnowledge.cut`` (the cut direction).  Everything
below them (the support interval, the cut position, the boundary vector, the
updated ellipsoid) is a trusted kernel that must not check the same arrays
again.
"""

import numpy as np
import pytest

import repro.utils.validation as validation
from repro.core.models import LinearModel
from repro.core.pricing import make_pricer
from repro.serving import (
    FeedbackEvent,
    MicroBatchConfig,
    PricerRegistry,
    QuoteRequest,
    QuoteService,
    SessionKey,
)

SESSIONS = 16
DIMENSION = 20
ROUNDS = 12
#: ``propose`` checks the features, ``EllipsoidKnowledge.cut`` the direction.
CHECKS_PER_EXPLORATORY_QUOTE = 2


@pytest.fixture
def counted_checks(monkeypatch):
    calls = []
    original = validation.ensure_finite_array

    def counting(value, name="array"):
        calls.append(name)
        return original(value, name=name)

    monkeypatch.setattr(validation, "ensure_finite_array", counting)
    return calls


def test_lockstep_window_checks_each_quote_at_most_twice(counted_checks):
    rng = np.random.default_rng(7)
    theta = np.abs(rng.standard_normal(DIMENSION))
    model = LinearModel(theta)
    registry = PricerRegistry(
        lambda key: (model, make_pricer(dimension=DIMENSION, radius=20.0, epsilon=1e-9))
    )
    service = QuoteService(
        registry, config=MicroBatchConfig(max_batch=SESSIONS, max_wait_seconds=0.001)
    )
    keys = [SessionKey("count", "s%d" % index) for index in range(SESSIONS)]
    for key in keys:
        registry.session(key)  # creation validates its own inputs; not counted
    exploratory = 0
    del counted_checks[:]
    for _ in range(ROUNDS):
        features = np.abs(rng.standard_normal((SESSIONS, DIMENSION)))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        row_of = dict(zip(keys, features))
        service.submit_many(
            QuoteRequest(key=key, features=row, reserve=0.1) for key, row in row_of.items()
        )
        responses = service.flush()
        assert len(responses) == SESSIONS
        exploratory += sum(response.exploratory for response in responses)
        service.feedback_batch(
            FeedbackEvent(
                key=response.key,
                quote_id=response.quote_id,
                accepted=response.sold_at(float(row_of[response.key] @ theta)),
            )
            for response in responses
        )
    assert exploratory == SESSIONS * ROUNDS  # every quote explores and cuts
    assert counted_checks, "the counter is not on the validation path"
    assert len(counted_checks) <= CHECKS_PER_EXPLORATORY_QUOTE * exploratory
