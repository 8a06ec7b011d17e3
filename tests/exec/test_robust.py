"""RetryPolicy rules and the deterministic jitter draw."""

from repro.exec import JobFailure, RetryPolicy, unit_roll


def _failure(kind, digest="d" * 32):
    return JobFailure(spec_digest=digest, label="fib-flex2",
                      error_type="X", message="m",
                      timed_out=(kind == "timeout"), kind=kind)


# -- unit_roll ----------------------------------------------------------

def test_unit_roll_deterministic_and_uniformish():
    assert unit_roll(1, "a", 0) == unit_roll(1, "a", 0)
    assert unit_roll(1, "a", 0) != unit_roll(1, "a", 1)
    draws = [unit_roll(7, "x", i) for i in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.3 < sum(draws) / len(draws) < 0.7


# -- RetryPolicy --------------------------------------------------------

def test_retry_classification_by_kind():
    policy = RetryPolicy()
    assert policy.retryable(_failure("timeout"))
    assert policy.retryable(_failure("crash"))
    assert not policy.retryable(_failure("sim-error")), \
        "re-running a pure function cannot change the answer"


def test_retry_budget_is_total_attempts():
    policy = RetryPolicy(max_attempts=3)
    timeout = _failure("timeout")
    assert policy.should_retry(timeout, 0)
    assert policy.should_retry(timeout, 1)
    assert not policy.should_retry(timeout, 2)
    assert not RetryPolicy(max_attempts=1).should_retry(timeout, 0)


def test_backoff_grows_with_deterministic_jitter():
    policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0,
                         jitter=0.25, seed=3)
    d0 = policy.delay("a" * 32, 0)
    d1 = policy.delay("a" * 32, 1)
    # Within the jitter band around 0.1 and 0.2 respectively.
    assert 0.075 <= d0 < 0.125
    assert 0.15 <= d1 < 0.25
    # Pure function of (seed, digest, attempt): replayable.
    assert d0 == RetryPolicy(backoff_seconds=0.1, jitter=0.25,
                             seed=3).delay("a" * 32, 0)
    assert d0 != RetryPolicy(backoff_seconds=0.1, jitter=0.25,
                             seed=4).delay("a" * 32, 0)


def test_no_jitter_is_exact_exponential():
    policy = RetryPolicy(backoff_seconds=0.5, backoff_factor=3.0,
                         jitter=0.0)
    assert policy.delay("d", 0) == 0.5
    assert policy.delay("d", 2) == 4.5


def test_timeout_raised_on_retries_only():
    policy = RetryPolicy(timeout_scale=2.0)
    assert policy.timeout_for(None, 3) is None
    assert policy.timeout_for(10.0, 0) == 10.0
    assert policy.timeout_for(10.0, 1) == 20.0
    assert policy.timeout_for(10.0, 2) == 40.0
