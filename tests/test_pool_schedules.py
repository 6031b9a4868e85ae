"""The worker pool's ordering rules, over schedules searched in one thread.

``generator._in_order`` looks ``ThreadPoolExecutor`` up on its module, so a
single-threaded fake stands in for it here. At most ``workers`` submitted
calls count as running; a call runs, all at once, when a seeded RNG picks it
to finish, which happens while the writer waits on a result or sleeps out a
backoff. Hypothesis draws the captions' fates and the seed, so the test
searches the orders in which calls finish instead of sampling them as real
threads do. The threaded tests ("Pool stress" in CI) cover what this leaves
out, such as the locks in ``MockScript`` and the rate limiter.
"""

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cap2qa import generator
from cap2qa.errors import RuntimeFailure
from cap2qa.llm_client import Backoff

OK, PARK_ONCE, PARK_TWICE, FAIL = "ok", "park once", "park twice", "fail"
PARKS = {OK: 0, PARK_ONCE: 1, PARK_TWICE: 2}


class Failed(RuntimeFailure):
    def __init__(self, caption):
        super().__init__(f"caption {caption} failed")
        self.caption = caption


class FakeFuture:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args
        self.state = "queued"
        self.value = self.error = None
        self.read = False  # whether the writer has asked for its result

    def done(self):
        return self.state in ("done", "cancelled")

    def cancelled(self):
        return self.state == "cancelled"

    def exception(self):
        assert self.state == "done"
        return self.error

    def result(self):
        self.read = True
        while not self.done():
            self.pool.finish_one()
        assert self.state == "done", "the writer read a cancelled future"
        if self.error is not None:
            raise self.error
        return self.value


class World:
    """One schedule: the fake pool's state, its RNG, and what the invariants need to see."""

    def __init__(self, seed, workers):
        self.rng = random.Random(seed)
        self.workers = workers
        self.futures: list[FakeFuture] = []
        self.queue: list[FakeFuture] = []
        self.running: list[FakeFuture] = []
        self.first_calls = Counter()
        self.ended = False  # set once the pool is shut down with its queue cancelled
        self.pools = 0
        self.now = 0.0

    # -- the executor ---------------------------------------------------
    def executor(self, max_workers, initializer=None):
        # initializer=park_retries would set the thread-local on this, the
        # test's own thread; the fates below decide which calls park.
        assert max_workers == self.workers
        self.pools += 1
        return FakePool(self)

    def submit(self, fn, *args):
        assert not self.ended, "a call was submitted after the run ended"
        if not args:
            # A resume, submitted as ``pool.submit(backoff.resume)``: no failure may be done by now.
            failed = self.failures_done()
            assert not failed, f"a resume was submitted after caption {failed[0].error.caption} failed"
        future = FakeFuture(self, fn, args)
        self.futures.append(future)
        self.queue.append(future)
        unread = sum(not f.read for f in self.futures)
        assert unread <= generator._POOL_WINDOW_PER_WORKER * self.workers, "the window outgrew its bound"
        self.start_queued()
        return future

    def start_queued(self):
        while self.queue and len(self.running) < self.workers:
            assert not self.ended, "a call started after the run ended"
            future = self.queue.pop(0)
            future.state = "running"
            self.running.append(future)

    def finish_one(self):
        assert self.running, "the writer waits on a call that can never run"
        future = self.running.pop(self.rng.randrange(len(self.running)))
        try:
            future.value = future.fn(*future.args)
        except Exception as error:  # a fate's exception is the future's outcome
            future.error = error
        future.state = "done"
        self.start_queued()

    def shutdown(self, wait, cancel_futures):
        if cancel_futures:
            for future in self.queue:
                future.state = "cancelled"
            self.queue.clear()
            self.ended = True
        if wait:
            while self.running or self.queue:
                self.finish_one()

    # -- the client's clock, for Backoff.wait ---------------------------
    def monotonic(self):
        return self.now

    def failures_done(self):
        return [f for f in self.futures if f.state == "done" and f.error is not None and not isinstance(f.error, Backoff)]

    def sleep(self, seconds):
        failed = self.failures_done()
        assert not failed, f"the writer slept out a backoff after caption {failed[0].error.caption} failed"
        # Workers go on while the writer sleeps.
        self.now += seconds
        for _ in range(self.rng.randint(0, len(self.running))):
            self.finish_one()


class FakePool:
    def __init__(self, world):
        self.world = world

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.world.shutdown(wait=True, cancel_futures=False)

    def submit(self, fn, *args):
        return self.world.submit(fn, *args)

    def shutdown(self, wait=True, cancel_futures=False):
        self.world.shutdown(wait, cancel_futures)


def make_run(world, fates):
    """The per-caption call: a caption's fate decides whether it returns, parks, or fails."""

    def step(caption, parked):
        if fates[caption] == FAIL:
            raise Failed(caption)
        if parked < PARKS[fates[caption]]:
            raise Backoff(world, world.now + world.rng.random(), partial(step, caption, parked + 1))
        return ("outcome", caption)

    def run(caption):
        world.first_calls[caption] += 1
        assert world.first_calls[caption] == 1, f"caption {caption}'s first call ran twice"
        return step(caption, 0)

    return run


def drive(fates, workers, seed, close_after=None):
    """Run ``_in_order`` over ``range(len(fates))`` on the fake pool; return (world, yielded, error)."""
    world = World(seed, workers)
    yielded, error = [], None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "ThreadPoolExecutor", world.executor)
        outcomes = generator._in_order(list(range(len(fates))), make_run(world, fates), workers)
        try:
            for caption, outcome in outcomes:
                assert outcome == ("outcome", caption)
                yielded.append(caption)
                if len(yielded) == close_after:
                    outcomes.close()
                    break
        except Failed as failure:
            error = failure
    return world, yielded, error


fates_st = st.lists(st.sampled_from([OK, PARK_ONCE, PARK_TWICE, FAIL]), min_size=1, max_size=12)


def check_common(world, fates, yielded):
    assert world.pools == 1
    assert yielded == list(range(len(yielded))), "captions were yielded out of order"
    assert all(fates[c] != FAIL for c in yielded)
    assert world.ended, "the queue was not cancelled"
    assert not world.running and not world.queue


@settings(max_examples=300, deadline=None)
@given(fates=fates_st, workers=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), per_worker=st.sampled_from([1, 2, 64]))
def test_a_run_yields_the_prefix_before_its_first_unfinished_caption(fates, workers, seed, per_worker):
    # A small window per worker lets twelve captions fill it; 64 is the real one.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "_POOL_WINDOW_PER_WORKER", per_worker)
        world, yielded, error = drive(fates, workers, seed)
    check_common(world, fates, yielded)
    if FAIL not in fates:
        assert error is None
        assert yielded == list(range(len(fates)))
        return
    assert error is not None, "a run with a failed caption ended without raising it"
    k = len(yielded)
    assert error.caption >= k and fates[error.caption] == FAIL
    # Caption k is the first failure, or a parked caption whose resume was refused.
    assert fates[k] in (FAIL, PARK_ONCE, PARK_TWICE)


@settings(max_examples=100, deadline=None)
@given(fates=st.lists(st.sampled_from([OK, PARK_ONCE, PARK_TWICE]), min_size=2, max_size=12), workers=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_closing_the_generator_early_cancels_the_queue(fates, workers, seed, data):
    close_after = data.draw(st.integers(1, len(fates) - 1))
    world, yielded, error = drive(fates, workers, seed, close_after)
    assert error is None
    assert yielded == list(range(close_after))
    check_common(world, fates, yielded)
