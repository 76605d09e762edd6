"""The exhaustive Segal battery checked in shares (spanlab.fanout): the
verdicts, witnesses and reports of the in-order run, and no process left
behind.  S is forced through a patched os.sched_getaffinity."""
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import fanout
from spanlab import spans as spans_module
from spanlab.cli import run_request
from spanlab.fincat import finset
from spanlab.shapes import sigma_shape
from spanlab.spans import enumerate_lambda_data, segal_check
from spanlab.verdict import Verdict
from test_fincat import divisor_lattice


@pytest.fixture(autouse=True)
def no_process_left():
    """After every case this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def on_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def counted_forks(monkeypatch):
    """The pids of the workers forked from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def in_shares(monkeypatch, run, cpus=(2, 3)):
    """run() on one CPU and then on each count of cpus, each result with
    the number of workers it forked."""
    results, pids = [], counted_forks(monkeypatch)
    for n in (1, *cpus):
        on_cpus(monkeypatch, n)
        before = len(pids)
        results.append((run(), len(pids) - before))
    return results


def summary(v):
    return v.status, v.witness, v.details


# The exhaustive Segal requests of bench/workloads.py (the suite's draws 48 twists).
BENCH_SHAPES = [
    (lambda: finset(2), (2,), 24),
    (lambda: finset(1), (2, 1), 24),
    (lambda: finset(1), (5,), 24),
    (lambda: divisor_lattice(30), (2,), 24),
    (lambda: finset(2), (2,), 48),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "make_base, arities, samples",
    BENCH_SHAPES,
    ids=["finset2-2", "finset1-2-1", "finset1-5", "lattice30-2", "finset2-2-suite"],
)
def test_shares_give_the_in_order_verdict(make_base, arities, samples, seed, monkeypatch):
    base = make_base()
    results = in_shares(monkeypatch, lambda: segal_check(base, arities, seed=seed, samples=samples))
    (alone, none), *shared = results
    assert none == 0 and alone.details["mode"] == "exhaustive"
    count = alone.details["data_checked"]
    for cpus, (v, forked) in zip((2, 3), shared):
        assert summary(v) == summary(alone)
        assert forked == min(cpus, count // fanout.PER_SHARE) - 1 > 0


def test_sampled_runs_stay_in_order(monkeypatch):
    """Sampled data are drawn from the twists' rng, so nothing is forked."""
    base = finset(2)
    results = in_shares(monkeypatch, lambda: segal_check(base, (2, 2), samples=130))
    assert results[0][0].details["mode"] == "sampled"
    assert [(summary(v), forked) for v, forked in results] == [(summary(results[0][0]), 0)] * 3


def test_share_count(monkeypatch):
    on_cpus(monkeypatch, 2)
    assert [fanout.share_count(n) for n in (0, 127, 128, 10**6)] == [1, 1, 2, 2]
    on_cpus(monkeypatch, 1)
    assert fanout.share_count(10**6) == 1
    on_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert fanout.share_count(10**6) == 1


def datum_key(lo, lm):
    return tuple(sorted(lo.items())), tuple(sorted(lm.items()))


def finset2_data():
    """The 971 free data of finset:2 at arity 2, in the battery's order."""
    return [datum_key(*d) for d in enumerate_lambda_data(sigma_shape(2), finset(2))]


def plant(monkeypatch, refute=(), raise_at=(), twist_at=()):
    """Refute the data of finset:2 at arity 2 at the indices in refute,
    raise at those in raise_at, and refute the twists on the data at
    twist_at.  Patched before the fork, so every worker has them too."""
    data = finset2_data()
    refuting, raising, twisting = ({data[i]: i for i in at} for at in (refute, raise_at, twist_at))
    check, twist = spans_module._check_one_datum, spans_module._check_twist

    def planted_check(shape, base, lo, lm, dirs):
        key = datum_key(lo, lm)
        if key in raising:
            raise ValueError(f"planted at {raising[key]}")
        v, ext = check(shape, base, lo, lm, dirs)
        return (Verdict.refuted(witness={"planted": refuting[key]}) if key in refuting else v), ext

    def planted_twist(shape, base, ext, dirs, rng):
        v = twist(shape, base, ext, dirs, rng)  # the rng stream does not move
        for key, i in twisting.items():
            if all(ext.obj[c] == x for c, x in key[0]) and all(ext.mor[p] == m for p, m in key[1]):
                return Verdict.refuted(witness={"planted twist": i})
        return v

    monkeypatch.setattr(spans_module, "_check_one_datum", planted_check)
    monkeypatch.setattr(spans_module, "_check_twist", planted_twist)


def twist_indices(seed=0):
    return sorted(random.Random(seed).sample(range(971), 24))


def owner(i, shares=2):
    return (i // fanout.BLOCK) % shares


@pytest.mark.parametrize(
    "refute, first",
    [
        ((40,), 40),  # a worker's share alone
        ((5,), 5),  # this process's share alone
        ((40, 70), 40),  # a worker's refutation before one here
        ((100, 70), 70),  # one here before a worker's
        ((970, 33, 100), 33),
    ],
)
def test_planted_refutation_is_the_first_in_data_order(refute, first, monkeypatch):
    plant(monkeypatch, refute=refute)
    results = in_shares(monkeypatch, lambda: segal_check(finset(2), (2,)))
    for v, forked in results:
        assert summary(v) == ("refuted", {"planted": first}, {"mode": "exhaustive"})
    assert [forked for _, forked in results] == [0, 1, 2]


@pytest.mark.parametrize("raise_at, refute", [((40,), ()), ((40,), (70,)), ((100,), (70,)), ((5,), (40,))])
def test_an_exception_in_a_share_gives_the_in_order_report(raise_at, refute, monkeypatch):
    plant(monkeypatch, refute=refute, raise_at=raise_at)
    argv = ["check", "segal", "--base", "finset:2", "--arities", "2"]
    results = in_shares(monkeypatch, lambda: run_request(argv))
    for (report, code), _ in results:
        report.pop("timing", None)
        assert (report, code) == (results[0][0][0], results[0][0][1])
    report, code = results[0][0]
    if min(raise_at) < min(refute, default=971):
        assert code == 3 and report["witness"] == {"error": f"ValueError: planted at {raise_at[0]}"}
    else:
        assert code == 1 and report["witness"] == {"planted": refute[0]}


def test_a_twist_refutation_before_a_datum_refutation_is_reported(monkeypatch):
    """Twists run here in index order, each on a rebuilt extension where a
    worker checked its datum; a twist before the first failing datum
    refutes first, and one after it is never reached."""
    t = next(i for i in twist_indices() if owner(i) == 1)
    later = next(i for i in range(t + 1, 971) if owner(i) == 1)
    plant(monkeypatch, refute=(later,), twist_at=(t,))
    for v, _ in in_shares(monkeypatch, lambda: segal_check(finset(2), (2,))):
        assert summary(v) == ("refuted", {"planted twist": t}, {"mode": "twist"})
    monkeypatch.undo()
    plant(monkeypatch, refute=(t,), twist_at=(t, later))
    for v, _ in in_shares(monkeypatch, lambda: segal_check(finset(2), (2,))):
        assert summary(v) == ("refuted", {"planted": t}, {"mode": "exhaustive"})


def test_an_interrupt_here_ends_every_worker(monkeypatch):
    on_cpus(monkeypatch, 2)
    pids = counted_forks(monkeypatch)
    data, check = finset2_data(), spans_module._check_one_datum

    def interrupted(shape, base, lo, lm, dirs):
        if datum_key(lo, lm) == data[70]:
            raise KeyboardInterrupt
        return check(shape, base, lo, lm, dirs)

    monkeypatch.setattr(spans_module, "_check_one_datum", interrupted)
    with pytest.raises(KeyboardInterrupt):
        segal_check(finset(2), (2,))
    assert len(pids) == 1


def in_order(n, fail_check, fail_visit, raising):
    """The first failure of an in-order run, as first_failure reports it."""
    for i in range(n):
        if i in raising:
            return "raised", i
        if i in fail_check:
            return "check", i
        if i in fail_visit:
            return "visit", i
    return None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 300),
    shares=st.integers(1, 3),
    fail_check=st.sets(st.integers(0, 299), max_size=3),
    fail_visit=st.sets(st.integers(0, 299), max_size=3),
    raising=st.sets(st.integers(0, 299), max_size=2),
)
def test_first_failure_is_the_in_order_one(n, shares, fail_check, fail_visit, raising):
    """Against the in-order loop, for any failures of check and visit and
    any exceptions; visit sees a prefix of the indices, in order, that
    reaches the first failure."""
    visited = []

    def check(i, item):
        assert item == i
        if i in raising:
            raise ValueError(i)
        return Verdict.refuted(witness=("check", i)) if i in fail_check else True

    def visit(i, item):
        visited.append(i)
        return Verdict.refuted(witness=("visit", i)) if i in fail_visit else True

    try:
        v = fanout.first_failure(iter(range(n)), check, visit, shares, lambda: iter(range(n)))
        got = None if v is None else v.witness
    except ValueError as exc:
        got = "raised", exc.args[0]
    assert got == in_order(n, fail_check, fail_visit, raising)
    assert visited == list(range(len(visited)))
    if got is None:
        assert len(visited) == n
    elif got[0] == "visit":
        assert visited[-1] == got[1]
    else:
        assert len(visited) >= got[1]


def test_a_worker_that_dies_is_an_error():
    def check(i, item):
        if i == 40:  # owned by the worker, never by this process
            os._exit(7)
        return True

    with pytest.raises(RuntimeError, match="worker 1 of 2 ended"):
        fanout.first_failure(iter(range(200)), check, lambda i, item: True, 2, lambda: iter(range(200)))


def test_a_worker_that_cannot_fail_first_is_not_waited_for():
    """This process fails at index 0; the worker's share would take 5 s."""

    def check(i, item):
        if owner(i):
            time.sleep(0.005)
        return i != 0

    start = time.monotonic()
    assert fanout.first_failure(iter(range(2000)), check, lambda i, item: True, 2, None) is False
    assert time.monotonic() - start < 2.5


def test_this_share_stops_once_a_worker_has_failed_before_it():
    """The worker fails at index 32; this process's share would take 5 s."""

    def check(i, item):
        if not owner(i):
            time.sleep(0.005)
        return i != 32

    start = time.monotonic()
    assert fanout.first_failure(iter(range(2000)), check, lambda i, item: True, 2, lambda: iter(range(2000))) is False
    assert time.monotonic() - start < 2.5


def test_workers_never_flush_this_process_stdio(capfd):
    """Text written here but not yet flushed when the workers fork is
    printed once: a worker leaves through os._exit."""
    print("written once", end="")
    assert fanout.first_failure(iter(range(300)), lambda i, item: True, lambda i, item: True, 3) is None
    print()
    assert capfd.readouterr().out == "written once\n"
