"""Checks run in shares (spanlab.fanout): the exhaustive and sampled Segal
batteries, check invertible and certify adjoint give the verdicts,
witnesses and reports of the in-order run, and leave no process behind.
S is forced through a patched os.sched_getaffinity."""
import json
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import fanout
from spanlab import segal as segal_module
from spanlab import spans as spans_module
from spanlab import duality
from spanlab.cli import _parse_base, _random_span, run_request
from spanlab.fincat import finset
from spanlab.inverse import has_inverse
from spanlab.shapes import sigma_shape
from spanlab.spans import all_spans, enumerate_lambda_data, sample_lambda_data, segal_check
from spanlab.verdict import NoLimitError, Verdict
from test_fincat import divisor_lattice, no_pullback_poset


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


def segal_forks(cpus, count, arities):
    """The workers a Segal check of count data forks: each datum weighs
    its cells over the 6 of arity (2,)."""
    return min(cpus, count * len(sigma_shape(arities).objects) // 6 // fanout.PER_SHARE) - 1


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
        assert forked == segal_forks(cpus, count, arities) > 0


def test_sampled_runs_in_shares(monkeypatch):
    """Every share draws the run's one stream of data and twists, so 48
    sampled data of arity (2, 2), 36 cells each, are checked in shares
    and give the in-order verdict."""
    results = in_shares(monkeypatch, lambda: segal_check(finset(2), (2, 2), samples=48))
    (alone, none), *shared = results
    assert none == 0 and alone and alone.details["mode"] == "sampled"
    for cpus, (v, forked) in zip((2, 3), shared):
        assert summary(v) == summary(alone)
        assert forked == segal_forks(cpus, 48, (2, 2)) == cpus - 1


def test_share_count(monkeypatch):
    on_cpus(monkeypatch, 2)
    assert [fanout.share_count(n) for n in (0, 127, 128, 10**6)] == [1, 1, 2, 2]
    on_cpus(monkeypatch, 1)
    assert fanout.share_count(10**6) == 1
    on_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert fanout.share_count(10**6) == 1


def test_block_size():
    """Every share takes at least two blocks, and items of weight 1 that
    share_count splits always get blocks of BLOCK."""
    assert [fanout.block_size(48, s) for s in (1, 2, 3)] == [24, 12, 8]
    assert [fanout.block_size(n, 3) for n in (0, 5, 6, 12)] == [1, 1, 1, 2]
    for s in (2, 3, 4):
        assert fanout.block_size(s * fanout.PER_SHARE, s) == fanout.BLOCK


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
    check, twist = segal_module.check_one_datum, segal_module.check_twist

    def planted_check(shape, base, lo, lm, dirs):
        key = datum_key(lo, lm)
        if key in raising:
            raise ValueError(f"planted at {raising[key]}")
        v, ext = check(shape, base, lo, lm, dirs)
        return (Verdict.refuted(witness={"planted": refuting[key]}) if key in refuting else v), ext

    def planted_twist(ext, r, i, fam):
        v = twist(ext, r, i, fam)
        for key, i in twisting.items():
            if extends(ext, key):
                return Verdict.refuted(witness={"planted twist": i})
        return v

    monkeypatch.setattr(segal_module, "check_one_datum", planted_check)
    monkeypatch.setattr(segal_module, "check_twist", planted_twist)


def extends(ext, key):
    """Is ext the extension of the datum with this datum_key?"""
    return all(ext.obj[c] == x for c, x in key[0]) and all(ext.mor[p] == m for p, m in key[1])


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
    """A twist runs in the share that checks its datum, on the extension
    that check built; a twist before the first failing datum refutes
    first, and one after it is never reached."""
    t = next(i for i in twist_indices() if owner(i) == 1)
    later = next(i for i in range(t + 1, 971) if owner(i) == 1)
    plant(monkeypatch, refute=(later,), twist_at=(t,))
    for v, _ in in_shares(monkeypatch, lambda: segal_check(finset(2), (2,))):
        assert summary(v) == ("refuted", {"planted twist": t}, {"mode": "twist"})
    monkeypatch.undo()
    plant(monkeypatch, refute=(t,), twist_at=(t, later))
    for v, _ in in_shares(monkeypatch, lambda: segal_check(finset(2), (2,))):
        assert summary(v) == ("refuted", {"planted": t}, {"mode": "exhaustive"})


def test_a_twist_draws_alike_on_any_number_of_cpus(monkeypatch):
    """Each twist of an exhaustive run draws from its own Random, seeded
    with the run's seed and the twist's index.  A planted twist on a datum
    that a worker owns on 2 and on 3 CPUs, refuting with a draw from that
    Random after the battery's own, gives one report on 1, 2 and 3 CPUs;
    the draw is pinned, so it depends on no hash seed either."""
    t = next(i for i in twist_indices() if owner(i, 2) and owner(i, 3))
    key, draw, twist = finset2_data()[t], segal_module.draw_twist, segal_module.check_twist

    def drawing(shape, base, lo, lm, dirs, rng):
        r, i, fam = draw(shape, base, lo, lm, dirs, rng)
        return r, i, (rng.randrange(10**6) if datum_key(lo, lm) == key else fam)

    def checking(ext, r, i, fam):
        return Verdict.refuted(witness={"draw": fam}) if isinstance(fam, int) else twist(ext, r, i, fam)

    monkeypatch.setattr(segal_module, "draw_twist", drawing)
    monkeypatch.setattr(segal_module, "check_twist", checking)
    results = in_shares(monkeypatch, lambda: summary(segal_check(finset(2), (2,))))
    assert results == [(("refuted", {"draw": 676273}, {"mode": "twist"}), forked) for forked in (0, 1, 2)]


SAMPLED = ["check", "segal", "--base", "finset:2", "--arities", "2", "2", "--samples", "48"]


def sampled_stream(samples=48, seed=0):
    """The data of the sampled run of SAMPLED, each datum_key with the
    state of the run's Random before the datum is drawn: after twist_at,
    every index, and each datum drawn before it with its twist."""
    shape, base = sigma_shape((2, 2)), finset(2)
    rng = random.Random(seed)
    rng.sample(range(samples), samples)
    stream = []
    for _ in range(samples):
        state = rng.getstate()
        datum = sample_lambda_data(shape, base, None, rng)
        segal_module.draw_twist(shape, base, *datum, [0, 1], rng)
        stream.append((datum_key(*datum), state))
    return stream


def plant_sampled(monkeypatch, refute=(), raise_at=()):
    """Refute the data of SAMPLED at the indices in refute, and raise in
    the draws of those at raise_at.  Patched before the fork."""
    stream = sampled_stream()
    keys = [key for key, _ in stream]
    assert all(keys.index(keys[i]) == i for i in refute)
    refuting = {keys[i]: i for i in refute}
    raising = {stream[i][1]: i for i in raise_at}
    check, sample = segal_module.check_one_datum, spans_module.sample_lambda_data

    def planted_check(shape, base, lo, lm, dirs):
        v, ext = check(shape, base, lo, lm, dirs)
        key = datum_key(lo, lm)
        return (Verdict.refuted(witness={"planted": refuting[key]}) if key in refuting else v), ext

    def planted_sample(shape, base, bound, rng):
        if rng.getstate() in raising:
            raise ValueError(f"planted draw {raising[rng.getstate()]}")
        return sample(shape, base, bound, rng)

    monkeypatch.setattr(segal_module, "check_one_datum", planted_check)
    monkeypatch.setattr(spans_module, "sample_lambda_data", planted_sample)


def sampled_owner(i, shares):
    return (i // fanout.block_size(48, shares)) % shares


def test_a_sampled_refutation_in_a_worker_share_is_reported(monkeypatch):
    """Blocks of 12 on 2 CPUs and of 8 on 3: a worker owns datum 14 on
    both, and its refutation gives the in-order report."""
    assert sampled_owner(14, 2) and sampled_owner(14, 3)
    plant_sampled(monkeypatch, refute=(14,))
    results = reports_in_shares(monkeypatch, SAMPLED)
    alone = results[0][0]
    assert alone[1] == 1 and alone[0]["witness"] == {"planted": 14}
    assert results == [(alone, 0), (alone, 1), (alone, 2)]


def test_a_draw_exception_after_a_worker_refutation_is_not_reported(monkeypatch):
    """This process owns datum 30 on 2 and on 3 CPUs and meets its draw's
    exception before it hears of the worker's refutation of datum 14; the
    refutation comes first in index order, and the in-order run never
    draws datum 30."""
    assert not sampled_owner(30, 2) and not sampled_owner(30, 3)
    plant_sampled(monkeypatch, refute=(14,), raise_at=(30,))
    for v, _ in in_shares(monkeypatch, lambda: segal_check(finset(2), (2, 2), samples=48)):
        assert summary(v) == ("refuted", {"planted": 14}, {"mode": "sampled"})


@pytest.mark.parametrize("at", [20, 30])
def test_a_draw_exception_gives_the_in_order_report(at, monkeypatch):
    """A draw that raises ends every process's stream; its exception is
    the exit-3 report of the in-order run, in a worker's share (20) or in
    this process's (30)."""
    assert bool(sampled_owner(at, 2)) == bool(sampled_owner(at, 3)) == (at == 20)
    plant_sampled(monkeypatch, raise_at=(at,))
    results = reports_in_shares(monkeypatch, SAMPLED)
    alone = results[0][0]
    assert alone[1] == 3 and alone[0]["witness"] == {"error": f"ValueError: planted draw {at}"}
    assert results == [(alone, 0), (alone, 1), (alone, 2)]


def test_an_interrupt_here_ends_every_worker(monkeypatch):
    on_cpus(monkeypatch, 2)
    pids = counted_forks(monkeypatch)
    data, check = finset2_data(), segal_module.check_one_datum

    def interrupted(shape, base, lo, lm, dirs):
        if datum_key(lo, lm) == data[70]:
            raise KeyboardInterrupt
        return check(shape, base, lo, lm, dirs)

    monkeypatch.setattr(segal_module, "check_one_datum", interrupted)
    with pytest.raises(KeyboardInterrupt):
        segal_check(finset(2), (2,))
    assert len(pids) == 1


def in_order(n, failing, raising):
    """The first failure of an in-order run, as first_failure reports it."""
    for i in range(n):
        if i in raising:
            return "raised", i
        if i in failing:
            return "failed", i
    return None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 300),
    shares=st.integers(1, 3),
    failing=st.sets(st.integers(0, 299), max_size=3),
    raising=st.sets(st.integers(0, 299), max_size=2),
)
def test_first_failure_is_the_in_order_one(n, shares, failing, raising):
    """Against the in-order loop, for any failures and exceptions in any
    share."""

    def check(i, item):
        assert item == i
        if i in raising:
            raise ValueError(i)
        return Verdict.refuted(witness=("failed", i)) if i in failing else True

    try:
        v = fanout.first_failure(lambda: range(n), check, shares)
        got = None if v is None else v.witness
    except ValueError as exc:
        got = "raised", exc.args[0]
    assert got == in_order(n, failing, raising)


def test_a_worker_that_dies_is_an_error():
    def check(i, item):
        if i == 40:  # owned by the worker, never by this process
            os._exit(7)
        return True

    with pytest.raises(RuntimeError, match="worker 1 of 2 ended"):
        fanout.first_failure(lambda: range(200), check, shares=2)


def test_a_worker_that_cannot_fail_first_is_not_waited_for():
    """This process fails at index 0; the worker's share would take 5 s."""

    def check(i, item):
        if owner(i):
            time.sleep(0.005)
        return i != 0

    start = time.monotonic()
    assert fanout.first_failure(lambda: range(2000), check, shares=2) is False
    assert time.monotonic() - start < 2.5


def test_this_share_stops_once_a_worker_has_failed_before_it():
    """The worker fails at index 32; this process's share would take 5 s."""

    def check(i, item):
        if not owner(i):
            time.sleep(0.005)
        return i != 32

    start = time.monotonic()
    assert fanout.first_failure(lambda: range(2000), check, shares=2) is False
    assert time.monotonic() - start < 2.5


def test_workers_never_flush_this_process_stdio(capfd):
    """Text written here but not yet flushed when the workers fork is
    printed once: a worker leaves through os._exit."""
    print("written once", end="")
    assert fanout.first_failure(lambda: range(300), lambda i, item: True, shares=3) is None
    print()
    assert capfd.readouterr().out == "written once\n"


def reports_in_shares(monkeypatch, argv):
    """The report, timing removed, and exit code of argv on 1, 2 and 3
    CPUs, each with the number of workers it forked."""

    def run():
        report, code = run_request(argv)
        report.pop("timing")
        return report, code

    return in_shares(monkeypatch, run)


def forks(cpus, count):
    return max(1, min(cpus, count // fanout.PER_SHARE)) - 1


def adjoint_draws(seed, trials):
    """The spans certify adjoint draws on finset:4, repeats included."""
    rng = random.Random(seed)
    return [_random_span(finset(4), None, rng) for _ in range(trials)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("trials", [2000, 200])
def test_certify_adjoint_in_shares_gives_the_in_order_report(trials, seed, monkeypatch):
    argv = ["certify", "adjoint", "--base", "finset:4", "--trials", str(trials), "--seed", str(seed)]
    (alone, none), *shared = reports_in_shares(monkeypatch, argv)
    assert none == 0 and alone[1] == 0
    count = len(set(adjoint_draws(seed, trials)))
    for cpus, (got, forked) in zip((2, 3), shared):
        assert got == alone
        assert forked == forks(cpus, count) > 0


def category_file(tmp_path, C):
    """A category file of C, its morphisms labelled by strings."""
    label = {m: str(k) for k, m in enumerate(C.morphisms)}
    data = {
        "objects": list(C.objects),
        "morphisms": [{"id": label[m], "src": s, "tgt": t} for m, (s, t) in C.morphisms.items()],
        "identities": {str(x): label[m] for x, m in C.identities.items()},
        "compose": [[label[g], label[f], label[h]] for (g, f), h in C.composition.items()],
    }
    f = tmp_path / "base.json"
    f.write_text(json.dumps(data))
    return str(f)


@pytest.mark.parametrize("base", ["finset:2", "finset:3", "lattice12"])
def test_check_invertible_in_shares_gives_the_in_order_report(base, tmp_path, monkeypatch):
    if base == "lattice12":
        base = category_file(tmp_path, divisor_lattice(12))
    (alone, none), *shared = reports_in_shares(monkeypatch, ["check", "invertible", "--base", base])
    assert none == 0 and alone[1] == 0
    count = alone[0]["details"]["spans_checked"]
    assert count == len(all_spans(_parse_base(base)))
    for cpus, (got, forked) in zip((2, 3), shared):
        assert got == alone
        assert forked == forks(cpus, count)


def test_a_refutation_in_a_worker_share_names_the_first_trial_that_drew_it(monkeypatch):
    """The first distinct span that a worker owns and that is drawn again
    is refuted, and so is a later span of this process's share."""
    draws = adjoint_draws(0, 200)
    distinct = list(dict.fromkeys(draws))
    at = next(i for i, s in enumerate(distinct) if owner(i) == 1 and draws.count(s) > 1)
    later = next(i for i in range(at, len(distinct)) if owner(i) == 0)
    target, check = distinct[at], duality.triangle_check

    def refute(w):
        return Verdict.refuted(witness={"reason": "planted"}) if w.span in (target, distinct[later]) else check(w)

    monkeypatch.setattr(duality, "triangle_check", refute)
    argv = ["certify", "adjoint", "--base", "finset:4", "--trials", "200", "--seed", "0"]
    results = reports_in_shares(monkeypatch, argv)
    witness = {"trial": draws.index(target), "span": repr(target), "inner": {"reason": "planted"}}
    assert [(code, report["witness"]) for (report, code), _ in results] == [(1, witness)] * 3
    assert [forked for _, forked in results] == [0, 1, 1]


def test_a_missing_pullback_in_a_worker_share_gives_the_in_order_report(tmp_path, monkeypatch):
    """Over the poset p, q <= x, y the first span whose inverse search
    raises NoLimitError is span 4 of 20.  With blocks of 4 and a share
    for every span, a worker owns it on 2 and on 3 CPUs."""
    monkeypatch.setattr(fanout, "PER_SHARE", 1)
    monkeypatch.setattr(fanout, "BLOCK", 4)
    f = category_file(tmp_path, no_pullback_poset())
    base = _parse_base(f)

    def raised(s):
        try:
            has_inverse(base, s, None)
        except NoLimitError as exc:
            return exc
        return None

    spans = all_spans(base)
    at = next(i for i, s in enumerate(spans) if raised(s))
    assert (len(spans), at, owner(at, 2), owner(at, 3)) == (20, 4, 1, 1)
    results = reports_in_shares(monkeypatch, ["check", "invertible", "--base", f])
    alone = results[0][0]
    assert alone[1] == 3 and alone[0]["witness"] == {"error": str(raised(spans[at]))}
    assert results == [(alone, 0), (alone, 1), (alone, 2)]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "adjoint", "--base", "finset:4", "--trials", "0"],
        ["check", "invertible", "--base", "finset:2", "--bound", "-1"],
    ],
    ids=["no-trials", "no-spans"],
)
def test_nothing_to_check_is_inconclusive_and_forks_nothing(argv, monkeypatch):
    results = reports_in_shares(monkeypatch, argv)
    assert [(report["verdict"], code, forked) for (report, code), forked in results] == [("inconclusive", 2, 0)] * 3
