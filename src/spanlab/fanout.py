"""Check an indexed stream of items in shares, one process per CPU.

Three checks are loops of independent items: the exhaustive Segal battery
over its free data (spans.segal_check), the inverse search over every span
within the bound (spans.invertible_span_check), and the triangle checks of
the distinct spans that certify adjoint draws (cli._run_certify).
first_failure deals the indices of such a stream to S shares in blocks of
BLOCK, block j to share j mod S, and forks one worker for each share but
the first.  Each process iterates a fresh stream of the items, so a
generator of items is never listed, and checks the items of its own
blocks, this process those of share 0.  An item's check depends on the
item and its index alone, never on the items checked before it, so the
answer, the first failure in index order whichever share it lies in, is
the failure an in-order run meets first.  S = 1 forks nothing and is that
in-order run.

Processes are handled with os alone: importing multiprocessing or pickle
would add to the start-up time and peak memory of every check that fans
out.  A worker leaves through os._exit, so it never flushes this
process's stdio or runs its exit handlers, and every worker is killed
and reaped before first_failure returns or raises.
"""
from __future__ import annotations

import itertools
import os

BLOCK = 32  # items per block; blocks of 1 to 128 items timed alike
PER_SHARE = 64  # the fewest items worth a process of their own

_SIGKILL = 9  # fixed by POSIX; importing signal for it would cost start-up
_REPORTED = object()  # the outcome of a failure a worker reported by index


def share_count(count: int) -> int:
    """S for count items: one share per CPU in this process's affinity
    mask, with at least PER_SHARE items each; 1 where os.fork or the mask
    is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count // PER_SHARE))


def _attempt(f, i, item):
    """(passed, outcome): f's value on (i, item), or the exception it raised."""
    try:
        outcome = f(i, item)
    except Exception as exc:
        return False, exc
    return bool(outcome), outcome


def first_failure(stream, check, shares=1):
    """The outcome of the first failure among the items in index order,
    or None when every item passes.  stream() returns a fresh iterable of
    the items, the same items in the same order on every call; this
    process, each worker and the re-derivation of a worker's failure each
    call it once.

    check(i, item) runs once for each item, in the share that owns index
    i, in index order within the share.  It returns a truthy value when
    the item passes; a falsy value or an exception is a failure.  The
    first failure is returned, or its exception raised, as it happened
    here.  A worker reports only the index of its first failure, so check
    runs again here on that item, taken from a fresh stream(): as check is
    a function of (i, item), it returns or raises what it did there.

    A worker writes one b"." to its pipe for each block it passes and
    b"!<index>\\n" at its first failure.  This process reads the pipes
    between its blocks, stops once a worker has failed before the index it
    has reached, and after its share kills each worker that can no longer
    fail before the first failure known."""
    workers = []
    try:
        for share in range(1, shares):
            workers.append(_Worker(stream, check, share, shares, workers))
        first = None  # (index, outcome) of the first failure found so far
        for i, item in enumerate(stream()):
            if i % BLOCK == 0 and any(w.failed_before(i) for w in workers):
                break
            if (i // BLOCK) % shares:
                continue
            passed, outcome = _attempt(check, i, item)
            if not passed:
                first = i, outcome
                break
        for w in workers:
            failed = w.collect(None if first is None else first[0])
            if failed is not None and (first is None or failed < first[0]):
                first = failed, _REPORTED
    finally:
        for w in workers:
            w.close()
    if first is None:
        return None
    i, outcome = first
    if outcome is _REPORTED:
        outcome = check(i, next(itertools.islice(stream(), i, None)))
        if outcome:
            raise RuntimeError(f"item {i} failed in a worker process and passes in this one")
    elif isinstance(outcome, Exception):
        raise outcome
    return outcome


class _Worker:
    """A forked share of first_failure, and what it has written to its
    pipe: the blocks it has passed, and its first failing index."""

    def __init__(self, stream, check, share, shares, siblings):
        self.share, self.shares = share, shares
        self.passed, self.tail, self.failed, self.ended = 0, b"", None, False
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(w)
            raise
        if self.pid == 0:
            status = 1
            try:
                for fd in [self.fd, *(s.fd for s in siblings)]:
                    os.close(fd)
                for i, item in enumerate(stream()):
                    if (i // BLOCK) % shares != share:
                        continue
                    if not _attempt(check, i, item)[0]:
                        os.write(w, b"!%d\n" % i)
                        break
                    if i % BLOCK == BLOCK - 1:
                        os.write(w, b".")
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        os.set_blocking(self.fd, False)

    def _read(self) -> None:
        try:
            chunk = os.read(self.fd, 4096)
        except BlockingIOError:
            return
        self.ended = not chunk
        self.passed += chunk.count(b".")
        self.tail = (self.tail + chunk).lstrip(b".")
        if self.tail.endswith(b"\n"):
            self.failed = int(self.tail[1:])

    def failed_before(self, i: int) -> bool:
        if not self.ended:
            self._read()
        return self.failed is not None and self.failed < i

    def collect(self, bound):
        """The worker's first failing index, or None.  Reads until it
        fails, ends, or has passed every block that starts at or below
        bound, and then reaps it, killing it in the last case."""
        os.set_blocking(self.fd, True)
        while self.failed is None and not self.ended:
            if bound is not None and (self.share + self.passed * self.shares) * BLOCK > bound:
                break
            self._read()
        status = self._reap(kill=self.failed is None and not self.ended)
        if self.ended and self.failed is None and status != 0:
            raise RuntimeError(f"worker {self.share} of {self.shares} ended with wait status {status}")
        return self.failed

    def _reap(self, kill: bool) -> int:
        if kill:
            os.kill(self.pid, _SIGKILL)
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return status

    def close(self) -> None:
        if self.pid is not None:
            self._reap(kill=True)
        os.close(self.fd)
