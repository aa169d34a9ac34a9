"""State-machine tests for the worker pool's supervision scheduler.

:class:`repro.parallel.Scheduler` makes every supervision decision of
the parallel engine -- dealing, the dealt-chunk ledger, the suspect
chunk, bisection, quarantine, and the respawn budget -- without I/O,
so hypothesis can drive it through random schedules in-process, with
no worker process spawned.  A rule-based machine plays the pool: a
worker completes its front chunk (or dies inside it when it holds a
poison program), dies spuriously after journaling part of its ledger
(the results of those chunks are lost, or arrive after the death was
handled), or idles.  The test keeps its own model of every worker's
ledger and shard log and checks the scheduler against it:

* every program settles exactly once, as a first-time completion or a
  quarantine, never both;
* a program is quarantined only if it is poison or died alone
  ``MAX_PROGRAM_RETRIES`` times;
* no ledger holds more than ``PREFILL`` chunks;
* :class:`~repro.parallel.ParallelExecutionError` is raised exactly at
  the ``MAX_WORKER_RESPAWNS + 1``-th death, counted since the last
  completed chunk, that found no suspect chunk while the bag still
  held work (and some program was unsettled);
* unless that error was raised, driving the reached state to
  completion ends :meth:`~repro.parallel.Scheduler.finished`, with
  every program settled and every poison program quarantined.
"""

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.batch import MAX_PROGRAM_RETRIES
from repro.parallel import (
    MAX_WORKER_RESPAWNS,
    PREFILL,
    ParallelExecutionError,
    Scheduler,
)
from repro.programs.ast import Program


def names_of(chunk):
    return [p.name for p in chunk]


class SchedulerMachine(RuleBasedStateMachine):
    """The pool as the scheduler's driver sees it."""

    @initialize(size=st.integers(1, 30), chunk_size=st.integers(1, 6),
                workers=st.integers(1, 4), data=st.data())
    def start(self, size, chunk_size, workers, data):
        self.names = [f"P{index}" for index in range(size)]
        self.poison = set(data.draw(
            st.sets(st.sampled_from(self.names), max_size=3),
            label="poison"))
        self.scheduler = Scheduler(
            [Program(name, "network", "COMPANY-NAME", ())
             for name in self.names], chunk_size)
        #: worker id -> chunks dealt to it and not yet answered.
        self.dealt = {}
        #: worker id -> program names its shard log holds.
        self.journal = {}
        #: (worker id, chunk id, names): results that outlived their
        #: worker, still on their way to the coordinator.
        self.late = []
        self.next_worker = 0
        self.settled = Counter()
        self.quarantined = set()
        self.alone_deaths = Counter()
        self.unproductive = 0
        self.failed = False
        for _ in range(workers):
            self.spawn()

    # -- the driver's side ---------------------------------------------

    def spawn(self):
        worker_id = self.next_worker
        self.next_worker += 1
        self.dealt[worker_id] = []
        self.journal[worker_id] = set()
        self.scheduler.add_worker(worker_id)
        self.dealt[worker_id].extend(self.scheduler.deal(worker_id))

    def unsettled(self):
        return set(self.names) - set(self.settled)

    def busy(self):
        return sorted(w for w, chunks in self.dealt.items() if chunks)

    def answer(self, worker_id, chunk_id, names):
        fresh = self.scheduler.completed(worker_id, chunk_id, names)
        assert set(fresh) <= self.unsettled() & set(names)
        self.settled.update(fresh)
        self.unproductive = 0
        if worker_id in self.dealt:
            self.dealt[worker_id].extend(self.scheduler.deal(worker_id))
        else:
            assert self.scheduler.deal(worker_id) == []

    def complete_front(self, worker_id):
        """The worker converts its front chunk: journal and answer it,
        or die inside it on a poison program."""
        chunk_id, chunk = self.dealt[worker_id][0]
        if self.poison & set(names_of(chunk)):
            self.bury(worker_id)
            return
        self.journal[worker_id].update(names_of(chunk))
        self.dealt[worker_id].pop(0)
        self.answer(worker_id, chunk_id, names_of(chunk))

    def bury(self, worker_id):
        """A worker died: predict the scheduler's answer from the
        model, then check the answer and carry it out."""
        ledger = self.dealt.pop(worker_id)
        journaled = self.journal[worker_id]
        suspect = next((chunk for _id, chunk in ledger
                        if not set(names_of(chunk)) <= journaled), None)
        live = bool(self.unsettled())
        redeal = []
        for _id, chunk in ledger if live else ():
            if chunk is not suspect:
                redeal.append(names_of(chunk))
            elif len(chunk) > 1:
                mid = (len(chunk) + 1) // 2
                redeal += [names_of(chunk[:mid]), names_of(chunk[mid:])]
            else:
                self.alone_deaths[chunk[0].name] += 1
                if self.alone_deaths[chunk[0].name] < MAX_PROGRAM_RETRIES:
                    redeal.append(names_of(chunk))
        crash_loop = False
        if live and suspect is None and (self.scheduler.bag or redeal):
            self.unproductive += 1
            crash_loop = self.unproductive > MAX_WORKER_RESPAWNS
        try:
            death = self.scheduler.died(worker_id, set(journaled))
        except ParallelExecutionError as exc:
            assert crash_loop, "raised without a crash loop"
            assert "crash-looping" in str(exc) and "resume" in str(exc)
            self.failed = True
            return
        assert not crash_loop, "a crash loop went undetected"
        assert death.redealt == len(redeal)
        bag = [names_of(chunk) for _id, chunk in self.scheduler.bag]
        assert bag[len(bag) - len(redeal):] == redeal
        bisected = live and suspect is not None and len(suspect) > 1
        assert death.bisected == (len(suspect) if bisected else 0)
        for name in death.quarantine:
            assert self.alone_deaths[name] == MAX_PROGRAM_RETRIES
            self.quarantined.add(name)
            self.settled[name] += 1
        assert death.respawn == (live and bool(bag))
        if death.respawn:
            assert self.scheduler.backoff() > 0
            self.spawn()
        for worker in self.dealt:
            self.dealt[worker].extend(self.scheduler.deal(worker))

    # -- rules ---------------------------------------------------------

    @rule(data=st.data())
    def complete(self, data):
        if self.failed or not self.busy():
            return
        worker_id = data.draw(st.sampled_from(self.busy()), label="worker")
        self.complete_front(worker_id)

    @rule(data=st.data())
    def die_spuriously(self, data):
        if self.failed or not self.dealt:
            return
        worker_id = data.draw(st.sampled_from(sorted(self.dealt)),
                              label="worker")
        ledger = self.dealt[worker_id]
        # A poison chunk is never journaled, so neither is any chunk
        # behind it.
        limit = next((index for index, (_id, chunk) in enumerate(ledger)
                      if self.poison & set(names_of(chunk))), len(ledger))
        journaled = data.draw(st.integers(0, limit), label="journaled")
        late = data.draw(st.booleans(), label="late results")
        for chunk_id, chunk in ledger[:journaled]:
            self.journal[worker_id].update(names_of(chunk))
            if late:
                self.late.append((worker_id, chunk_id, names_of(chunk)))
        self.bury(worker_id)

    @rule()
    def deliver_late_result(self):
        if not self.failed and self.late:
            self.answer(*self.late.pop(0))

    @rule()
    def idle(self):
        pass

    # -- invariants ----------------------------------------------------

    @invariant()
    def every_program_settles_at_most_once(self):
        assert all(count == 1 for count in self.settled.values())
        assert self.scheduler.remaining == self.unsettled()
        assert all(name in self.poison
                   or self.alone_deaths[name] == MAX_PROGRAM_RETRIES
                   for name in self.quarantined)

    @invariant()
    def ledgers_match_the_model(self):
        assert set(self.scheduler.ledger) == set(self.dealt)
        assert all(len(chunks) <= PREFILL
                   for chunks in self.scheduler.ledger.values())
        for worker_id, chunks in self.dealt.items():
            assert [c for c, _ in self.scheduler.ledger[worker_id]] == \
                [c for c, _ in chunks]

    @invariant()
    def unfinished_work_is_in_flight(self):
        if not self.failed and not self.scheduler.finished():
            assert self.scheduler.in_flight(), "stalled with work left"

    def teardown(self):
        if getattr(self, "failed", True):
            return
        for _step in range(10_000):
            if self.scheduler.finished():
                break
            self.complete_front(self.busy()[0])
            assert not self.failed
        assert self.scheduler.finished()
        assert set(self.settled) == set(self.names)
        assert self.poison <= self.quarantined


SchedulerMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None)
TestSchedulerStateMachine = SchedulerMachine.TestCase
