"""SillaX traceback machine: in-place alignment recovery (§IV-C).

Extends the scoring machine with a *pointer trail*: every register a PE
holds additionally records **where its value came from and when**:

* the ``H`` (closed-path) register records its source edge — gap-close from
  ``E``/``F``, substitution from the other layer (direct or via a wait
  cell), or the start state — plus the cycle the source fired.  Match
  self-loops do **not** touch the record: the match count is *compressed*
  as the paper describes, recoverable as (current cycle - source cycle).
* the ``E``/``F`` (open-path) latches record one bit — gap *opened* (came
  from the parent's closed path) or *extended* (from the parent's open
  path) — plus their set cycle.

The five phases of §IV-C map onto this model as:

1. **String processing** — the forward pass below, records included.
2. **Best-score back-propagation** — reuse of the scoring machine's
   reverse reduction; identifies the winner state and cycle.
3. **Winner notification** and 4. **path flagging** — implicit in starting
   the walk at the winner (charged K cycles each).
5. **Trace collection** — the backward walk.  At every hop the walk checks
   that the record it needs was *not overwritten after the winning path
   used it* (the recorded cycle must not postdate the expected cycle).  An
   overwrite is a **broken pointer trail**: a greedy state re-latched for a
   later, ultimately-losing path.  Recovery is the paper's: re-run the
   machine up to the cycle the winning path left that state and resume
   collection from the re-run snapshot, charging the re-run cycles.

The resulting trace is re-scored against the strings in the test suite and
must equal the reported best score exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.align.cigar import Cigar
from repro.align.records import Alignment
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.sillax.edit_machine import grid_positions

NEG_INF = -(10**9)

State = Tuple[int, int, int]  # (i, d, layer)

# H record sources.
H_START = "start"
H_SUB = "sub"  # substitution from layer 0 to layer 1, same (i, d), 1 cycle
H_SUB_WAIT = "sub_wait"  # substitution from layer 1 via a wait cell, 2 cycles
H_FROM_E = "from_e"  # insertion gap closed at this state, same cycle
H_FROM_F = "from_f"  # deletion gap closed at this state, same cycle

# E/F record sources.
G_OPEN = "open"
G_EXTEND = "extend"


@dataclass
class _RegisterRecord:
    """Provenance of one register's value: which edge set it, and when."""

    source: str = ""
    time: int = -1


@dataclass
class _TBRegisters:
    """Per-state registers: scores plus provenance records."""

    h: int = NEG_INF
    e: int = NEG_INF
    f: int = NEG_INF
    best: int = NEG_INF
    best_cycle: int = -1
    h_rec: _RegisterRecord = field(default_factory=_RegisterRecord)
    e_rec: _RegisterRecord = field(default_factory=_RegisterRecord)
    f_rec: _RegisterRecord = field(default_factory=_RegisterRecord)


@dataclass
class TracebackResult:
    """Alignment with trace, plus the hardware cost of recovering it."""

    score: int
    alignment: Optional[Alignment]
    cigar: Optional[Cigar]
    stream_cycles: int
    control_cycles: int  # phases 2-4 (back-prop, notify, flag)
    collect_cycles: int  # phase 5 (one cycle per trace element)
    rerun_count: int
    rerun_cycles: int

    @property
    def total_cycles(self) -> int:
        return (
            self.stream_cycles
            + self.control_cycles
            + self.collect_cycles
            + self.rerun_cycles
        )

    @property
    def reran(self) -> bool:
        return self.rerun_count > 0


class TracebackMachine:
    """Cycle-level model of the SillaX traceback machine for edit bound K."""

    def __init__(self, k: int, scheme: ScoringScheme = BWA_MEM_SCHEME) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k
        self.scheme = scheme
        self._grid = grid_positions(k)
        self._states: List[State] = [
            (i, d, layer) for (i, d) in self._grid for layer in (0, 1)
        ]

    # ------------------------------------------------------------- forward

    def _forward(self, reference: str, query: str, upto_cycle: Optional[int] = None):
        """Run the streaming phase, maintaining provenance records.

        Returns (registers, cycles run).  ``upto_cycle`` truncates the run —
        that is exactly what a broken-trail re-execution does.
        """
        k = self.k
        scheme = self.scheme
        n_ref, n_query = len(reference), len(query)
        open_ext = scheme.gap_open + scheme.gap_extend
        ext = scheme.gap_extend

        regs: Dict[State, _TBRegisters] = {s: _TBRegisters() for s in self._states}
        wait: Dict[Tuple[int, int], int] = {}

        start = regs[(0, 0, 0)]
        start.h = 0
        start.best = 0
        start.best_cycle = 0
        start.h_rec = _RegisterRecord(H_START, 0)

        last_cycle = max(n_ref, n_query) + k + 2
        if upto_cycle is not None:
            last_cycle = min(last_cycle, upto_cycle)

        # Liveness tracking: only states holding a finite register (or
        # reachable from one this cycle) need recomputing.  This is purely a
        # simulation speedup — the hardware updates every PE every cycle —
        # and cannot change results because dead states only produce -inf.
        live = {(0, 0, 0)}
        for cycle in range(1, last_cycle + 1):
            new_regs: Dict[State, _TBRegisters] = regs.copy()
            new_wait: Dict[Tuple[int, int], int] = {}

            for i, d, layer in live:
                if layer != 1:
                    continue
                prev = regs[(i, d, 1)]
                if prev.h <= NEG_INF:
                    continue
                r_idx, q_idx = (cycle - 1) - i, (cycle - 1) - d
                if 0 <= r_idx < n_ref and 0 <= q_idx < n_query:
                    if reference[r_idx] != query[q_idx] and i + d + 2 <= k:
                        new_wait[(i, d)] = prev.h + scheme.substitution

            candidates = set()
            for i, d, layer in live:
                candidates.add((i, d, layer))
                if i + d + 1 <= k:
                    candidates.add((i + 1, d, layer))
                    candidates.add((i, d + 1, layer))
                    if layer == 0:
                        candidates.add((i, d, 1))
            for i, d in wait:
                if i + d + 2 <= k:
                    candidates.add((i + 1, d + 1, 0))

            next_live = set()
            for state in candidates:
                i, d, layer = state
                prev_reg = regs[state]
                reg = _TBRegisters(
                    best=prev_reg.best,
                    best_cycle=prev_reg.best_cycle,
                    h_rec=prev_reg.h_rec,
                    e_rec=prev_reg.e_rec,
                    f_rec=prev_reg.f_rec,
                )
                new_regs[state] = reg
                r_len, q_len = cycle - i, cycle - d
                if r_len > n_ref or q_len > n_query or r_len < 0 or q_len < 0:
                    continue

                if i >= 1 and q_len >= 1:
                    parent = regs[(i - 1, d, layer)]
                    open_v = parent.h + open_ext if parent.h > NEG_INF else NEG_INF
                    extend_v = parent.e + ext if parent.e > NEG_INF else NEG_INF
                    if open_v > NEG_INF or extend_v > NEG_INF:
                        if open_v >= extend_v:
                            reg.e = open_v
                            reg.e_rec = _RegisterRecord(G_OPEN, cycle)
                        else:
                            reg.e = extend_v
                            reg.e_rec = _RegisterRecord(G_EXTEND, cycle)

                if d >= 1 and r_len >= 1:
                    parent = regs[(i, d - 1, layer)]
                    open_v = parent.h + open_ext if parent.h > NEG_INF else NEG_INF
                    extend_v = parent.f + ext if parent.f > NEG_INF else NEG_INF
                    if open_v > NEG_INF or extend_v > NEG_INF:
                        if open_v >= extend_v:
                            reg.f = open_v
                            reg.f_rec = _RegisterRecord(G_OPEN, cycle)
                        else:
                            reg.f = extend_v
                            reg.f_rec = _RegisterRecord(G_EXTEND, cycle)

                # H: collect (value, source) candidates; prefer the match
                # extension on ties so the record (and match compression)
                # stays on the established path.
                match_candidate = NEG_INF
                edge_candidates: List[Tuple[int, str]] = []
                if r_len >= 1 and q_len >= 1:
                    r_char, q_char = reference[r_len - 1], query[q_len - 1]
                    if prev_reg.h > NEG_INF and r_char == q_char:
                        match_candidate = prev_reg.h + scheme.match
                    if r_char != q_char and layer == 1:
                        sub_parent = regs[(i, d, 0)]
                        if sub_parent.h > NEG_INF:
                            edge_candidates.append(
                                (sub_parent.h + scheme.substitution, H_SUB)
                            )
                    if layer == 0 and (i - 1, d - 1) in wait:
                        edge_candidates.append((wait[(i - 1, d - 1)], H_SUB_WAIT))
                if reg.e > NEG_INF:
                    edge_candidates.append((reg.e, H_FROM_E))
                if reg.f > NEG_INF:
                    edge_candidates.append((reg.f, H_FROM_F))

                best_edge = max(edge_candidates, default=(NEG_INF, ""))
                if match_candidate >= best_edge[0] and match_candidate > NEG_INF:
                    reg.h = match_candidate
                    # Record untouched: match count = cycle - h_rec.time.
                elif best_edge[0] > NEG_INF:
                    reg.h = best_edge[0]
                    reg.h_rec = _RegisterRecord(best_edge[1], cycle)

                if reg.h > NEG_INF and i + d + layer <= k and reg.h > reg.best:
                    reg.best = reg.h
                    reg.best_cycle = cycle
                if reg.h > NEG_INF or reg.e > NEG_INF or reg.f > NEG_INF:
                    next_live.add(state)

            regs = new_regs
            wait = new_wait
            live = next_live
            if not live and not wait:
                break
        return regs, last_cycle

    # ------------------------------------------------------------ alignment

    def align(self, reference: str, query: str) -> TracebackResult:
        """Full run: stream, find the winner, walk the trail (with re-runs)."""
        k = self.k
        regs, stream_cycles = self._forward(reference, query)

        best_score, winner, winner_cycle = 0, None, 0
        for state in self._states:
            i, d, layer = state
            if i + d + layer > k:
                continue
            reg = regs[state]
            if reg.best <= 0:
                continue
            key = (reg.best, -reg.best_cycle, (-i, -d, -layer))
            if winner is None or key > (best_score, -winner_cycle, tuple(-x for x in winner)):
                best_score, winner, winner_cycle = reg.best, state, reg.best_cycle

        if winner is None or best_score <= 0:
            return clipped_result(k, stream_cycles)
        walker = _ObjectTrail(self, reference, query, regs)
        return traced_result(
            k, best_score, winner, winner_cycle, stream_cycles, walker
        )


def clipped_result(k: int, stream_cycles: int) -> TracebackResult:
    """A fully-clipped read: empty alignment, nothing to trace."""
    return TracebackResult(
        score=0,
        alignment=None,
        cigar=None,
        stream_cycles=stream_cycles,
        control_cycles=3 * (k + 1),  # phases 2-4, ~K cycles each
        collect_cycles=0,
        rerun_count=0,
        rerun_cycles=0,
    )


def traced_result(
    k: int,
    best_score: int,
    winner: State,
    winner_cycle: int,
    stream_cycles: int,
    walker: "TrailWalker",
) -> TracebackResult:
    """Phases 2-5 from the winner: walk the trail and price the result."""
    ops = walker.walk(winner, winner_cycle)
    cigar = Cigar.from_ops(reversed(ops))
    wi, wd, __ = winner
    alignment = Alignment(
        score=best_score,
        reference_start=0,
        reference_end=winner_cycle - wi,
        query_start=0,
        query_end=winner_cycle - wd,
        cigar=cigar,
    )
    return TracebackResult(
        score=best_score,
        alignment=alignment,
        cigar=cigar,
        stream_cycles=stream_cycles,
        control_cycles=3 * (k + 1),  # phases 2-4, ~K cycles each
        collect_cycles=sum(length for length, _ in cigar.ops),
        rerun_count=walker.rerun_count,
        rerun_cycles=walker.rerun_cycles,
    )


class TrailWalker:
    """Phase-5 collection: walk pointer records backward from the winner.

    Where the records live is the subclass's business: ``_lookup`` reads
    one register's record from the current snapshot (the final registers
    until the first broken trail) and ``_restore`` replaces the snapshot
    with the machine's state after *upto_cycle*.  The validity checks,
    re-run accounting and the walk itself are shared, so every model of
    the machine breaks and repairs trails at exactly the same hops.
    """

    def __init__(self, reference_len: int, query_len: int) -> None:
        self.reference_len = reference_len
        self.query_len = query_len
        self.rerun_count = 0
        self.rerun_cycles = 0

    def _lookup(self, state: State, register: str) -> _RegisterRecord:
        raise NotImplementedError

    def _restore(self, upto_cycle: int) -> None:
        raise NotImplementedError

    def _record(self, state: State, register: str, time: int) -> _RegisterRecord:
        """Fetch the provenance record describing *register* at *time*.

        If the live records were overwritten after *time* (broken trail),
        re-execute the machine up to *time* and read from the snapshot.
        """
        rec = self._lookup(state, register)
        valid = rec.time <= time if register == "h" else rec.time == time
        if not valid:
            self._rerun(time)
            rec = self._lookup(state, register)
            valid = rec.time <= time if register == "h" else rec.time == time
            if not valid:
                raise AssertionError(
                    f"trail unrecoverable at {state} {register} t={time}: {rec}"
                )
        return rec

    def _rerun(self, upto_cycle: int) -> None:
        """Broken pointer trail: re-stream the strings up to *upto_cycle*."""
        self.rerun_count += 1
        self.rerun_cycles += upto_cycle
        self._restore(upto_cycle)

    def walk(self, winner: State, winner_cycle: int) -> List[Tuple[int, str]]:
        """Collect the (reversed) trace ops from the winner back to start."""
        ops: List[Tuple[int, str]] = []
        state, time = winner, winner_cycle
        register = "h"
        guard = 0
        while True:
            guard += 1
            if guard > 10 * (self.reference_len + self.query_len + 10):
                raise AssertionError("traceback walk failed to terminate")
            i, d, layer = state
            if register == "h":
                rec = self._record(state, "h", time)
                matches = time - rec.time
                if matches < 0:
                    raise AssertionError(f"negative match count at {state}")
                if matches:
                    ops.append((matches, "="))
                time = rec.time
                if rec.source == H_START:
                    if state != (0, 0, 0) or time != 0:
                        raise AssertionError(f"walk ended off-origin: {state} t={time}")
                    return ops
                if rec.source == H_SUB:
                    ops.append((1, "X"))
                    state = (i, d, 0)
                    time -= 1
                elif rec.source == H_SUB_WAIT:
                    ops.append((1, "X"))
                    state = (i - 1, d - 1, 1)
                    time -= 2
                elif rec.source == H_FROM_E:
                    register = "e"
                elif rec.source == H_FROM_F:
                    register = "f"
                else:
                    raise AssertionError(f"unknown H source {rec.source!r}")
            elif register == "e":
                rec = self._record(state, "e", time)
                ops.append((1, "I"))
                state = (i - 1, d, layer)
                time -= 1
                register = "h" if rec.source == G_OPEN else "e"
            else:  # register == "f"
                rec = self._record(state, "f", time)
                ops.append((1, "D"))
                state = (i, d - 1, layer)
                time -= 1
                register = "h" if rec.source == G_OPEN else "f"


class _ObjectTrail(TrailWalker):
    """The trail over the object machine's register dict; re-runs re-stream."""

    def __init__(
        self,
        machine: TracebackMachine,
        reference: str,
        query: str,
        final_regs: Dict[State, _TBRegisters],
    ) -> None:
        super().__init__(len(reference), len(query))
        self.machine = machine
        self.reference = reference
        self.query = query
        self.records = final_regs

    def _lookup(self, state: State, register: str) -> _RegisterRecord:
        return getattr(self.records[state], f"{register}_rec")

    def _restore(self, upto_cycle: int) -> None:
        self.records, _ = self.machine._forward(
            self.reference, self.query, upto_cycle=upto_cycle
        )
