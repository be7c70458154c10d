"""The four benchmark workloads.

Each workload builds its design and seeded inputs (:meth:`Workload.build`),
prepares a session cold (:meth:`Workload.prepare`), warms up, runs whole
rounds of the same operations (:meth:`Workload.run_round`) and finally
checks the program's outputs against a computation made apart from the
program, or against a property the method must have
(:meth:`Workload.check`).  Every workload drives the public API under the
default ``SimConfig`` a user gets.

This module is imported after the tracer is installed, so the program
functions it calls are the traced ones in a traced run.
"""

from __future__ import annotations

import copy
import hashlib
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.api import get_backend
from repro.bench.designs import sequential_datapath
from repro.bench.suites import case_by_name
from repro.core import SimConfig, compile_cache
from repro.core.edits import InsertBuffer, SetPinDelay
from repro.core.waveform import Waveform
from repro.netlist import levelize
from repro.power.power_model import PowerModel
from repro.sdf import SyntheticDelayModel, annotation_from_design_delays
from repro.waveforms import (
    TestbenchSpec,
    VcdEventStream,
    parse_saif,
    save_vcd,
    saif_from_activities,
    saif_from_result,
    stimulus_for_netlist,
)

from tracing import Tracer


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def diff_counts(got: Mapping[str, int], want: Mapping[str, int]) -> List[str]:
    """Nets whose counts differ (missing nets included), for messages."""
    return sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))[:5]


def result_digests(result) -> Tuple[bytes, bytes]:
    """Digests of a result's toggle counts and of its waveforms, net by net
    in name order: what a later check compares, without holding the result."""
    counts = hashlib.blake2b(digest_size=16)
    waves = hashlib.blake2b(digest_size=16)
    for net in sorted(result.toggle_counts):
        counts.update(f"{net}={result.toggle_counts[net]};".encode())
    for net in sorted(result.waveforms):
        waves.update(f"{net};".encode())
        waves.update(result.waveforms[net].data.astype("<i8").tobytes())
    return counts.digest(), waves.digest()


def stimulus_toggles(wave: Waveform, duration: int) -> int:
    """Value changes of ``wave`` strictly inside ``(0, duration)``."""
    count = 0
    previous: Optional[int] = None
    for when, value in wave.changes():
        if when >= duration:
            break
        if previous is not None and value != previous and when > 0:
            count += 1
        previous = value
    return count


@dataclass
class Round:
    """One round of a workload: its timed seconds, the clock cycles it
    simulated, and its operations."""

    seconds: float
    cycles: int
    attempted: int
    failed: int = 0


@dataclass
class DesignB:
    """Table-2 Industry Design B with one of its testbenches."""

    netlist: object
    annotation: object
    stimulus: Dict[str, Waveform]
    cycles: int
    clock_period: int


def design_b(testbench: str, cycles: int, stimulus_seed: Optional[int]) -> DesignB:
    """Design B and its SDF as the Table-2 suite builds them; the stimulus
    comes from ``stimulus_seed`` (``None``: the suite's own seed)."""
    case = replace(case_by_name("Industry Design B", testbench), cycles=cycles)
    netlist = case.build_design()
    delays = SyntheticDelayModel(seed=case.seed).build(netlist)
    annotation = annotation_from_design_delays(netlist, delays)
    spec = TestbenchSpec(
        name=case.testbench,
        cycles=cycles,
        clock_period=case.clock_period,
        activity_factor=case.activity_factor,
        seed=case.seed if stimulus_seed is None else stimulus_seed,
    )
    stimulus = stimulus_for_netlist(netlist, spec, kind=case.stimulus_kind)
    return DesignB(netlist, annotation, stimulus, cycles, case.clock_period)


def event_oracle(design: DesignB):
    """The event-driven reference simulator on the same inputs."""
    session = get_backend("event").prepare(design.netlist, annotation=design.annotation)
    return session.run(design.stimulus, cycles=design.cycles)


class Workload:
    """Base class: one workload's inputs, its round and its checks."""

    name = ""
    #: Cold prepares before each round; ``setup_s`` is the median of all.
    setup_per_round = 1
    #: Host seconds one round takes, its cold prepares included, on the
    #: reference machine of the README.  A run does a fixed number of rounds,
    #: ``ceil(seconds / round_seconds)``: its work depends on ``--seconds``
    #: only, never on how fast the machine happens to be.
    round_seconds = 1.0
    #: Entry-point calls (``Session.run``, ``rerun``, ...) one round makes.
    session_calls_per_round = 1
    #: Message of the last failed operation, if any.
    failure: Optional[str] = None

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    def warm_up(self, session) -> None:
        self.run_round(session, Tracer())

    def run_round(self, session, tracer: Tracer) -> Round:
        raise NotImplementedError

    def check(self, session) -> None:
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer figures the workload reads from results, not spans."""
        return {}

    def extra_rates(self, cycles_per_s: float) -> Dict[str, float]:
        """Rates in the workload's own operations, for the report."""
        return {}


# ----------------------------------------------------------------------
# designB_hiact: whole-run Session.run + SAIF, kernel bound
# ----------------------------------------------------------------------
class DesignBHighActivity(Workload):
    name = "designB_hiact"
    round_seconds = 1.05
    cycles = 120

    def build(self) -> None:
        self.design = design_b("high activity long test", self.cycles, 1000 + self.seed)
        self.last: Optional[Tuple[object, str]] = None

    def prepare(self):
        d = self.design
        return get_backend("gatspi").prepare(d.netlist, annotation=d.annotation)

    def run_round(self, session, tracer: Tracer) -> Round:
        start = time.perf_counter()
        with tracer.root("loop"):
            result = session.run(self.design.stimulus, cycles=self.cycles)
            saif = saif_from_result(result)
        seconds = time.perf_counter() - start
        self.last = (result, saif)
        return Round(seconds, self.cycles, attempted=1)

    def check(self, session) -> None:
        result, saif = self.last
        d = self.design
        duration = d.cycles * d.clock_period
        oracle = event_oracle(d)
        require(
            result.toggle_counts == oracle.toggle_counts,
            f"toggle counts differ from the event oracle on {diff_counts(result.toggle_counts, oracle.toggle_counts)}",
        )
        data = parse_saif(saif)
        require(data.duration == duration, f"SAIF duration {data.duration} != {duration}")
        require(set(data.nets) == set(oracle.toggle_counts), "SAIF does not list every net")
        for net, activity in data.nets.items():
            require(activity.t0 + activity.t1 == duration, f"SAIF T0+T1 != duration on {net}")
            wave = oracle.waveforms[net]
            flips = wave.value_at(0) ^ wave.value_at(duration - 1)
            require(activity.tc % 2 == flips, f"SAIF TC parity disagrees with the values of {net}")
        for net in d.netlist.source_nets():
            want = stimulus_toggles(d.stimulus[net], duration)
            require(result.toggle_counts[net] == want, f"input {net} toggles {result.toggle_counts[net]} != {want}")


# ----------------------------------------------------------------------
# designB_stream: chunked Session.run_stream into the activity accumulator
# ----------------------------------------------------------------------
class DesignBStream(Workload):
    name = "designB_stream"
    setup_per_round = 3
    round_seconds = 2.5
    cycles = 2000
    chunk_cycles = 256
    #: Cycles of the VCD replay, whose stimulus is the suite's own
    #: (seed-independent) functional-2 testbench.
    vcd_cycles = 256

    def build(self) -> None:
        self.design = design_b("functional 2", self.cycles, 2000 + self.seed)
        prefix = design_b("functional 2", self.vcd_cycles, None)
        self.vcd_stimulus = prefix.stimulus
        self.last = None
        self.vcd_result = None
        self.vcd_seconds = 0.0

    def prepare(self):
        d = self.design
        return get_backend("gatspi").prepare(d.netlist, annotation=d.annotation)

    def run_round(self, session, tracer: Tracer) -> Round:
        start = time.perf_counter()
        with tracer.root("loop"):
            result = session.run_stream(
                self.design.stimulus, cycles=self.cycles, chunk_cycles=self.chunk_cycles
            )
            saif = saif_from_activities(result.activities, result.duration)
        seconds = time.perf_counter() - start
        self.last = (result, saif)
        failed = 0 if self._vcd_replay(session) else 1
        return Round(seconds, self.cycles, attempted=2, failed=failed)

    def _vcd_replay(self, session) -> bool:
        """Replay the VCD prefix through ``VcdEventStream``; timed apart."""
        path = os.path.join(self.out_dir, f"replay-{os.getpid()}.vcd")
        duration = self.vcd_cycles * self.design.clock_period
        start = time.perf_counter()
        try:
            save_vcd(self.vcd_stimulus, path, end_time=duration)
            with VcdEventStream(path, nets=session.netlist.source_nets()) as source:
                self.vcd_result = session.run_stream(
                    source, cycles=self.vcd_cycles, chunk_cycles=self.chunk_cycles
                )
            return True
        except ValueError as exc:  # VcdError and the stimulus errors
            self.failure = f"{type(exc).__name__}: {exc}"
            return False
        finally:
            self.vcd_seconds += time.perf_counter() - start
            if os.path.exists(path):
                os.remove(path)

    def check(self, session) -> None:
        result, saif = self.last
        oracle = event_oracle(self.design)
        require(
            result.toggle_counts == oracle.toggle_counts,
            f"streamed toggle counts differ from the event oracle on {diff_counts(result.toggle_counts, oracle.toggle_counts)}",
        )
        require(parse_saif(saif).toggle_counts() == oracle.toggle_counts, "SAIF TC differs from the oracle")
        if self.vcd_result is not None:
            memory = session.run_stream(
                self.vcd_stimulus, cycles=self.vcd_cycles, chunk_cycles=self.chunk_cycles
            )
            require(
                self.vcd_result.toggle_counts == memory.toggle_counts,
                "VCD replay toggle counts differ from the in-memory replay",
            )

    def layer_counts(self) -> Dict[str, float]:
        return {"vcd.replay_s": self.vcd_seconds}


# ----------------------------------------------------------------------
# seq_clocked: Session.run_cycles on the clocked datapath
# ----------------------------------------------------------------------
class SequentialClocked(Workload):
    name = "seq_clocked"
    setup_per_round = 10
    round_seconds = 0.8
    bits = 32
    stages = 3
    cycles = 40
    clock_period = 1000

    def build(self) -> None:
        self.netlist = sequential_datapath(bits=self.bits, stages=self.stages)
        period = self.clock_period
        # Reset held low, released inside one of the first three cycles.
        release = self.rng.randrange(period // 4, 3 * period)
        enable: List[int] = []
        level = 0
        for cycle in range(self.cycles):
            want = 1 if self.rng.random() < 0.7 else 0
            if want != level:
                enable.append(cycle * period + self.rng.randrange(period // 4, 3 * period // 4))
                level = want
        self.stimulus = {
            "rst_n": Waveform.from_initial_and_toggles(0, [release]),
            "en": Waveform.from_initial_and_toggles(0, enable),
        }
        self.last = None

    def prepare(self):
        return get_backend("gatspi").prepare(self.netlist)

    def run_round(self, session, tracer: Tracer) -> Round:
        start = time.perf_counter()
        with tracer.root("loop"):
            result = session.run_cycles(self.stimulus, self.cycles)
            saif = saif_from_result(result)
        seconds = time.perf_counter() - start
        self.last = (result, saif)
        return Round(seconds, self.cycles, attempted=1)

    def lfsr_model(self) -> List[int]:
        """Pure-Python XNOR-feedback Fibonacci LFSR from the generator's
        taps ``(bits, bits-1, bits//2, 2)``, stepped once per capture edge
        from the all-zero power-on state."""
        bits = self.bits
        taps = (bits, bits - 1, bits // 2, 2)
        state = [0] * bits
        for _ in range(self.cycles):
            parity = 0
            for tap in taps:
                parity ^= state[tap - 1]
            state = [parity ^ 1] + state[:-1]
        return state

    def check(self, session) -> None:
        result, saif = self.last
        registers = result.register_state
        lfsr = [registers[f"lfsr_reg[{i}]"] for i in range(self.bits)]
        require(lfsr == self.lfsr_model(), f"LFSR state {lfsr} != model {self.lfsr_model()}")
        oracle = get_backend("event").prepare(self.netlist).run_cycles(self.stimulus, self.cycles)
        require(registers == oracle.register_state, "register state differs from the event backend")
        require(
            result.toggle_counts == oracle.toggle_counts,
            f"toggle counts differ from the event backend on {diff_counts(result.toggle_counts, oracle.toggle_counts)}",
        )
        require(parse_saif(saif).toggle_counts() == oracle.toggle_counts, "SAIF TC differs from the event backend")


# ----------------------------------------------------------------------
# eco_loop: glitch-fix probes through rerun / power report / undo
# ----------------------------------------------------------------------
class EcoLoop(Workload):
    name = "eco_loop"
    setup_per_round = 2
    round_seconds = 1.7
    cycles = 200
    probes_per_round = 3
    session_calls_per_round = probes_per_round
    #: Probes of the warm-up, before any round is timed.
    warm_up_probes = 6
    #: Candidate gates: multi-input gates of the last levels, where
    #: path-balancing fixes land near the endpoints.
    candidate_levels = 4

    def build(self) -> None:
        self.design = design_b("functional 2", self.cycles, 3000 + self.seed)
        netlist = self.design.netlist
        levels = levelize(netlist).levels
        self.candidates = sorted(
            gate
            for level in levels[-self.candidate_levels:]
            for gate in level
            if netlist.instances[gate].cell.num_inputs >= 2
        )
        self.probes = 0
        self.base_key = compile_cache.compile_key(netlist, self.design.annotation, SimConfig())
        # Probes checked against a cold run: one SetPinDelay and one
        # InsertBuffer probe of the warm-up, and one probe of the first
        # timed round.  The loop keeps only their edits and result digests;
        # the cold runs are made in check(), after peak RSS is read.
        warm = range(self.warm_up_probes)
        self.sample_at = {
            self.rng.choice([i for i in warm if i % 3 != 2]),
            self.rng.choice([i for i in warm if i % 3 == 2]),
            self.warm_up_probes + self.rng.randrange(self.probes_per_round),
        }
        self.samples: List[Tuple[int, object, Tuple[bytes, bytes]]] = []
        self.timed = False
        self.fallbacks = 0
        self.dirty_gates = 0

    def prepare(self):
        d = self.design
        return get_backend("gatspi").prepare(d.netlist, annotation=d.annotation)

    def warm_up(self, session) -> None:
        # The base run whose waveforms reruns stitch from.  It is run once
        # and never again: the loop must not refresh the retained runs.
        d = self.design
        session.run(d.stimulus, cycles=d.cycles)
        self.base_journal = session.engine.journal.fingerprint()
        while self.probes < self.warm_up_probes:
            super().warm_up(session)
        self.timed = True

    def _next_probe(self, index: int):
        gate = self.rng.choice(self.candidates)
        pin = self.rng.choice(self.design.netlist.instances[gate].cell.inputs)
        if index % 3 == 2:
            return InsertBuffer(gate=gate, pin=pin, delay=float(self.rng.randint(5, 40)))
        return SetPinDelay(
            gate=gate, pin=pin,
            rise=float(self.rng.randint(5, 40)), fall=float(self.rng.randint(5, 40)),
        )

    def run_round(self, session, tracer: Tracer) -> Round:
        d = self.design
        seconds = 0.0
        for _ in range(self.probes_per_round):
            index = self.probes
            self.probes += 1
            edit = self._next_probe(index)
            start = time.perf_counter()
            with tracer.root("loop"):
                result = session.rerun([edit], stimulus=d.stimulus, cycles=d.cycles)
                PowerModel(session.netlist).compute_from_result(result)
                session.apply_edits(session.last_edit_receipt.undo_edits)
            seconds += time.perf_counter() - start
            if self.timed:
                self.fallbacks += not result.stats.incremental
                self.dirty_gates += result.stats.dirty_gates
            require(
                session.engine.journal.fingerprint() == self.base_journal
                and compile_cache.compile_key(d.netlist, d.annotation, SimConfig()) == self.base_key,
                f"probe {index}: undo did not return the design to the base compile key",
            )
            if index in self.sample_at:
                self.samples.append((index, edit, result_digests(result)))
        # Every probe delivers the edited design's full-horizon result.
        return Round(seconds, self.probes_per_round * d.cycles, attempted=self.probes_per_round)

    def check(self, session) -> None:
        """Each sampled rerun must be bit-identical to a cold prepare and run
        of the edited design, made from a copy of the restored base design."""
        d = self.design
        require(len(self.samples) == len(self.sample_at), "not every sampled probe was recorded")
        for index, edit, (counts, waves) in self.samples:
            netlist = copy.deepcopy(d.netlist)
            annotation = copy.deepcopy(d.annotation)
            edit.apply(netlist, annotation)
            cold = get_backend("gatspi").prepare(
                netlist, annotation=annotation, config=SimConfig(compile_cache=False)
            ).run(d.stimulus, cycles=d.cycles)
            cold_counts, cold_waves = result_digests(cold)
            require(counts == cold_counts, f"probe {index} rerun toggle counts differ from a cold run of the edited design")
            require(waves == cold_waves, f"probe {index} rerun waveforms differ from a cold run of the edited design")

    def layer_counts(self) -> Dict[str, float]:
        return {
            "incremental.fallbacks": self.fallbacks,
            "incremental.dirty_gates": self.dirty_gates,
        }

    def extra_rates(self, cycles_per_s: float) -> Dict[str, float]:
        return {"probes_per_s": cycles_per_s / self.cycles}


WORKLOADS = {
    cls.name: cls
    for cls in (DesignBHighActivity, DesignBStream, SequentialClocked, EcoLoop)
}
