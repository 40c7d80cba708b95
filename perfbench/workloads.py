"""The four benchmark workloads and the harness that times their calls.

Every workload drives carrierstream's public API as a closed loop: one
caller makes one call, waits for it to return, checks its output, and
only then makes the next call. Each call is timed from outside with
`time.perf_counter_ns`; output checks run between calls, never inside a
timed interval.

A workload is run in *units* (a stream pass, a dialogue group, a train
cycle). Units are deterministic given the seed and the unit number, so
the traced run can repeat exactly the units of its untraced reference.
"""

from __future__ import annotations

import time
import tracemalloc
import traceback

import numpy as np

import carrierstream as cs
from carrierstream import autodiff, frames_io, model, training

SYSTEM = [1, 2, 3, 4]
QUESTION = [5, 6, 7]
LOGIT_TOL = 1e-4  # acceptance criterion 1's bar for streaming vs the dense oracle
CHECK_GROUP = 2**31  # dialogue group number of the oracle check, past any timed group

SMALL = dict(layers=2, heads=2, d_model=32, ff_dim=64, vocab_size=64,
             tokens_per_frame=8, memory_capacity=64)
LARGE = dict(layers=4, heads=8, d_model=256, ff_dim=1024, vocab_size=512,
             tokens_per_frame=16, memory_capacity=64)
# acceptance criterion 8's training shape and task
TRAIN_CFG = cs.ModelConfig(layers=2, heads=4, d_model=64, ff_dim=128, vocab_size=32,
                           max_positions=96, tokens_per_frame=4, memory_capacity=16,
                           adapter_rank=4)
TASK = cs.TaskSpec(frames_per_stream=8, alphabet=16, questions_per_stream=8, noise_scale=0.05)


class Harness:
    """Makes public calls one at a time and tallies operations.

    A call that raises, or whose output check fails, is one failed
    operation; the run goes on. `tracer`, when set, is switched on for
    exactly the calls made with `measured=True`, whose wall times also
    add up in `measured_ns`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.measured_ns = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def call(self, fn, *args, measured: bool = False, **kwargs):
        """Returns (result, wall ns), or (None, None) when the call raised."""
        self.attempted += 1
        tracer = self.tracer if measured else None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
        except Exception:  # a failing call is counted, never fatal
            self._fail(traceback.format_exc(limit=4))
            return None, None
        finally:
            if tracer is not None:
                tracer.active = False
        if measured:
            self.measured_ns += dt
        return out, dt

    def check(self, problems) -> None:
        """Apply an output check to the last call; `problems()` lists what is wrong."""
        try:
            found = problems()
        except Exception:
            found = [traceback.format_exc(limit=4)]
        if found:
            self._fail("; ".join(found))


def _heap_growth_kib(work) -> float:
    """Python heap still allocated after `work()` that it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[0] / 1024.0
    finally:
        tracemalloc.stop()


def _percentile_us(samples_ns: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q)) / 1000.0


class Workload:
    """State the runner and the per-layer metrics read from every workload."""

    unit = ""  # what one run_unit call does
    op = ""  # the timed operation behind latency_p50_us and latency_p90_us

    def __init__(self):
        self.flops = None  # FlopCounter, attached in the traced run only
        self.lat_ns: list[float] = []
        self.evictions = 0
        self.victims_matched = 0
        self.notes: dict = {}
        self.trace_stats = {"kv_bytes": [], "positions": [], "flops": []}

    def final_check(self, h: Harness) -> None:
        """Output checks that are too slow to run after every call."""


class StreamWorkload(Workload):
    """A long random-frame stream; each pass opens a fresh session and
    ingests every frame. Ingests made while the bank is full are the
    steady state that the latency and throughput figures describe."""

    unit = "stream pass"
    op = "ingest_frame"

    def __init__(self, shape: dict, rule: str, frames: int, check_frames: int):
        super().__init__()
        self.shape = shape
        self.rule = rule
        self.n_frames = frames
        self.check_frames = check_frames

    def setup(self, seed: int, h: Harness) -> None:
        n = self.shape["tokens_per_frame"]
        positions = len(SYSTEM) + self.n_frames * (n + 1) + len(QUESTION)
        self.config = cs.ModelConfig(**self.shape, eviction_rule=self.rule, max_positions=positions)
        self.weights = model.init_model(self.config, seed)
        self.frames = frames_io.make_random_frames(
            self.n_frames, n, self.config.d_model, seed + 1)
        self.session = cs.StreamSession(self.config, self.weights, system_tokens=SYSTEM)
        cfg = self.config
        self.kv_full = cfg.layers * (len(SYSTEM) + cfg.memory_capacity) * 2 * cfg.d_model * 4

    def _open(self):
        session, self.session = self.session, None
        if session is None or self.flops is not None:
            session = cs.StreamSession(self.config, self.weights, system_tokens=SYSTEM,
                                       flops=self.flops)
        return session

    def run_unit(self, h: Harness, number: int, deadline: float) -> None:
        session = self._open()
        m = self.config.memory_capacity
        for i, frame in enumerate(self.frames):
            steady = i >= m
            before = session.bank.snapshot() if steady else None
            report, dt = h.call(session.ingest_frame, frame, measured=steady)
            if dt is None:
                return  # the session's state is unknown after a failed call
            if steady:
                self.lat_ns.append(dt)
                h.check(lambda: self._ingest_problems(report, before, frame))
                if self.flops is not None:
                    self.trace_stats["kv_bytes"].append(report.kv_bytes)
                    self.trace_stats["flops"].append(report.flops)
            if time.perf_counter() >= deadline:
                break
        if self.flops is not None:
            self.trace_stats["positions"].append(session.cache.max_position + 1)

    def _ingest_problems(self, report, before, frame) -> list[str]:
        problems = []
        if report.frame_index != frame.frame_index:
            problems.append(f"report for frame {report.frame_index}, sent {frame.frame_index}")
        if report.bank_size != self.config.memory_capacity:
            problems.append(f"bank holds {report.bank_size} carriers")
        if report.kv_bytes != self.kv_full:
            problems.append(f"cache holds {report.kv_bytes} bytes, bound is {self.kv_full}")
        if report.evicted is None:
            problems.append(f"frame {frame.frame_index} entered a full bank without an eviction")
            return problems
        self.evictions += 1
        incoming = cs.build_carrier_embedding(frame.embeddings, self.config.carrier_mode)
        slot, _ = cs.oracle_select_victim([c["embedding"] for c in before], incoming, self.rule)
        expected = before[slot]["frame_index"]
        if report.evicted != expected:
            problems.append(f"evicted frame {report.evicted}, exhaustive scan picks {expected}")
        else:
            self.victims_matched += 1
        return problems

    def final_check(self, h: Harness) -> None:
        """Streaming vs the dense oracle on a prefix that forces evictions."""
        frames = self.frames[: self.check_frames]
        session = cs.StreamSession(self.config, self.weights, system_tokens=SYSTEM)
        for frame in frames:
            if h.call(session.ingest_frame, frame)[1] is None:
                return
        out, dt = h.call(session.ask, QUESTION, max_new=1, keep_logits=True)
        if dt is None:
            return

        def problems():
            replay = cs.derive_replay(session)
            oracle = cs.oracle_full_forward(self.weights, SYSTEM, frames, QUESTION, replay=replay)
            delta = float(np.abs(oracle.logits[-1] - out.first_logits).max())
            self.notes["oracle_evictions"] = len(frames) - self.config.memory_capacity
            self.notes["oracle_max_logit_delta"] = delta
            return [] if delta <= LOGIT_TOL else [f"question logits differ from the oracle by {delta:.3e}"]

        h.check(problems)

    def retained_kib(self, h: Harness) -> float:
        """Heap growth over one pass, counted from the moment the bank is full."""
        session = cs.StreamSession(self.config, self.weights, system_tokens=SYSTEM)
        m = self.config.memory_capacity
        for frame in self.frames[:m]:
            h.call(session.ingest_frame, frame)

        def rest():
            for frame in self.frames[m:]:
                h.call(session.ingest_frame, frame)

        return _heap_growth_kib(rest)

    def end_to_end(self) -> dict:
        total_s = sum(self.lat_ns) / 1e9
        n = len(self.lat_ns)
        return {
            "latency_p50_us": (_percentile_us(self.lat_ns, 50), n),
            "latency_p90_us": (_percentile_us(self.lat_ns, 90), n),
            "throughput_per_s": (n / total_s, n),
        }

    def root_count(self, work) -> int:
        return work.count_roots("engine.ingest_frame")


class DialogueWorkload(Workload):
    """A full bank (exactly M frames, so nothing is evicted) questioned in
    groups: short one-token answers, then one long answer, then
    `reset_dialogue`."""

    unit = "dialogue group"
    op = "ask(q, max_new=1)"
    SHORT_TURNS = 6
    LONG_NEW = 32
    QLEN = 3
    PROBE_GROUPS = 10

    def __init__(self, shape: dict):
        super().__init__()
        self.shape = shape
        self.long_ns = 0
        self.long_tokens = 0

    @property
    def group_text(self) -> int:
        return self.SHORT_TURNS * (self.QLEN + 1) + self.QLEN + self.LONG_NEW

    def setup(self, seed: int, h: Harness) -> None:
        m, n = self.shape["memory_capacity"], self.shape["tokens_per_frame"]
        positions = len(SYSTEM) + m * (n + 1) + self.group_text
        self.config = cs.ModelConfig(**self.shape, max_positions=positions)
        self.seed = seed
        self.weights = model.init_model(self.config, seed)
        self.frames = frames_io.make_random_frames(m, n, self.config.d_model, seed + 1)
        self.session = cs.StreamSession(self.config, self.weights, system_tokens=SYSTEM,
                                        flops=self.flops)
        for i, frame in enumerate(self.frames):
            report, dt = h.call(self.session.ingest_frame, frame)
            if dt is None:
                break  # counted as failed; the turns run on the bank as it stands
            if report.evicted is not None:
                self.evictions += 1
            h.check(lambda: self._fill_problems(report, i + 1))
        self.kv_full = self.session.kv_footprint()["bytes"]

    def _fill_problems(self, report, expected_size: int) -> list[str]:
        problems = []
        if report.evicted is not None:
            problems.append(f"fill frame {report.frame_index} evicted frame {report.evicted}")
        if report.bank_size != expected_size:
            problems.append(f"bank holds {report.bank_size} carriers after {expected_size} fill frames")
        return problems

    def _questions(self, number: int) -> list[list[int]]:
        rng = np.random.default_rng([self.seed, number])
        ids = rng.integers(0, self.config.vocab_size, size=(self.SHORT_TURNS + 1, self.QLEN))
        return [row.tolist() for row in ids]

    def run_unit(self, h: Harness, number: int, deadline: float) -> None:
        session = self.session
        questions = self._questions(number)
        for q in questions[:-1]:
            f0 = self.flops.total if self.flops is not None else 0
            out, dt = h.call(session.ask, q, max_new=1, measured=True)
            if dt is not None:
                self.lat_ns.append(dt)
                h.check(lambda: [] if len(out.tokens) == 1 and 0 <= out.tokens[0] < self.config.vocab_size
                        else [f"short answer {out.tokens}"])
                self._note_turn(session, f0)
        f0 = self.flops.total if self.flops is not None else 0
        out, dt = h.call(session.ask, questions[-1], max_new=self.LONG_NEW, measured=True)
        if dt is not None:
            self.long_ns += dt
            self.long_tokens += len(out.tokens)
            h.check(lambda: [] if len(out.tokens) == self.LONG_NEW else [f"long answer has {len(out.tokens)} tokens"])
            self._note_turn(session, f0)
        removed, dt = h.call(session.reset_dialogue, measured=True)
        if dt is not None:
            h.check(lambda: self._reset_problems(session, removed))

    def _note_turn(self, session, f0: int) -> None:
        if self.flops is not None:
            self.trace_stats["kv_bytes"].append(session.kv_footprint()["bytes"])
            self.trace_stats["positions"].append(session.cache.max_position + 1)
            self.trace_stats["flops"].append(self.flops.total - f0)

    def _reset_problems(self, session, removed: int) -> list[str]:
        problems = []
        if removed != self.group_text:
            problems.append(f"reset removed {removed} text entries, group wrote {self.group_text}")
        if session.kv_footprint()["bytes"] != self.kv_full:
            problems.append("cache did not return to its post-fill size")
        return problems

    def final_check(self, h: Harness) -> None:
        """The first and the last turn of one group vs the dense oracle, with
        the text since the last reset as the oracle's question. The last
        turn's logits depend on every turn's retained text."""
        session = self.session
        text: list[int] = []
        worst = 0.0
        checked = (0, self.SHORT_TURNS)
        for i, q in enumerate(self._questions(CHECK_GROUP)):
            max_new = self.LONG_NEW if i == self.SHORT_TURNS else 1
            out, dt = h.call(session.ask, q, max_new=max_new, keep_logits=True)
            if dt is None:
                return

            def problems():
                nonlocal worst
                oracle = cs.oracle_full_forward(self.weights, SYSTEM, self.frames, text + q)
                delta = float(np.abs(oracle.logits[-1] - out.first_logits).max())
                worst = max(worst, delta)
                return [] if delta <= LOGIT_TOL else [f"turn {i} logits differ from the oracle by {delta:.3e}"]

            if i in checked:
                h.check(problems)
            text += q + out.tokens
        h.call(session.reset_dialogue)
        self.notes["oracle_turns"] = list(checked)
        self.notes["oracle_max_logit_delta"] = worst

    def retained_kib(self, h: Harness) -> float:
        """Heap growth over PROBE_GROUPS dialogue groups on the full bank."""
        session = self.session

        def turns():
            for number in range(self.PROBE_GROUPS):
                for i, q in enumerate(self._questions(number)):
                    h.call(session.ask, q, max_new=self.LONG_NEW if i == self.SHORT_TURNS else 1)
                h.call(session.reset_dialogue)

        return _heap_growth_kib(turns)

    def end_to_end(self) -> dict:
        n = len(self.lat_ns)
        groups = self.long_tokens // self.LONG_NEW
        return {
            "latency_p50_us": (_percentile_us(self.lat_ns, 50), n),
            "latency_p90_us": (_percentile_us(self.lat_ns, 90), n),
            "throughput_per_s": (self.long_tokens / (self.long_ns / 1e9), groups),
        }

    def root_count(self, work) -> int:
        return work.count_roots("engine.ask")


class TrainWorkload(Workload):
    """Two-stage training from one fixed init: a fixed number of stage-1
    then stage-2 steps with no early stop, then a short recall check
    through the streaming engine."""

    unit = "train cycle"
    op = "optimizer step"
    STAGE1_STEPS = 6
    STAGE2_STEPS = 6
    EVAL_STREAMS = 2
    BATCH = 16
    PROBE_BATCHES = 2

    def __init__(self):
        super().__init__()
        self.config = TRAIN_CFG
        self.train_ns = 0  # lat_ns holds one per-step sample per cycle
        self.steps = 0

    def setup(self, seed: int, h: Harness) -> None:
        self.seed = seed
        self.weights = model.init_model(self.config, seed)
        self.stub = training.init_stub(TASK, self.config, seed)

    def run_unit(self, h: Harness, number: int, deadline: float) -> None:
        seed = self.seed * 100_003 + number
        s1 = cs.TrainConfig(stage=1, steps=self.STAGE1_STEPS, batch_size=self.BATCH, lr=3e-3,
                            seed=seed, log_every=1)
        out1, dt1 = h.call(training.train_stage1, self.weights, TASK, s1, self.stub, measured=True)
        if dt1 is None:
            return
        w1, stub, log1 = out1
        s2 = cs.TrainConfig(stage=2, steps=self.STAGE2_STEPS, batch_size=self.BATCH, lr=3e-3,
                            beta2=0.95, seed=seed, log_every=1)
        out2, dt2 = h.call(training.train_stage2, w1, TASK, s2, stub, measured=True)
        if dt2 is None:
            return
        w2, stub, log2 = out2
        steps = self.STAGE1_STEPS + self.STAGE2_STEPS
        self.lat_ns.append((dt1 + dt2) / steps)
        self.train_ns += dt1 + dt2
        self.steps += steps
        h.check(lambda: self._loss_problems(
            (log1, log2), self._probe_losses(seed, (self.weights, self.stub), out1, out2)))
        acc, dt = h.call(training.evaluate_recall, w2, stub, TASK, self.config,
                         streams=self.EVAL_STREAMS, seed=seed, measured=True)
        if dt is not None:
            h.check(lambda: [] if 0.0 <= acc <= 1.0 else [f"recall accuracy {acc}"])

    def _probe_losses(self, seed: int, *states) -> list[tuple[float, float]]:
        """(before, after) loss of each stage on fixed probe batches, laid
        out as that stage trains. The logged losses are each step's own
        random batch, and over six steps they can rise although the stage
        trains correctly; the probe batches do not change within a cycle.
        They are training-sized, so the probe does not raise peak RSS."""
        rng = np.random.default_rng([seed, 1])  # apart from the stages' own batch streams
        probes = [[training.make_plan(TASK, self.config, rng) for _ in range(self.BATCH)]
                  for _ in range(self.PROBE_BATCHES)]

        def loss(state, stage):
            weights, stub = state[:2]
            return float(np.mean([autodiff.batch_loss(
                weights, training.build_batch(weights, stub, TASK, plans, stage)) for plans in probes]))

        return [(loss(states[stage - 1], stage), loss(states[stage], stage)) for stage in (1, 2)]

    def _loss_problems(self, logs, probe_losses) -> list[str]:
        """Each stage on its own: every logged loss finite, and the probe
        loss lower after the stage than before it."""
        problems = []
        for stage, log, steps, (before, after) in zip(
                (1, 2), logs, (self.STAGE1_STEPS, self.STAGE2_STEPS), probe_losses):
            losses = [r["loss"] for r in log]
            if len(losses) != steps:
                problems.append(f"stage {stage} logged {len(losses)} losses for {steps} steps")
            elif not all(np.isfinite(losses)):
                problems.append(f"non-finite stage-{stage} loss")
            if not after < before:
                problems.append(f"stage-{stage} probe loss {after:.4f}, before the stage {before:.4f}")
        return problems

    def retained_kib(self, h: Harness) -> float:
        """Heap growth over one train cycle."""
        return _heap_growth_kib(lambda: self.run_unit(h, 0, float("inf")))

    def end_to_end(self) -> dict:
        n = len(self.lat_ns)
        return {
            "latency_p50_us": (_percentile_us(self.lat_ns, 50), n),
            "latency_p90_us": (_percentile_us(self.lat_ns, 90), n),
            "throughput_per_s": (self.steps / (self.train_ns / 1e9), self.steps),
        }

    def root_count(self, work) -> int:
        return work.count("training.Optimizer.step")


def make(name: str):
    if name == "stream-small":
        return StreamWorkload(SMALL, "adjacent_pairs", frames=2000, check_frames=96)
    if name == "stream-large":
        return StreamWorkload(LARGE, "vs_incoming", frames=300, check_frames=72)
    if name == "dialogue":
        return DialogueWorkload(LARGE)
    if name == "train":
        return TrainWorkload()
    raise ValueError(f"unknown workload {name!r}")
