#!/usr/bin/env python3
"""Run one benchmark workload in this process and write its result as JSON.

    python3 perfbench/workload.py --workload gru-train --inputs DIR \
        --seconds 30 --trace 0 --result OUT.json

DIR holds the files ``generate.py`` wrote.  The run sets up (parse, vocab,
encode, features, taxonomy, build_model) five times, then makes the
workload's fixed number of rounds of the user's cycle, and more until
``--seconds`` have passed:

    fit -> write checkpoint -> read the seeded checkpoint -> predict a test
    slice -> WUPS@0.9 and WUPS@0.0 over an answer slice (plus accuracy)

and checks every output.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` each round also replays fit's step sequence on a
TracingTape and the result holds the per-layer metrics and the spans.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import imageqa
import oracles
import spec
import tracing
from imageqa import build_model, features, metrics, models, ontology, textpipe, train

SETUP_REPEATS = 5
HARD_STOP_S = 120.0  # no new round starts after this; too few rounds fail a check
PREDICT_ORACLE_CHUNK = 512


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and that
    percentile; the maximum when there are too few samples."""
    s = sorted(values)
    i = len(s) - 1 - spec.TAIL_BEYOND if len(s) > spec.TAIL_BEYOND else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), so the generator's
    memory and the parent's are not counted."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return -1
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import imageqa; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(times)


class Setup:
    """Everything a run needs, built from the input files alone."""

    def __init__(self, inputs: Path, workload, seed: int, tr):
        with tr.span("textpipe.parse"):
            train_recs = textpipe.parse_triple_file((inputs / "train.txt").read_bytes())
            test_recs = textpipe.parse_triple_file((inputs / "test.txt").read_bytes())
        with tr.span("textpipe.vocab"):
            self.vocab_q = textpipe.build_vocabulary(
                textpipe.word_frequencies(r.question for r in train_recs)
            )
            self.vocab_a = textpipe.build_vocabulary(
                textpipe.answer_word_frequencies(r.answer for r in train_recs)
            )
        with tr.span("textpipe.encode"):
            pipeline = textpipe.PipelineConfig(maxlen=spec.CORPUS.maxlen)
            self.q_train = textpipe.pad_sequences(
                textpipe.encode_questions([r.question for r in train_recs], self.vocab_q),
                pipeline.maxlen,
            )
            self.y_train = textpipe.encode_answers(
                [r.answer for r in train_recs], self.vocab_a, pipeline
            )
            self.q_test = textpipe.pad_sequences(
                textpipe.encode_questions([r.question for r in test_recs], self.vocab_q),
                pipeline.maxlen,
            )
        self.v_train = self.v_test = None
        if workload.vision:
            with tr.span("features.load"):
                table = features.load_feature_table((inputs / "features.csv").read_bytes())
            with tr.span("features.align"):
                self.v_train = features.align(train_recs, table)
                self.v_test = features.align(test_recs, table)
        with tr.span("ontology.parse"):
            self.taxonomy = ontology.parse_taxonomy((inputs / "taxonomy.txt").read_bytes())
            self.lexicon = ontology.parse_lexicon(
                (inputs / "lexicon.txt").read_bytes(), self.taxonomy
            )
        self.pred_lines = (inputs / "pred.txt").read_text(encoding="utf-8").splitlines()
        self.truth_lines = (inputs / "truth.txt").read_text(encoding="utf-8").splitlines()
        with tr.span("models.build"):
            config = spec.model_config(workload, len(self.vocab_q), len(self.vocab_a), seed)
            self.model = models.build_model(workload.kind, config)


class Checks:
    """Operations attempted and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def bit_equal(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Bench:
    """One run: set-ups, then timed rounds, checks and the metrics from them."""

    def __init__(self, args, tr):
        self.args = args
        self.tr = tr
        self.w = spec.WORKLOADS[args.workload]
        meta = json.loads((args.inputs / "inputs.json").read_text())
        self.seed = meta["seed"]
        self.checkpoint_seed = meta["checkpoint_seed"]
        self.checks = Checks()
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, list[float]] = {}

        self.setup_times = []
        for _ in range(SETUP_REPEATS):
            self.s = None  # let the previous set-up go before building the next
            start = perf_counter()
            self.s = Setup(args.inputs, self.w, self.seed, tr)
            self.setup_times.append(perf_counter() - start)

        n = self.w.fit_train
        while n - train.validation_count(n, spec.VALIDATION_SPLIT) < self.w.fit_train:
            n += 1
        self.n_fit = n
        self.training = train.TrainingConfig(
            batch_size=spec.BATCH, epochs=spec.EPOCHS,
            validation_split=spec.VALIDATION_SPLIT, optimizer="adam", seed=self.seed,
        )
        self.init = {k: t.data.copy() for k, t in self.s.model.params.items()}
        self.reference_losses = None
        self.first_ckpt = None
        self.seeded_params = None
        self.out_ckpt = None
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        self.recorded = reference.get(args.workload) if self.seed == spec.DEFAULT_SEED else None
        self.senses = oracles.read_senses(args.inputs / "lexicon.txt")
        self.parents = oracles.read_parents(args.inputs / "taxonomy.txt")

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_layer(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    # stages

    def fit_inputs(self):
        s, n = self.s, self.n_fit
        q = s.q_train[:n]
        return (q if s.v_train is None else (q, s.v_train[:n])), s.y_train[:n]

    def restore(self) -> None:
        for name, tensor in self.s.model.params.items():
            tensor.data[...] = self.init[name]

    def fit(self) -> list[float]:
        """train.fit, timed whole and step by step: a step runs from one
        training forward call to the next forward call of any kind."""
        model = self.s.model
        marks: list[tuple[float, bool]] = []
        forward = model.forward

        def marked(*a, **k):
            marks.append((perf_counter(), bool(k.get("training", False))))
            return forward(*a, **k)

        inputs, targets = self.fit_inputs()
        self.restore()
        model.forward = marked
        try:
            start = perf_counter()
            reports = train.fit(model, inputs, targets, self.training)
            elapsed = perf_counter() - start
        finally:
            del model.forward
        self.add("fit_s", elapsed)
        for (t0, training), (t1, _) in zip(marks, marks[1:]):
            if training:
                self.add("step_s", t1 - t0)
        losses = [r.loss for r in reports]
        self.check_losses(losses)
        return losses

    def check_losses(self, losses: list[float]) -> None:
        ok = all(math.isfinite(x) for x in losses)
        if self.reference_losses is None:
            self.reference_losses = losses
            if self.recorded is not None:
                ok = ok and len(losses) == len(self.recorded) and all(
                    abs(a - b) <= 1e-9 * abs(b) for a, b in zip(losses, self.recorded)
                )
        else:
            ok = ok and losses == self.reference_losses  # deterministic, bit for bit
        self.checks.record(ok, f"fit losses {losses}")

    def write_checkpoint(self) -> None:
        tr = self.tr
        start = perf_counter()
        with tr.span("models.ckpt_format"):
            text = models.format_checkpoint(self.s.model.params)
        # written as the CLI writes (temp file, then rename), to a name not yet
        # taken: renaming over an existing file makes ext4 flush it to disk,
        # which would time the disk instead of the program
        target = self.args.inputs / f"trained-{len(self.samples.get('ckpt_write_s', []))}.ckpt"
        with tr.span("ckpt.write_file"):
            tmp = target.with_suffix(".tmp")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, target)
        self.add("ckpt_write_s", perf_counter() - start)
        if self.out_ckpt is not None:
            self.out_ckpt.unlink()
        self.out_ckpt = target
        self.add_layer("models.ckpt_bytes", float(len(text.encode("utf-8"))))
        if self.first_ckpt is None:
            self.first_ckpt = text
            parsed = models.parse_checkpoint(text)
            params = self.s.model.params
            ok = list(parsed) == list(params) and all(
                bit_equal(parsed[k], params[k].data) for k in params
            )
            self.checks.record(ok, "parse_checkpoint(format_checkpoint(p)) != p")
        else:
            self.checks.record(text == self.first_ckpt, "checkpoint text changed between rounds")

    def read_checkpoint(self) -> None:
        tr, model = self.tr, self.s.model
        start = perf_counter()
        with tr.span("ckpt.read_file"):
            raw = (self.args.inputs / "seeded.ckpt").read_bytes().decode("utf-8")
        with tr.span("models.ckpt_parse"):
            arrays = models.parse_checkpoint(raw)
        with tr.span("models.ckpt_load"):
            models.load_checkpoint(model, arrays)
        self.add("ckpt_read_s", perf_counter() - start)
        if self.seeded_params is None:
            config = spec.model_config(
                self.w, len(self.s.vocab_q), len(self.s.vocab_a), self.checkpoint_seed
            )
            built = build_model(self.w.kind, config)
            self.seeded_params = {k: t.data.copy() for k, t in built.params.items()}
        ok = all(bit_equal(model.params[k].data, v) for k, v in self.seeded_params.items())
        self.checks.record(ok, "loaded checkpoint differs from the seeded model")

    def predict(self, round_no: int) -> None:
        s, rows = self.s, spec.PREDICT_ROWS
        sel = (round_no * rows + np.arange(rows)) % len(s.q_test)
        q = s.q_test[sel]
        v = None if s.v_test is None else s.v_test[sel]
        index2word = s.vocab_a.index2word
        with self.tr.span("models.predict"):
            start = perf_counter()
            words = models.decode_predictions(s.model, q, v, index2word=index2word)
            self.add("predict_s", perf_counter() - start)
        ok = len(words) == rows and all(w in s.vocab_a for w in words)
        if round_no == 0:
            oracle = []
            for lo in range(0, rows, PREDICT_ORACLE_CHUNK):
                hi = lo + PREDICT_ORACLE_CHUNK
                oracle += models.decode_predictions(
                    s.model, q[lo:hi], None if v is None else v[lo:hi], index2word=index2word
                )
            ok = ok and words == oracle
        self.checks.record(ok, f"predictions of round {round_no}")

    def wups(self, round_no: int) -> None:
        """Score the whole test set at tau 0.9 and 0.0, then as accuracy.

        Each soft call gets a freshly parsed taxonomy and lexicon, as each
        ``imageqa eval`` process does, so a cache kept on those objects
        starts cold every call instead of being flattered by repetition."""
        pred, truth = self.s.pred_lines, self.s.truth_lines
        inputs = self.args.inputs
        for tau in (0.9, 0.0):
            taxonomy = ontology.parse_taxonomy((inputs / "taxonomy.txt").read_bytes())
            lexicon = ontology.parse_lexicon((inputs / "lexicon.txt").read_bytes(), taxonomy)
            config = metrics.WupsConfig(threshold=tau)
            with self.tr.span("metrics.wups"):
                start = perf_counter()
                value = metrics.wups_corpus(pred, truth, config, lexicon, taxonomy)
                self.add("wups_s", perf_counter() - start)
            ok = 0.0 <= value <= 1.0
            if round_no == 0:
                ok = ok and self.brute_force_wups(pred[:64], truth[:64], config)
            self.checks.record(ok, f"WUPS@{tau} of round {round_no} = {value}")

        acc = metrics.wups_corpus(pred, truth, metrics.WupsConfig(threshold=-1.0))
        matches = sum(oracles.answer_set(p) == oracles.answer_set(t) for p, t in zip(pred, truth))
        self.checks.record(acc == matches / len(truth), f"accuracy {acc} != {matches}/{len(truth)}")

    def brute_force_wups(self, pred, truth, config) -> bool:
        ok = True
        brute = []
        for p_line, t_line in zip(pred, truth):
            p, t = oracles.answer_set(p_line), oracles.answer_set(t_line)
            want = oracles.wups_pair(p, t, config.threshold, self.senses, self.parents)
            got = metrics.wups_pair(p, t, config, self.s.lexicon, self.s.taxonomy)
            ok = ok and abs(got - want) <= oracles.TOLERANCE
            brute.append(want)
        corpus = metrics.wups_corpus(pred, truth, config, self.s.lexicon, self.s.taxonomy)
        return ok and abs(corpus - sum(brute) / len(brute)) <= oracles.TOLERANCE

    # ------------------------------------------------------------------
    # traced replay of train.fit

    def replay(self) -> list[float]:
        """fit's step sequence through the public functions, on a TracingTape."""
        tr, model, cfg = self.tr, self.s.model, self.training
        inputs, targets = self.fit_inputs()
        q, v = inputs if isinstance(inputs, tuple) else (inputs, None)
        n_train = len(targets) - train.validation_count(len(targets), cfg.validation_split)
        encode = model.language_vectors

        def traced_encode(*a, **k):
            with tr.span("models.encode"):
                return encode(*a, **k)

        def part(sl):
            return (q[sl] if v is None else (q[sl], v[sl])), targets[sl]

        self.restore()
        stats = self.op_stats
        rng = np.random.default_rng(cfg.seed)
        lr = cfg.resolved_learning_rate()
        state = train.AdamState(model.params)
        step = 0
        losses = []
        model.language_vectors = traced_encode
        try:
            for _ in range(cfg.epochs):
                order = rng.permutation(n_train)
                total = 0.0
                for lo in range(0, n_train, cfg.batch_size):
                    sel = order[lo : lo + cfg.batch_size]
                    with tr.span("train.step"):
                        tape = tracing.TracingTape(stats)
                        with tr.span("models.forward"):
                            scores = model.forward(
                                tape, q[sel], None if v is None else v[sel],
                                training=True, rng=rng,
                            )
                        with tr.span("train.loss"):
                            loss = train.cross_entropy(tape, scores, targets[sel])
                        with tr.span("train.zero_grad"):
                            for tensor in model.params.values():
                                tensor.zero_grad()
                        before = stats.bwd_total
                        start = perf_counter()
                        with tr.span("autodiff.backward"):
                            tape.backward(loss)
                        self.add_layer(
                            "autodiff.backward_self_s",
                            perf_counter() - start - (stats.bwd_total - before),
                        )
                        self.add_layer("autodiff.tape_nodes", float(len(tape.nodes)))
                        step += 1
                        with tr.span("train.optimizer"):
                            train.adam_step(
                                model.params, state, step, lr, cfg.beta1, cfg.beta2, cfg.epsilon
                            )
                    total += float(loss.data) * len(sel)
                with tr.span("train.evaluate"):
                    train.evaluate(model, *part(slice(0, n_train)))
                    if n_train < len(targets):
                        train.evaluate(model, *part(slice(n_train, len(targets))))
                losses.append(total / n_train)
        finally:
            del model.language_vectors
        self.replay_steps += step
        return losses

    # ------------------------------------------------------------------

    def run(self) -> None:
        traced = self.tr.enabled
        self.op_stats = tracing.OpStats()
        self.replay_steps = 0
        min_rounds = 2 if traced else self.w.rounds
        start = perf_counter()
        rounds = 0
        while (rounds < min_rounds or perf_counter() - start < self.args.seconds) and (
            perf_counter() - self.args.t0 < HARD_STOP_S
        ):
            # the collector is metered over the untraced stages only
            with tracing.GcMeter() if traced else nullcontext() as gc_meter:
                losses = self.fit()
                self.write_checkpoint()
                self.read_checkpoint()
                self.predict(rounds)
                self.wups(rounds)
            if traced:
                self.add_layer("runtime.gc_s", gc_meter.seconds)
                self.add_layer("runtime.gc_collections", float(gc_meter.collections))
                begin = perf_counter()
                replayed = self.replay()
                fit_s = self.samples["fit_s"][-1]
                self.add_layer("trace.overhead_ratio", (perf_counter() - begin) / fit_s - 1.0)
                self.checks.record(replayed == losses, f"replayed losses {replayed} != {losses}")
            rounds += 1
        self.checks.record(
            rounds >= min_rounds,
            f"{rounds} of {min_rounds} rounds before the {HARD_STOP_S:.0f} s hard stop",
        )
        steps = len(self.samples["step_s"])
        self.checks.record(
            steps == rounds * self.w.steps_per_round,
            f"{steps} training steps in {rounds} rounds of {self.w.steps_per_round}",
        )
        self.rounds = rounds
        self.measured_s = perf_counter() - start

    def end_to_end(self) -> tuple[dict, dict]:
        w, smp = self.w, self.samples
        # the steps of the workload's fixed rounds only: a faster commit that
        # fits more rounds into --seconds is still compared at the same
        # percentile
        steps = smp["step_s"][: w.step_samples]
        step_tail, tail_pct = tail(steps)
        values = {
            "setup_s": self.args.import_s + median(self.setup_times),
            "train_examples_per_s": w.fit_train * spec.EPOCHS / median(smp["fit_s"]),
            "train_step_s.p50": median(steps),
            "train_step_s.tail": step_tail,
            "ckpt_write_s": median(smp["ckpt_write_s"]),
            "ckpt_read_s": median(smp["ckpt_read_s"]),
            "predict_examples_per_s": spec.PREDICT_ROWS / median(smp["predict_s"]),
            "wups_pairs_per_s": len(self.s.truth_lines) / median(smp["wups_s"]),
            "peak_rss_mb": peak_rss_mb(),
        }
        counts = {
            "setup_s": len(self.setup_times),
            "train_examples_per_s": len(smp["fit_s"]),
            "train_step_s.p50": len(steps),
            "train_step_s.tail": f"{len(steps)} (p{tail_pct:.0f})",
            "ckpt_write_s": len(smp["ckpt_write_s"]),
            "ckpt_read_s": len(smp["ckpt_read_s"]),
            "predict_examples_per_s": len(smp["predict_s"]),
            "wups_pairs_per_s": len(smp["wups_s"]),
            "peak_rss_mb": 1,
        }
        return values, counts

    def per_layer(self) -> dict:
        tr, layer, stats = self.tr, self.layer, self.op_stats
        values = {}
        for name in ("textpipe.parse", "textpipe.vocab", "textpipe.encode", "features.load",
                     "features.align", "ontology.parse", "models.build", "autodiff.backward",
                     "train.loss", "train.zero_grad", "train.optimizer", "train.evaluate",
                     "models.ckpt_format", "models.ckpt_parse", "models.ckpt_load",
                     "metrics.wups"):
            values[name + "_s"] = median(tr.durations(name))
        encode, head = self.forward_split()
        values["models.encode_s"] = median(encode)
        values["models.head_s"] = median(head)
        for name in ("autodiff.backward_self_s", "autodiff.tape_nodes", "runtime.gc_s",
                     "runtime.gc_collections", "models.ckpt_bytes", "trace.overhead_ratio"):
            values[name] = median(layer.get(name, []))
        steps = max(1, self.replay_steps)
        for op in tracing.PRIMITIVES:
            values[f"autodiff.op.{op}.count"] = stats.count.get(op, 0) / steps
            values[f"autodiff.op.{op}.fwd_s"] = stats.fwd.get(op, 0.0) / steps
            values[f"autodiff.op.{op}.bwd_s"] = stats.bwd.get(op, 0.0) / steps
        words, senses = oracles.work_counts(self.s.pred_lines, self.s.truth_lines, self.senses)
        values["metrics.word_pairs"] = float(words)
        values["ontology.sense_pairs"] = float(senses)
        values["autodiff.embedding_rows_ratio"] = (
            stats.rows_looked_up / stats.rows_allocated if stats.rows_allocated else 0.0
        )
        return values

    def forward_split(self) -> tuple[list[float], list[float]]:
        """Per training forward: the encode span inside it, and the rest."""
        spans = self.tr.spans
        encode: dict[int, float] = {}
        for _, parent, name, start, end in spans:
            if name == "models.encode" and parent >= 0 and spans[parent][2] == "models.forward":
                encode[parent] = encode.get(parent, 0.0) + end - start
        forwards = [(sid, end - start) for sid, _, name, start, end in spans
                    if name == "models.forward"]
        return ([encode.get(sid, 0.0) for sid, _ in forwards],
                [total - encode.get(sid, 0.0) for sid, total in forwards])


def main(argv=None) -> int:
    t0 = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    args.t0 = t0

    args.import_s = import_seconds()
    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    bench = Bench(args, tr)
    bench.run()
    result = {
        "workload": args.workload,
        "seed": bench.seed,
        "trace": args.trace,
        "environment": environment(),
        "rounds": bench.rounds,
        "measured_s": bench.measured_s,
        "attempted": bench.checks.attempted,
        "failures": bench.checks.failures,
        "losses": bench.reference_losses,
        "package": str(Path(imageqa.__file__).resolve().parent),
        "import_s": args.import_s,
        "setup_times": bench.setup_times,
        "raw": bench.samples,
    }
    if args.trace:
        result["values"] = bench.per_layer()
        result["samples"] = {"rounds": bench.rounds, "replay_steps": bench.replay_steps}
        result["spans"] = tr.spans
    else:
        result["values"], result["samples"] = bench.end_to_end()
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
