"""Release gate: ten checks, one verdict line each.

Each check records `acceptance NN <name>: PASS|FAIL` before asserting;
conftest.py replays the collected lines after the run, so a plain
`pytest -v` always ends with the full scoreboard.
"""

import json
import math
import time

import numpy as np
import pytest

from imageqa.autodiff import Tape, Tensor, grad_check
from imageqa.cli import main as cli_main
from imageqa.errors import ConfigurationError
from imageqa.metrics import (
    ACCURACY_SENTINEL,
    WupsConfig,
    parse_answer_set,
    thresholded_wup,
    wups_corpus,
    wups_pair,
)
from imageqa.models import ModelConfig, build_model
from imageqa.ontology import parse_lexicon, parse_taxonomy
from imageqa.train import TrainingConfig, cross_entropy, fit
from tests.helpers import (
    ACCEPTANCE_VERDICTS,
    TOY_LEXICON,
    TOY_TAXONOMY,
    encoded_corpus,
    order_corpus,
    random_parent_map,
    separable_corpus,
)


def report(number, name, ok):
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line


# ----------------------------------------------------------------------


def test_01_gradient_integrity():
    """Analytic gradients of every model kind agree with finite differences."""
    started = time.monotonic()
    questions = np.array([[0, 2, 3, 4], [0, 0, 5, 2]])
    targets = np.array([1, 3])
    visual_raw = np.random.default_rng(9).normal(size=(2, 8))
    visual_narrow = np.random.default_rng(10).normal(size=(2, 4))

    def cfg(**kw):
        base = dict(
            input_dim=7,
            output_dim=5,
            textual_embedding_dim=8,
            hidden_state_dim=8,
            dropout_rate=0.0,
            seed=21,
        )
        base.update(kw)
        return ModelConfig(**base)

    cases = [
        ("blind-bow", cfg(), None),
        ("blind-rnn", cfg(cell="gru"), None),
        ("blind-rnn", cfg(cell="lstm"), None),
        ("vl-bow", cfg(visual_dim=4, multimodal_merge_mode="concat"), visual_narrow),
        ("vl-bow", cfg(visual_dim=8, multimodal_merge_mode="mul"), visual_raw),
        ("vl-bow", cfg(visual_dim=8, multimodal_merge_mode="sum"), visual_raw),
        ("vl-bow", cfg(visual_dim=8, multimodal_merge_mode="ave"), visual_raw),
        (
            "vl-rnn",
            cfg(visual_dim=4, visual_embedding_dim=8, multimodal_merge_mode="sum"),
            visual_narrow,
        ),
    ]
    worst = 0.0
    for kind, config, visual in cases:
        model = build_model(kind, config)

        def loss_fn(tape, model=model, visual=visual):
            scores = model.forward(tape, questions, visual, training=False)
            return cross_entropy(tape, scores, targets)

        err = grad_check(loss_fn, list(model.params.values()), h=1e-5)
        worst = max(worst, err)
    elapsed = time.monotonic() - started
    report(1, "gradient integrity", worst < 1e-4 and elapsed < 30.0)


def test_02_lookup_equals_onehot_matmul():
    """Index lookup is bitwise the product with a one-hot matrix."""
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        vocab = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 9))
        count = int(rng.integers(1, 7))
        table = rng.normal(size=(vocab, dim))
        indices = rng.integers(0, vocab, size=count)
        tape = Tape()
        looked = tape.embedding_lookup(Tensor(table), indices)
        onehot = np.zeros((count, vocab))
        onehot[np.arange(count), indices] = 1.0
        product = onehot @ table
        ok = ok and looked.data.tobytes() == product.tobytes()
    report(2, "lookup = one-hot matmul", ok)


def test_03_uniform_cross_entropy_is_log_k():
    """Uniform scores cost ln K; softmax rows are distributions."""
    ok = True
    for k in (2, 4, 1000):
        scores = Tensor(np.full((3, k), 1.0 / k))
        loss = cross_entropy(Tape(), scores, np.zeros(3, dtype=int))
        ok = ok and abs(float(loss.data) - math.log(k)) < 1e-9
    rng = np.random.default_rng(3)
    for k in (2, 4, 1000):
        probs = Tape().softmax(Tensor(rng.normal(size=(5, k)) * 10.0))
        ok = ok and np.all(np.abs(probs.data.sum(axis=1) - 1.0) < 1e-9)
    report(3, "uniform loss = ln K", ok)


def test_04_word_order_separates_the_encoders():
    """Bags collide on an order-keyed corpus; a recurrent reader does not."""
    started = time.monotonic()
    text = order_corpus(pairs=10)
    questions, targets, vocab_a, vocab_q = encoded_corpus(text, maxlen=4)

    def run(kind, seed, epochs):
        model = build_model(
            kind,
            ModelConfig(
                input_dim=len(vocab_q),
                output_dim=len(vocab_a),
                textual_embedding_dim=32,
                hidden_state_dim=32,
                dropout_rate=0.0,
                seed=seed,
            )
        )
        config = TrainingConfig(
            optimizer="adam",
            learning_rate=0.01,
            epochs=epochs,
            batch_size=20,
            seed=seed,
        )
        return fit(model, questions, targets, config)[-1].accuracy

    # every record is order-ambiguous for a bag: the two readings of each
    # token pair are equally frequent, so 0.5 is the analytic bag ceiling
    bow_acc = run("blind-bow", seed=11, epochs=120)
    rnn_acc = run("blind-rnn", seed=11, epochs=300)
    elapsed = time.monotonic() - started
    report(
        4,
        "order sensitivity",
        bow_acc <= 0.55 and rnn_acc >= 0.95 and elapsed < 120.0,
    )


def test_05_overfit_fixture_is_learnable_and_deterministic():
    """Ten separable pairs are memorised quickly, identically every run."""
    text = separable_corpus(10)
    questions, targets, vocab_a, vocab_q = encoded_corpus(text, maxlen=6)

    def run():
        model = build_model(
            "blind-bow",
            ModelConfig(
                input_dim=len(vocab_q),
                output_dim=len(vocab_a),
                textual_embedding_dim=64,
                hidden_state_dim=64,
                dropout_rate=0.0,
                seed=7,
            )
        )
        config = TrainingConfig(
            optimizer="adam", learning_rate=0.001, epochs=200, batch_size=10, seed=7
        )
        reports = fit(model, questions, targets, config)
        weights = {k: p.data.tobytes() for k, p in model.params.items()}
        return reports[-1].accuracy, weights

    acc_a, weights_a = run()
    acc_b, weights_b = run()
    report(5, "overfit fixture", acc_a >= 0.95 and acc_a == acc_b and weights_a == weights_b)


def test_06_fusion_dimension_rule():
    """Equal-width merges reject mismatched branches; concat adds widths."""
    ok = True

    def cfg(**kw):
        base = dict(
            input_dim=7,
            output_dim=5,
            textual_embedding_dim=6,
            hidden_state_dim=6,
            dropout_rate=0.0,
            seed=0,
        )
        base.update(kw)
        return ModelConfig(**base)

    for merge in ("mul", "sum", "ave"):
        try:
            build_model(
                "vl-bow", cfg(visual_dim=4, multimodal_merge_mode=merge)
            )
            ok = False  # 6-wide language vs 4-wide visual must not build
        except ConfigurationError:
            pass
    for d_lang, d_vis, d_vis_embed in [(6, 4, 0), (3, 5, 5), (8, 2, 7)]:
        model = build_model(
            "vl-bow",
            cfg(
                textual_embedding_dim=d_lang,
                visual_dim=d_vis,
                visual_embedding_dim=d_vis_embed,
                multimodal_merge_mode="concat",
            ),
        )
        expected = d_lang + (d_vis_embed if d_vis_embed > 0 else d_vis)
        ok = ok and model.merged_dim == expected
        ok = ok and model.params["classifier.weight"].shape[0] == expected
    report(6, "fusion dimension rule", ok)


def acceptance_world():
    rng = np.random.default_rng(77)
    parent = random_parent_map(rng, n=30)
    tax_lines = [f"{c}\t{'-' if p is None else p}" for c, p in parent.items()]
    taxonomy = parse_taxonomy("\n".join(tax_lines) + "\n")
    # every word carries two senses: its own concept and that concept's parent
    lex_lines = []
    for i, (concept, par) in enumerate(parent.items()):
        senses = concept if par is None else f"{concept}, {par}"
        lex_lines.append(f"w{i}\t{senses}")
    lexicon = parse_lexicon("\n".join(lex_lines) + "\n", taxonomy)
    words = [f"w{i}" for i in range(len(parent))] + ["stray-a", "stray-b"]
    return parent, taxonomy, lexicon, words


def chain_of(parent, concept):
    out = [concept]
    while parent[concept] is not None:
        concept = parent[concept]
        out.append(concept)
    return out


def oracle_word_wup(parent, lexicon, a, b):
    """Chain-walking reimplementation, independent of the library code."""

    def concept_wup(x, y):
        chain_x, chain_y = chain_of(parent, x), chain_of(parent, y)
        common = set(chain_x) & set(chain_y)
        lca = max(common, key=lambda c: len(chain_of(parent, c)))
        dx, dy, dl = len(chain_x), len(chain_y), len(chain_of(parent, lca))
        return 2.0 * dl / (dx + dy)

    senses_a, senses_b = lexicon.senses(a), lexicon.senses(b)
    if not senses_a or not senses_b:
        return 1.0 if a == b else 0.0
    return max(concept_wup(x, y) for x in senses_a for y in senses_b)


def test_07_wups_properties():
    """Identity, symmetry, and the down-weighting rule hold everywhere."""
    parent, taxonomy, lexicon, words = acceptance_world()
    cfg = WupsConfig(threshold=0.9)
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        picked = set(rng.choice(words, size=int(rng.integers(1, 5)), replace=False))
        ok = ok and wups_pair(picked, set(picked), cfg, lexicon, taxonomy) == 1.0
    for _ in range(200):
        left = set(rng.choice(words, size=int(rng.integers(1, 5)), replace=False))
        right = set(rng.choice(words, size=int(rng.integers(1, 5)), replace=False))
        forward = wups_pair(left, right, cfg, lexicon, taxonomy)
        backward = wups_pair(right, left, cfg, lexicon, taxonomy)
        ok = ok and abs(forward - backward) < 1e-12
    for _ in range(100):
        a, b = (str(w) for w in rng.choice(words, size=2))
        got = thresholded_wup(a, b, cfg, lexicon, taxonomy)
        raw = oracle_word_wup(parent, lexicon, a, b)
        want = raw if raw >= 0.9 else 0.1 * raw
        ok = ok and abs(got - want) < 1e-12
    report(7, "wups properties", ok)


def test_08_toy_ontology_values_and_lca_oracle():
    """Hand-computed similarities hold; lca survives a 100-node fuzz."""
    taxonomy = parse_taxonomy(TOY_TAXONOMY)
    ok = taxonomy.wup("dog", "horse") == 0.5
    ok = ok and taxonomy.wup("dog", "dalmatian") == 0.8
    rng = np.random.default_rng(55)
    parent = random_parent_map(rng, n=100)
    lines = [f"{c}\t{'-' if p is None else p}" for c, p in parent.items()]
    big = parse_taxonomy("\n".join(lines) + "\n")
    names = list(parent)
    for a in names:
        chain_a = chain_of(parent, a)
        for b in names:
            common = set(chain_a) & set(chain_of(parent, b))
            want = max(common, key=lambda c: len(chain_of(parent, c)))
            if big.lca(a, b) != want:
                ok = False
                break
        if not ok:
            break
    report(8, "toy ontology values", ok)


def test_09_set_accuracy_caveat():
    """Order inside an answer set never matters; near-misses score zero."""
    taxonomy = parse_taxonomy(TOY_TAXONOMY)
    lexicon = parse_lexicon(TOY_LEXICON, taxonomy)
    acc_cfg = WupsConfig(threshold=ACCURACY_SENTINEL)
    ok = wups_corpus(["knife, fork"], ["fork, knife"], acc_cfg, None, None) == 1.0
    ok = ok and wups_corpus(["chair"], ["armchair"], acc_cfg, None, None) == 0.0
    preds = ["dog", "horse, dog", "dalmatian", "fork"]
    truths = ["dog", "dog, horse", "dog", "knife"]
    exact = sum(
        parse_answer_set(p) == parse_answer_set(t) for p, t in zip(preds, truths)
    ) / len(preds)
    got = wups_corpus(preds, truths, acc_cfg, lexicon, taxonomy)
    ok = ok and got == exact == 0.5
    report(9, "set accuracy caveat", ok)


def test_10_training_cli_is_deterministic(tmp_path):
    """The same flags and seed rebuild the same bytes on disk."""
    (tmp_path / "train.txt").write_text(separable_corpus(10), encoding="utf-8")
    code = cli_main(
        [
            "build-vocab",
            "--train", str(tmp_path / "train.txt"),
            "--out-q", str(tmp_path / "q.txt"),
            "--out-a", str(tmp_path / "a.txt"),
        ]
    )
    assert code == 0
    checkpoints = []
    logs = []
    for name in ("run_a", "run_b"):
        code = cli_main(
            [
                "train",
                "--model", "blind-bow",
                "--train", str(tmp_path / "train.txt"),
                "--vocab-q", str(tmp_path / "q.txt"),
                "--vocab-a", str(tmp_path / "a.txt"),
                "--embed-dim", "32",
                "--optimizer", "adam",
                "--epochs", "12",
                "--batch", "10",
                "--seed", "7",
                "--out", str(tmp_path / f"{name}.ckpt"),
            ]
        )
        assert code == 0
        checkpoints.append((tmp_path / f"{name}.ckpt").read_bytes())
        logs.append((tmp_path / f"{name}.ckpt.log").read_bytes())
        manifest = json.loads(
            (tmp_path / f"{name}.ckpt.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["model"]["seed"] == 7
    ok = checkpoints[0] == checkpoints[1] and logs[0] == logs[1]
    report(10, "training determinism", ok)
