#!/usr/bin/env python3
"""Write the seeded, DAQUAR-shaped inputs of one benchmark workload.

    python3 perfbench/generate.py --workload gru-train --seed 3 --out DIR

Files written to DIR (the workload process reads nothing else):

    train.txt, test.txt  question/answer/image triples
    features.csv         name,v1..v1000 per image (vision workloads only)
    taxonomy.txt         concept<TAB>parent, with WordNet's root and depth
    lexicon.txt          answer word<TAB>1-8 concept senses
    truth.txt            the test answers, one line per test question
    pred.txt             predicted answers drawn from the same Zipf law
    seeded.ckpt          format_checkpoint of a model built with seed + 1
    inputs.json          workload name and seeds

The same seed writes byte-identical files.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import spec
from imageqa import build_model, models, textpipe


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


def quota_draw(rng, n: int, p: np.ndarray) -> np.ndarray:
    """n draws from distribution p with each outcome's count fixed at n * p
    (rounded by largest remainder) and only the order random.  Every seed
    then gets the same multiset of ranks, so the work per run does not
    depend on the seed."""
    exact = n * p
    counts = np.floor(exact).astype(int)
    short = n - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return rng.permutation(np.repeat(np.arange(len(p)), counts))


def answer_lines(rng, n: int, words: list[str], c: spec.Corpus) -> list[str]:
    """Answers whose words follow the Zipf law; a share has 2-3 distinct words."""
    p = zipf_weights(len(words), c.zipf)
    first = quota_draw(rng, n, p)
    extra_words = quota_draw(rng, 3 * n, p)  # generous: duplicates are skipped
    widths = quota_draw(rng, n, np.array([1.0 - c.multi_word_share,
                                          c.multi_word_share / 2, c.multi_word_share / 2])) + 1
    lines, taken = [], 0
    for i in range(n):
        ranks = [int(first[i])]
        while len(ranks) < widths[i]:
            r = int(extra_words[taken])
            taken += 1
            if r not in ranks:
                ranks.append(r)
        lines.append(", ".join(words[r] for r in ranks))
    return lines


def question_lines(rng, n: int, words: list[str], c: spec.Corpus) -> list[str]:
    span = c.max_tokens - c.min_tokens + 1
    lengths = c.min_tokens + quota_draw(rng, n, np.full(span, 1.0 / span))
    tokens = quota_draw(rng, int(lengths.sum()), zipf_weights(len(words), c.zipf))
    ends = np.cumsum(lengths)
    return [" ".join(words[t] for t in tokens[e - k : e]) for k, e in zip(lengths, ends)]


def triples(questions: list[str], answers: list[str], images: list[str]) -> str:
    out = []
    for q, a, im in zip(questions, answers, images):
        out += [q, a, im]
    return "\n".join(out) + "\n"


def features_csv(rng, names: list[str], dim: int) -> str:
    """Non-negative, half-sparse rows, like pooled ReLU activations."""
    values = np.maximum(rng.standard_normal((len(names), dim)), 0.0) * 2.0
    row = ",".join(["%.6f"] * dim)
    return "\n".join(f"{name}," + row % tuple(v) for name, v in zip(names, values)) + "\n"


TOP_GROWTH = 8  # no level holds more than this many times the level above


def depth_profile(c: spec.Corpus) -> list[int]:
    """Concepts per depth, root first.

    The root has ``root_children`` children and the deepest level is
    ``max_depth``, as in WordNet 3.0's noun hierarchy.  In between, the counts
    follow a bell around depth 9 (sd 3.5), capped by ``TOP_GROWTH`` so the top
    of the tree stays narrow.  The bell and the cap are this benchmark's
    choices: no table of WordNet's concepts per depth is in the repository."""
    depths = np.arange(3, c.max_depth + 1)
    bell = np.exp(-0.5 * ((depths - 9) / 3.5) ** 2)
    cap = c.root_children * float(TOP_GROWTH) ** (depths - 2)
    below = c.concepts - 1 - c.root_children
    lo, hi = 0.0, float(below)  # scale of the bell, found by bisection
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if np.minimum(mid * bell, cap).sum() < below else (lo, mid)
    counts = np.maximum(1, np.floor(np.minimum(lo * bell, cap))).astype(int)
    counts[np.argmax(counts)] += below - int(counts.sum())
    return [1, c.root_children] + counts.tolist()


def taxonomy(rng, c: spec.Corpus) -> tuple[str, list[list[str]]]:
    """Tree text plus the concepts at each depth (index 0 is depth 1).  Each
    concept's parent is drawn uniformly from the level above."""
    names = [f"n{i:05d}" for i in rng.permutation(c.concepts)]
    levels: list[list[str]] = []
    lines = []
    taken = 0
    for count in depth_profile(c):
        level = names[taken : taken + count]
        taken += count
        if levels:
            above = levels[-1]
            parents = rng.integers(0, len(above), size=count)
            lines += [f"{name}\t{above[p]}" for name, p in zip(level, parents)]
        else:
            lines += [f"{name}\t-" for name in level]
        levels.append(level)
    order = rng.permutation(len(lines))
    return "\n".join(lines[i] for i in order) + "\n", levels


def sense_count(rank: int, c: spec.Corpus) -> int:
    """Zipf's meaning-frequency law (Zipf 1945, J. Gen. Psychology 33:251):
    senses grow as the square root of a word's frequency, so with Zipf
    frequencies as 1/sqrt(rank).  With 8 senses for the commonest answer, 28
    of the 500 answers are polysemous, with 2.79 senses on average, which is
    WordNet 3.0's average for polysemous nouns (wnstats(7WN))."""
    return int(min(c.max_senses, max(1, round(c.max_senses / rank**0.5))))


GOLDEN = (5**0.5 - 1) / 2


def lexicon(rng, answer_words: list[str], levels: list[list[str]], c: spec.Corpus) -> str:
    """Sense depths are spread like the depths of all concepts below the root,
    as uniformly drawn senses would be, but stratified by a golden-ratio
    sequence in rank order: each rank gets the same depths for every seed, so
    the WUPS work per pair does not depend on the seed."""
    sizes = np.array([len(level) for level in levels[1:]], dtype=float)
    cdf = np.cumsum(sizes) / sizes.sum()
    lines = []
    i = 0
    for rank, word in enumerate(answer_words, start=1):
        senses: list[str] = []
        for _ in range(sense_count(rank, c)):
            u = ((i + 0.5) * GOLDEN) % 1.0
            i += 1
            level = levels[1 + int(np.searchsorted(cdf, u, side="right"))]
            concept = level[int(rng.integers(0, len(level)))]
            if concept not in senses:
                senses.append(concept)
        lines.append(f"{word}\t{','.join(senses)}")
    return "\n".join(lines) + "\n"


def seeded_checkpoint(workload: spec.Workload, train_text: str, seed: int) -> str:
    records = textpipe.parse_triple_file(train_text)
    vocab_q = textpipe.build_vocabulary(
        textpipe.word_frequencies(r.question for r in records)
    )
    vocab_a = textpipe.build_vocabulary(
        textpipe.answer_word_frequencies(r.answer for r in records)
    )
    config = spec.model_config(workload, len(vocab_q), len(vocab_a), seed)
    return models.format_checkpoint(build_model(workload.kind, config).params)


def generate(workload_name: str, seed: int, out: Path) -> None:
    workload = spec.WORKLOADS[workload_name]
    c = spec.CORPUS
    rng = np.random.default_rng([seed, 0x1A9E])
    q_words = [f"q{i}" for i in rng.permutation(c.question_words)]
    a_words = [f"a{i}" for i in rng.permutation(c.answer_words)]
    images = [f"image{i}" for i in range(1, c.images + 1)]

    def split(n):
        picks = rng.integers(0, c.images, size=n)
        return question_lines(rng, n, q_words, c), answer_lines(rng, n, a_words, c), [
            images[i] for i in picks
        ]

    train_q, train_a, train_im = split(c.train)
    test_q, test_a, test_im = split(c.test)
    train_text = triples(train_q, train_a, train_im)
    files = {
        "train.txt": train_text,
        "test.txt": triples(test_q, test_a, test_im),
        "truth.txt": "\n".join(test_a) + "\n",
        "pred.txt": "\n".join(answer_lines(rng, c.test, a_words, c)) + "\n",
    }
    # the taxonomy and lexicon draw from a stream of their own
    onto = np.random.default_rng([seed, 0x0A70])
    tax_text, levels = taxonomy(onto, c)
    files["taxonomy.txt"] = tax_text
    files["lexicon.txt"] = lexicon(onto, a_words, levels, c)
    if workload.vision:
        files["features.csv"] = features_csv(rng, images, c.feature_dim)
    files["seeded.ckpt"] = seeded_checkpoint(workload, train_text, seed + 1)
    files["inputs.json"] = json.dumps(
        {"workload": workload_name, "seed": seed, "checkpoint_seed": seed + 1}
    ) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
