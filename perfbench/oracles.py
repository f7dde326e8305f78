"""Slow, independent reimplementations the benchmark checks outputs against.

The WUPS oracle reads the taxonomy and lexicon files itself and walks every
sense pair up to the root, sharing no code with ``imageqa.ontology``.
"""

from __future__ import annotations

from pathlib import Path

PENALTY = 0.1  # WUPS down-weighting of below-threshold similarities
TOLERANCE = 1e-12


def read_parents(path: Path) -> dict[str, str | None]:
    parent: dict[str, str | None] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        concept, par = line.split("\t")
        parent[concept] = None if par == "-" else par
    return parent


def read_senses(path: Path) -> dict[str, list[str]]:
    senses = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        word, concepts = line.split("\t")
        senses[word] = concepts.split(",")
    return senses


def answer_set(line: str) -> set[str]:
    return {w.strip() for w in line.split(", ") if w.strip()}


def _chain(concept: str, parent) -> list[str]:
    """The concept and its ancestors, deepest first."""
    out = [concept]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out


def _word_similarity(a: str, b: str, senses, parent) -> float:
    if a not in senses or b not in senses:
        return 1.0 if a == b else 0.0
    best = 0.0
    for ca in senses[a]:
        chain_a = _chain(ca, parent)
        for cb in senses[b]:
            chain_b = _chain(cb, parent)
            on_b = set(chain_b)
            lca = next(c for c in chain_a if c in on_b)
            depth_lca = len(_chain(lca, parent))
            best = max(best, 2.0 * depth_lca / (len(chain_a) + len(chain_b)))
    return best


def wups_pair(pred: set[str], truth: set[str], tau: float, senses, parent) -> float:
    def direction(src, dst):
        product = 1.0
        for a in src:
            best = 0.0
            for b in dst:
                s = _word_similarity(a, b, senses, parent)
                best = max(best, s if s >= tau else PENALTY * s)
            product *= best
        return product

    return min(direction(pred, truth), direction(truth, pred))


def work_counts(pred_lines, truth_lines, senses) -> tuple[int, int]:
    """Word pairs and sense pairs one WUPS pass over these lines compares."""
    words = senses_pairs = 0
    for p_line, t_line in zip(pred_lines, truth_lines):
        pred, truth = answer_set(p_line), answer_set(t_line)
        for a in pred:
            for b in truth:
                words += 2  # each direction compares the pair once
                if a in senses and b in senses:
                    senses_pairs += 2 * len(senses[a]) * len(senses[b])
    return words, senses_pairs
