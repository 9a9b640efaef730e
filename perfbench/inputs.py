"""The inputs of each workload, a pure function of the seed.

The program only ever sees what these builders return. Held-out messages
come from generate_corpus with seed HELDOUT_OFFSET + seed, so they never
share a seed with the bundled training corpus (generate_corpus seed 0).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "refdoc" / "data"
CORPUS = DATA / "synthetic_corpus.jsonl"
RULES = DATA / "keyword_rules.tsv"

HELDOUT_OFFSET = 1000
HELDOUT_PER_CLASS = 100
CV_PER_CLASS = 834          # 6 x 834 = 5,004 messages, the paper's corpus size

ROUND = 250                 # serve requests per round
LONG_PER_ROUND = 10         # 4% long messages: the open-loop tail lands among them
LONG_BYTES = (1024, 2048)


def add_src_path():
    """Make the checkout's refdoc importable; fail if it is not there."""
    if not (SRC / "refdoc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no refdoc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def train_inputs(seed):
    """(bundled 600-message corpus, 600 held-out messages)."""
    from refdoc.corpus import load_corpus
    from refdoc.synthetic import generate_corpus
    return (load_corpus(CORPUS),
            generate_corpus(seed=HELDOUT_OFFSET + seed,
                            per_class=HELDOUT_PER_CLASS))


def cv_inputs(seed):
    from refdoc.synthetic import generate_corpus
    return generate_corpus(seed=seed, per_class=CV_PER_CLASS)


def _long_message(sentences, target, rng):
    """Same-class sentences in seeded order until `target` bytes."""
    parts, size = [], 0
    while size < target:
        text = sentences[int(rng.integers(0, len(sentences)))]
        parts.append(text[:1].upper() + text[1:] + ".")
        size += len(parts[-1]) + 1
    return " ".join(parts)


class Traffic:
    """Serve traffic: short held-out messages (median 6 words) and long
    multi-sentence ones of 1-2 KiB, each labeled with its class.

    Every round of ROUND requests holds each of the LONG_PER_ROUND long
    messages once, at seeded positions, so every round, and every run
    whatever its number of rounds, sends the same spread of long lengths.
    Short messages are taken cyclically from their pool, so every message
    recurs within a run.
    """

    def __init__(self, seed):
        from refdoc.corpus import CommitRecord, Dataset, parse_label
        from refdoc.synthetic import generate_corpus
        heldout = generate_corpus(seed=HELDOUT_OFFSET + seed,
                                  per_class=HELDOUT_PER_CLASS)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.short = [(r.message, r.label.value) for r in heldout]
        by_class = {}
        for message, label in self.short:
            by_class.setdefault(label, []).append(message)
        labels = sorted(by_class)
        span = LONG_BYTES[1] - LONG_BYTES[0]
        self.long = []
        for k in range(LONG_PER_ROUND):
            # one target length in each 1/LONG_PER_ROUND of the range
            target = LONG_BYTES[0] + int((k + rng.random()) * span / LONG_PER_ROUND)
            label = labels[k % len(labels)]
            self.long.append((_long_message(by_class[label], target, rng), label))
        self.seed = seed
        records = [CommitRecord(id=f"m{i:05d}", project="traffic",
                                message=m, label=parse_label(lab))
                   for i, (m, lab) in enumerate(self.short + self.long)]
        self.fingerprint = Dataset(records).fingerprint()

    def round(self, k):
        """The (message, label) pairs of round k."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, k]))
        slots = rng.choice(ROUND, LONG_PER_ROUND, replace=False)
        out = [None] * ROUND
        for slot, long_index in zip(slots, rng.permutation(LONG_PER_ROUND)):
            out[slot] = self.long[long_index]
        s = k * (ROUND - LONG_PER_ROUND)
        for slot in range(ROUND):
            if out[slot] is None:
                out[slot] = self.short[s % len(self.short)]
                s += 1
        return out


BUILDERS = {"train": train_inputs, "cv-nb": cv_inputs, "serve": Traffic}
