"""N-gram vocabulary, TF-IDF weighting, Fisher ranking, vectorization.

Weighting is pinned for bit-reproducibility: TF is the raw in-document
count, IDF is ln((1+N)/(1+df)) + 1, and document vectors over the selected
features are L2-normalized. Fisher scores are computed over the
unnormalized count*idf values as axis-0 sums of C-ordered blocks, which
numpy takes row by row in dataset order: bit-equal to a row-by-row loop.

weigh turns one document's n-gram count dict into a positional row:
{column: weight} in ascending column order, where column p is feature
selected[p]. Every estimator reads that row; vectors_to_csr stacks rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from .errors import EmptyCorpus, SingleClass

Ngram = Tuple[str, ...]

FISHER_EPS = 1e-12
_BLOCK = 256


def extract_ngrams(tokens: Sequence[str], n_max: int) -> List[Ngram]:
    """All contiguous n-grams of the doc for n = 1..n_max, in reading order."""
    out = []
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            out.append(tuple(tokens[i:i + n]))
    return out


def count_ngrams(tokens: Sequence[str], n_max: int) -> Dict[Ngram, int]:
    counts: Dict[Ngram, int] = {}
    for gram in extract_ngrams(tokens, n_max):
        counts[gram] = counts.get(gram, 0) + 1
    return counts


@dataclass
class Vocabulary:
    """N-gram feature space with IDF weights and a Fisher-ranked selection.

    Feature ids are dense 0..V-1 in lexicographic n-gram order. `selected`
    lists the chosen feature ids ranked by Fisher score descending with
    lexicographic tie-breaking; lowering k therefore yields a prefix of the
    higher-k selection. `columns` maps each selected n-gram to its column
    p, the position of its id in `selected`, whose idf is `column_idf[p]`.
    """

    ngrams: List[Ngram]
    doc_freq: np.ndarray
    idf: np.ndarray
    fisher: np.ndarray
    selected: np.ndarray
    n_max: int
    k_select: int
    index: Dict[Ngram, int] = field(init=False, repr=False)
    columns: Dict[Ngram, int] = field(init=False, repr=False)
    column_idf: List[float] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.ngrams)
        if any(len(a) != n for a in (self.doc_freq, self.idf, self.fisher)):
            raise ValueError("doc_freq, idf and fisher need one entry per n-gram")
        if not np.isfinite(self.idf).all():
            raise ValueError("idf values must be finite")
        ids = [int(f) for f in self.selected]
        if len(set(ids)) != len(ids) or not all(0 <= f < n for f in ids):
            raise ValueError("selected must hold distinct n-gram ids")
        self.index = {g: i for i, g in enumerate(self.ngrams)}
        self.columns = {self.ngrams[f]: p for p, f in enumerate(ids)}
        self.column_idf = [float(self.idf[f]) for f in ids]

    def __len__(self):
        return len(self.ngrams)

    @property
    def n_selected(self) -> int:
        return len(self.selected)


def fisher_scores(counts: sparse.csr_matrix, labels, idf) -> np.ndarray:
    """Fisher score of every column of a docs x n-grams count matrix.

    Scores are taken over the count*idf values:
    score(j) = sum_k n_k (mu_kj - mu_j)^2 / (sum_k n_k var_kj + eps) with
    population variances, eps = 1e-12. Classes are visited in canonical
    label order; every sum is an axis-0 sum of a C-ordered block, which
    adds rows in dataset order, bit-equal to a straightforward loop.
    """
    n_docs, n_feat = counts.shape
    if n_docs == 0:
        raise EmptyCorpus("no documents")
    if n_docs != len(labels):
        raise ValueError("docs and labels length mismatch")
    classes = sorted(set(labels), key=lambda t: t.value)
    if len(classes) < 2:
        raise SingleClass("need at least two distinct labels")

    tfidf = counts.multiply(idf[np.newaxis, :]).tocsc()
    class_rows = [np.array([i for i, lab in enumerate(labels) if lab == c])
                  for c in classes]

    scores = np.empty(n_feat, dtype=np.float64)
    for start in range(0, n_feat, _BLOCK):
        stop = min(start + _BLOCK, n_feat)
        block = tfidf[:, start:stop].toarray(order="C")
        mu_all = block.sum(axis=0) / n_docs
        num, den = np.zeros((2, stop - start))
        for rows in class_rows:
            n_k = len(rows)
            members = block[rows]          # a C-ordered copy, squared in place
            mu_k = members.sum(axis=0) / n_k
            diff = mu_k - mu_all
            num += n_k * (diff * diff)
            members -= mu_k
            members *= members
            den += n_k * (members.sum(axis=0) / n_k)
        scores[start:stop] = num / (den + FISHER_EPS)
    return scores


def build_vocabulary(docs, labels, n_max: int = 2, k_select: int = 5000) -> Vocabulary:
    """Vocabulary of preprocessed docs: see vocabulary_from_counts."""
    return vocabulary_from_counts([count_ngrams(t, n_max) for t in docs],
                                  labels, n_max, k_select)


def vocabulary_from_counts(doc_counts, labels, n_max, k_select) -> Vocabulary:
    """Index every n-gram of the count dicts, weight it, rank-select top k.

    Requires at least two documents and two distinct labels. idf uses the
    smoothed formula ln((1+N)/(1+df)) + 1, so idf >= 1 everywhere and a
    feature present in every document scores exactly 1.0. df and the
    Fisher scores are both taken from one count matrix of the dicts.
    """
    if not 1 <= n_max <= 3:
        raise ValueError("n_max must be 1, 2, or 3")
    doc_counts = list(doc_counts)
    labels = list(labels)
    if not doc_counts:
        raise EmptyCorpus("no documents")
    if len(doc_counts) != len(labels):
        raise ValueError("docs and labels length mismatch")
    if len(set(labels)) < 2:
        raise SingleClass("need at least two distinct labels")

    ngrams = sorted(set().union(*doc_counts))
    if not ngrams:
        raise EmptyCorpus("every document is empty after preprocessing")
    index = {g: i for i, g in enumerate(ngrams)}
    counts = vectors_to_csr(
        [{index[g]: c for g, c in dc.items()} for dc in doc_counts],
        len(ngrams))

    doc_freq = np.bincount(counts.indices, minlength=len(ngrams))
    idf = np.log((1.0 + len(doc_counts)) / (1.0 + doc_freq)) + 1.0
    fisher = fisher_scores(counts, labels, idf)

    # ngrams is sorted, so a stable sort breaks score ties lexicographically
    selected = np.argsort(-fisher, kind="stable")[:k_select].astype(np.int64)
    return Vocabulary(
        ngrams=ngrams, doc_freq=doc_freq, idf=idf, fisher=fisher,
        selected=selected, n_max=n_max, k_select=k_select,
    )


def vectorize(tokens, vocab: Vocabulary) -> Dict[int, float]:
    """Positional TF-IDF row of one preprocessed doc: see weigh."""
    return weigh(count_ngrams(tokens, vocab.n_max), vocab)


def weigh(counts: Dict[Ngram, int], vocab: Vocabulary) -> Dict[int, float]:
    """Positional TF-IDF row of one doc's n-gram counts: {column: weight}.

    weight = count(g in doc) * idf(g) for each selected n-gram g, at g's
    column, then the row is L2-normalized and ordered by column.
    Out-of-vocabulary and unselected n-grams are ignored; an all-zero doc
    yields the empty row.
    """
    weights: Dict[int, float] = {}
    for gram, count in counts.items():
        col = vocab.columns.get(gram)
        if col is not None:
            weights[col] = count * vocab.column_idf[col]
    if not weights:
        return {}
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    return {col: weights[col] / norm for col in sorted(weights)}


def vectors_to_csr(rows, n_columns: int) -> sparse.csr_matrix:
    """Stack positional rows ({column: value}, any column order) into CSR."""
    indices = [c for row in rows for c in row]
    data = [v for row in rows for v in row.values()]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    X = sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64), indptr),
        shape=(len(rows), n_columns),
    )
    X.sort_indices()
    return X
