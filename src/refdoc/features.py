"""N-gram vocabulary, TF-IDF weighting, Fisher ranking, vectorization.

Features take one form from counting to the estimator, a docs x columns
CSR matrix: vectors_to_csr counts, build_vocabulary ranks the n-grams of
a count matrix, and vectorize weighs its selected columns, column p
holding feature selected[p]. Weighting is pinned for bit-reproducibility:
TF is the raw in-document count, IDF is ln((1+N)/(1+df)) + 1, and rows
are L2-normalized. Fisher scores are computed over the unnormalized
count*idf values as axis-0 sums of C-ordered blocks, which numpy takes
row by row in dataset order: bit-equal to a row-by-row loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from .corpus import present_types
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
    higher-k selection. `columns` maps each selected n-gram, in column
    order, to its column p: the position of its id in `selected`, whose
    idf is `column_idf[p]`.
    """

    ngrams: List[Ngram]
    doc_freq: np.ndarray
    idf: np.ndarray
    fisher: np.ndarray
    selected: np.ndarray
    n_max: int
    k_select: int
    columns: Dict[Ngram, int] = field(init=False, repr=False)
    column_idf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.ngrams)
        if any(len(a) != n for a in (self.doc_freq, self.idf, self.fisher)):
            raise ValueError("doc_freq, idf and fisher need one entry per n-gram")
        if not np.isfinite(self.idf).all():
            raise ValueError("idf values must be finite")
        ids = [int(f) for f in self.selected]
        if len(set(ids)) != len(ids) or not all(0 <= f < n for f in ids):
            raise ValueError("selected must hold distinct n-gram ids")
        self.columns = {self.ngrams[f]: p for p, f in enumerate(ids)}
        self.column_idf = self.idf[ids]

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
    classes = present_types(labels)
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


def vectors_to_csr(doc_counts, index) -> sparse.csr_matrix:
    """Count matrix of n-gram count dicts over index (n-gram -> column).

    N-grams missing from index are dropped; each row's columns ascend.
    """
    indices, data, indptr = [], [], [0]
    for counts in doc_counts:
        for gram, count in counts.items():
            if gram in index:
                indices.append(index[gram])
                data.append(count)
        indptr.append(len(indices))
    # int32 arrays, as scipy would pick, skip its costly index-dtype check
    X = sparse.csr_matrix((np.array(data, dtype=np.float64),
                           np.array(indices, dtype=np.int32),
                           np.array(indptr, dtype=np.int32)),
                          shape=(len(indptr) - 1, len(index)))
    X.sort_indices()
    return X


def build_vocabulary(counts, ngrams, labels, n_max, k_select) -> Vocabulary:
    """Vocabulary of the rows of a count matrix over the sorted n-grams:
    the n-grams with nonzero df in those rows, in lexicographic order.

    Requires two documents and two distinct labels. idf is the smoothed
    ln((1+N)/(1+df)) + 1, so a feature in every document scores 1.0.
    """
    labels = list(labels)
    n_docs = counts.shape[0]
    if not n_docs:
        raise EmptyCorpus("no documents")
    if n_docs != len(labels):
        raise ValueError("docs and labels length mismatch")
    if len(set(labels)) < 2:
        raise SingleClass("need at least two distinct labels")

    keep = np.flatnonzero(np.bincount(counts.indices, minlength=len(ngrams)))
    if not keep.size:
        raise EmptyCorpus("every document is empty after preprocessing")
    counts = counts[:, keep]
    doc_freq = np.bincount(counts.indices, minlength=keep.size)
    idf = np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0
    fisher = fisher_scores(counts, labels, idf)

    # ngrams is sorted, so a stable sort breaks score ties lexicographically
    selected = np.argsort(-fisher, kind="stable")[:k_select].astype(np.int64)
    return Vocabulary(
        ngrams=[ngrams[j] for j in keep], doc_freq=doc_freq, idf=idf,
        fisher=fisher, selected=selected, n_max=n_max, k_select=k_select,
    )


def vectorize(counts, vocab: Vocabulary) -> sparse.csr_matrix:
    """Weigh a count matrix over the selected columns into TF-IDF rows, in
    place, and return it.

    weight = count * idf at each entry, then each row is divided by the
    square root of its exactly rounded sum of squares (math.fsum), and its
    columns ascend. An all-zero row stays empty. In place, because a
    second matrix would cost a one-row call more than the weighing.
    """
    data = counts.data
    data *= vocab.column_idf[counts.indices]
    squares = (data * data).tolist()
    bounds = counts.indptr.tolist()
    norms = np.array([math.sqrt(math.fsum(squares[a:b]))
                      for a, b in zip(bounds, bounds[1:])])
    data /= norms.repeat(counts.indptr[1:] - counts.indptr[:-1])
    counts.sort_indices()
    return counts
