"""N-gram vocabulary, TF-IDF weighting, Fisher ranking, vectorization.

Features take one form from counting to the estimator, a docs x columns
CSR matrix: three numpy arrays and a shape, with each row's columns in
ascending order. vectors_to_csr counts, build_vocabulary ranks the n-grams
of a count matrix, and vectorize weighs its selected columns, column p
holding feature selected[p]. The few matrix operations refdoc needs are
functions here that read only indptr, indices, data and shape, so any CSR
matrix with those fields is a valid input. Weighting is pinned for
bit-reproducibility: TF is the raw in-document count, IDF is
ln((1+N)/(1+df)) + 1, and rows are L2-normalized. Fisher scores are
computed over the unnormalized count*idf values as axis-0 sums of
C-ordered blocks, which numpy takes row by row in dataset order:
bit-equal to a row-by-row loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .corpus import present_types
from .errors import EmptyCorpus

Ngram = Tuple[str, ...]

FISHER_EPS = 1e-12
_BLOCK = 256


@dataclass(frozen=True)
class CSR:
    """A rows x columns matrix: row i holds the values
    data[indptr[i]:indptr[i + 1]] at the columns indices[same range]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]


def row_ids(X) -> np.ndarray:
    """The int64 row id of each entry of X, in storage order."""
    return np.repeat(np.arange(X.shape[0], dtype=np.int64), np.diff(X.indptr))


def _sort_rows(X) -> CSR:
    """X with each row's entries in ascending column order; a row's
    columns must be distinct, so one row sorts by its columns alone."""
    if X.shape[0] == 1:
        order = np.argsort(X.indices)
    else:
        order = np.argsort(row_ids(X) * X.shape[1] + X.indices)
    return CSR(X.indptr, X.indices[order], X.data[order], X.shape)


def select_rows(X, rows) -> CSR:
    """The rows of X at the positions rows, in that order."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = X.indptr[rows]
    lengths = X.indptr[rows + 1] - starts
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return CSR(indptr, X.indices[take], X.data[take], (len(rows), X.shape[1]))


def select_columns(X, columns) -> CSR:
    """The distinct columns of X at the positions columns, column p of the
    result holding X's column columns[p]; each row's columns ascend."""
    position = np.full(X.shape[1], -1, dtype=np.intp)
    position[columns] = np.arange(len(columns))
    cols = position[X.indices]
    kept = cols >= 0
    before = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(kept, out=before[1:])
    return _sort_rows(CSR(before[X.indptr], cols[kept], X.data[kept],
                          (X.shape[0], len(columns))))


def column_view(X):
    """(indptr, rows, cols, vals): the entries of X sorted by column, and
    by row within a column; column j's are indptr[j]:indptr[j + 1]."""
    n_rows, n_cols = X.shape
    rows = row_ids(X)
    order = np.argsort(X.indices * np.int64(n_rows) + rows)
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(X.indices, minlength=n_cols), out=indptr[1:])
    return indptr, rows[order], X.indices[order], X.data[order]


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

    Feature ids are dense 0..V-1 in lexicographic n-gram order, each
    n-gram once. `selected` lists the min(k_select, V) chosen feature ids
    ranked by Fisher score descending with lexicographic tie-breaking;
    lowering k therefore yields a prefix of the higher-k selection.
    `columns` maps each selected n-gram, in column order, to its column
    p: the position of its id in `selected`, whose idf is `column_idf[p]`.
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
        if any(a >= b for a, b in zip(self.ngrams, self.ngrams[1:])):
            raise ValueError("ngrams must be distinct and in ascending order")
        if any(len(a) != n for a in (self.doc_freq, self.idf, self.fisher)):
            raise ValueError("doc_freq, idf and fisher need one entry per n-gram")
        if not np.isfinite(self.idf).all():
            raise ValueError("idf values must be finite")
        ids = [int(f) for f in self.selected]
        if len(set(ids)) != len(ids) or not all(0 <= f < n for f in ids):
            raise ValueError("selected must hold distinct n-gram ids")
        if len(ids) != min(self.k_select, n):
            raise ValueError("selected must hold min(k_select, n-grams) ids")
        self.columns = {self.ngrams[f]: p for p, f in enumerate(ids)}
        self.column_idf = self.idf[ids]

    @property
    def n_selected(self) -> int:
        return len(self.selected)


def fisher_scores(counts, labels, idf) -> np.ndarray:
    """Fisher score of every column of a docs x n-grams count matrix.

    Scores are taken over the count*idf values:
    score(j) = sum_k n_k (mu_kj - mu_j)^2 / (sum_k n_k var_kj + eps) with
    population variances, eps = 1e-12. Classes are visited in canonical
    label order; every sum is an axis-0 sum of a C-ordered block, which
    adds rows in dataset order, bit-equal to a straightforward loop.
    labels holds one label per row, as build_vocabulary checks.
    """
    n_docs, n_feat = counts.shape
    classes = present_types(labels)

    col_ptr, doc_of, col_of, vals = column_view(counts)
    vals = vals * idf[col_of]
    class_rows = [np.array([i for i, lab in enumerate(labels) if lab == c])
                  for c in classes]

    scores = np.empty(n_feat, dtype=np.float64)
    for start in range(0, n_feat, _BLOCK):
        stop = min(start + _BLOCK, n_feat)
        a, b = col_ptr[start], col_ptr[stop]
        block = np.zeros((n_docs, stop - start))
        block[doc_of[a:b], col_of[a:b] - start] = vals[a:b]
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


def vectors_to_csr(doc_counts, index) -> CSR:
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
    return _sort_rows(CSR(np.array(indptr, dtype=np.int64),
                          np.array(indices, dtype=np.intp),
                          np.array(data, dtype=np.float64),
                          (len(indptr) - 1, len(index))))


def build_vocabulary(counts, ngrams, labels, n_max, k_select) -> Vocabulary:
    """Vocabulary of the rows of a count matrix over the sorted n-grams:
    the n-grams with nonzero df in those rows, in lexicographic order.

    Requires one label per row, at least one row and one nonzero column;
    classifiers.train owns the other label rules. idf is the smoothed
    ln((1+N)/(1+df)) + 1, so a feature in every document scores 1.0.
    """
    labels = list(labels)
    n_docs = counts.shape[0]
    if not n_docs:
        raise EmptyCorpus("no documents")
    if n_docs != len(labels):
        raise ValueError("docs and labels length mismatch")

    keep = np.flatnonzero(np.bincount(counts.indices, minlength=len(ngrams)))
    if not keep.size:
        raise EmptyCorpus("every document is empty after preprocessing")
    counts = select_columns(counts, keep)
    doc_freq = np.bincount(counts.indices, minlength=keep.size)
    idf = np.log((1.0 + n_docs) / (1.0 + doc_freq)) + 1.0
    fisher = fisher_scores(counts, labels, idf)

    # ngrams is sorted, so a stable sort breaks score ties lexicographically
    selected = np.argsort(-fisher, kind="stable")[:k_select].astype(np.int64)
    return Vocabulary(
        ngrams=[ngrams[j] for j in keep], doc_freq=doc_freq, idf=idf,
        fisher=fisher, selected=selected, n_max=n_max, k_select=k_select,
    )


def vectorize(counts, vocab: Vocabulary):
    """Weigh a count matrix over the selected columns into TF-IDF rows, in
    place, and return it.

    weight = count * idf at each entry, then each row is divided by the
    square root of its exactly rounded sum of squares (math.fsum). The
    columns keep their order, ascending from vectors_to_csr and
    select_columns. An all-zero row stays empty. In place, because a
    second matrix would cost a one-row call more than the weighing.
    """
    data = counts.data
    data *= vocab.column_idf[counts.indices]
    squares = (data * data).tolist()
    bounds = counts.indptr.tolist()
    norms = np.array([math.sqrt(math.fsum(squares[a:b]))
                      for a, b in zip(bounds, bounds[1:])])
    data /= norms.repeat(np.diff(counts.indptr))
    return counts
