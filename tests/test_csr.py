"""The numpy CSR operations against scipy.sparse as the oracle.

refdoc keeps its matrices as three numpy arrays and a shape. Each
operation here must give arrays np.array_equal to what scipy gives for
the same matrix: the same entries in the same order, and the same bits
for the three bincount products, which add each bin's terms in storage
order from 0.0 as scipy's matvec kernels do.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from refdoc import features, logreg
from refdoc.naive_bayes import NaiveBayes


@st.composite
def matrices(draw):
    """A scipy CSR matrix of random shape and density, with values of
    mixed magnitude and, often, empty rows and columns."""
    n_rows = draw(st.integers(0, 14))
    n_cols = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(
        -3, 4, size=(n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) >= density] = 0.0
    if n_rows and draw(st.booleans()):
        dense[rng.integers(n_rows)] = 0.0
    if draw(st.booleans()):
        dense[:, rng.integers(n_cols)] = 0.0
    return sparse.csr_matrix(dense), rng


def as_csr(S):
    return features.CSR(S.indptr, S.indices, S.data, S.shape)


def assert_same_matrix(got, expected):
    assert tuple(got.shape) == expected.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), \
            name


def reference_vectors_to_csr(doc_counts, index):
    """vectors_to_csr as it was on scipy, verbatim."""
    indices, data, indptr = [], [], [0]
    for counts in doc_counts:
        for gram, count in counts.items():
            if gram in index:
                indices.append(index[gram])
                data.append(count)
        indptr.append(len(indices))
    X = sparse.csr_matrix((np.array(data, dtype=np.float64),
                           np.array(indices, dtype=np.int32),
                           np.array(indptr, dtype=np.int32)),
                          shape=(len(indptr) - 1, len(index)))
    X.sort_indices()
    return X


def reference_nb_mass(S, y_idx, n_classes):
    """NaiveBayes.fit's class sums as they were on scipy, verbatim."""
    mass = np.zeros((n_classes, S.shape[1]), dtype=np.float64)
    for c in range(n_classes):
        rows = np.flatnonzero(y_idx == c)
        if rows.size:
            mass[c] = np.asarray(S[rows].sum(axis=0)).ravel()
    return mass


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_vectors_to_csr_matches_scipy(case):
    S, rng = case
    n_rows, n_cols = S.shape
    # the dicts list each row's n-grams out of column order, plus one
    # n-gram the index lacks; the index maps gram j to column perm[j]
    perm = rng.permutation(n_cols)
    index = {("g", j): int(perm[j]) for j in range(n_cols)}
    doc_counts = []
    for i in range(n_rows):
        row = S.getrow(i)
        items = [(("g", int(j)), float(v))
                 for j, v in zip(row.indices, row.data)]
        items.append((("oov",), 1.0))
        doc_counts.append(dict(items[k] for k in rng.permutation(len(items))))
    assert_same_matrix(features.vectors_to_csr(doc_counts, index),
                       reference_vectors_to_csr(doc_counts, index))


def reference_sort_rows(X):
    """features._sort_rows as it was: one argsort of every entry's
    (row, column) key, whatever the number of rows."""
    order = np.argsort(features.row_ids(X) * X.shape[1] + X.indices)
    return features.CSR(X.indptr, X.indices[order], X.data[order], X.shape)


@given(matrices(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_sort_rows_matches_the_argsort_path(case, one_row):
    S, rng = case
    if one_row:  # a single row, as for one /predict message
        S = sparse.vstack([S, sparse.csr_matrix((1, S.shape[1]))]).tocsr()
        S = S[int(rng.integers(S.shape[0]))]
    shuffled = np.concatenate([
        start + rng.permutation(stop - start)
        for start, stop in zip(S.indptr[:-1], S.indptr[1:])] + [[]])
    shuffled = shuffled.astype(np.intp)
    X = features.CSR(S.indptr, S.indices.astype(np.intp)[shuffled],
                     S.data[shuffled], S.shape)
    got, expected = features._sort_rows(X), reference_sort_rows(X)
    assert_same_matrix(got, expected)
    assert got.indices.dtype == expected.indices.dtype
    assert got.data.dtype == expected.data.dtype


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_row_selection_matches_scipy(case, data):
    S, _ = case
    rows = data.draw(st.lists(st.integers(0, S.shape[0] - 1), max_size=20)
                     if S.shape[0] else st.just([]))
    rows = np.array(rows, dtype=np.int64)
    assert_same_matrix(features.select_rows(as_csr(S), rows), S[rows])


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_column_selection_with_resort_matches_scipy(case, data):
    S, _ = case
    columns = data.draw(st.lists(st.integers(0, S.shape[1] - 1),
                                 unique=True))
    expected = S[:, columns]
    expected.sort_indices()
    assert_same_matrix(features.select_columns(as_csr(S), columns), expected)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_column_view_matches_scipy_csc(case):
    S, _ = case
    indptr, rows, cols, vals = features.column_view(as_csr(S))
    C = S.tocsc()
    assert np.array_equal(indptr, C.indptr)
    assert np.array_equal(rows, C.indices)
    assert np.array_equal(cols, np.repeat(np.arange(S.shape[1]),
                                          np.diff(C.indptr)))
    assert np.array_equal(vals, C.data)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_bincount_products_match_scipy(case):
    S, rng = case
    n_rows, n_cols = S.shape
    entries = logreg._entries(as_csr(S))
    w = rng.normal(size=n_cols) * 10.0 ** rng.integers(-3, 4, size=n_cols)
    r = rng.normal(size=n_rows) * 10.0 ** rng.integers(-3, 4, size=n_rows)
    assert np.array_equal(logreg._margins(w, 0.0, entries), S @ w)
    assert np.array_equal(logreg._feature_sums(r, entries), S.T @ r)
    assert np.array_equal(logreg._feature_sums(r, entries),
                          S.T.tocsr() @ r)

    if n_rows:  # naive Bayes sums TF-IDF mass, which is never negative
        S = abs(S)
        n_classes = int(rng.integers(1, min(n_rows, 3) + 1))
        y_idx = rng.integers(0, n_classes, size=n_rows)
        y_idx[:n_classes] = np.arange(n_classes)
        alpha = 0.5
        model = NaiveBayes(alpha=alpha).fit(as_csr(S), y_idx, n_classes)
        smoothed = reference_nb_mass(S, y_idx, n_classes) + alpha
        expected = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        assert np.array_equal(model.log_theta, expected)
