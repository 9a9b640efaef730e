import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from refdoc import classifiers, features, pipeline
from refdoc.corpus import RefactoringType as RT
from refdoc.errors import EmptyCorpus
from refdoc.features import (
    FISHER_EPS,
    count_ngrams,
    extract_ngrams,
    fisher_scores,
    vectors_to_csr,
)
from refdoc.synthetic import generate_corpus
from refdoc.textprep import preprocess


def build_vocabulary(docs, labels, n_max, k_select):
    """Vocabulary of token lists, counted as pipeline.fit counts them."""
    ngrams, counts = pipeline.count_matrix([count_ngrams(d, n_max)
                                            for d in docs])
    return features.build_vocabulary(counts, ngrams, labels, n_max, k_select)


def vectorize(tokens, vocab):
    """The weighted row of one token list, as {column: weight}."""
    X = features.vectorize(
        vectors_to_csr([count_ngrams(tokens, vocab.n_max)], vocab.columns),
        vocab)
    return dict(zip(X.indices.tolist(), X.data.tolist()))


def ngram_ids(vocab):
    """n-gram -> feature id."""
    return {g: i for i, g in enumerate(vocab.ngrams)}


def two_doc_vocab():
    docs = [["extract", "method"], ["rename", "method"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    return docs, labels, build_vocabulary(docs, labels, n_max=1, k_select=10)


def brute_force_fisher(docs, labels, vocab):
    """Straightforward loop evaluation of the Fisher formula."""
    classes = sorted(set(labels), key=lambda t: t.value)
    n_docs = len(docs)
    index = ngram_ids(vocab)
    values = []
    for tokens in docs:
        counts = count_ngrams(tokens, vocab.n_max)
        values.append({index[g]: c * vocab.idf[index[g]]
                       for g, c in counts.items() if g in index})
    scores = []
    for j in range(len(vocab.ngrams)):
        mu_all = 0.0
        for i in range(n_docs):
            mu_all += values[i].get(j, 0.0)
        mu_all /= n_docs
        num = 0.0
        den = 0.0
        for cls in classes:
            rows = [i for i, lab in enumerate(labels) if lab == cls]
            n_k = len(rows)
            mu_k = 0.0
            for i in rows:
                mu_k += values[i].get(j, 0.0)
            mu_k /= n_k
            ss = 0.0
            for i in rows:
                d = values[i].get(j, 0.0) - mu_k
                ss += d * d
            diff = mu_k - mu_all
            num += n_k * (diff * diff)
            den += n_k * (ss / n_k)
        scores.append(num / (den + FISHER_EPS))
    return np.array(scores)


def brute_force_vectorize(tokens, vocab):
    """Positional row: column p holds feature selected[p]."""
    column = {int(f): p for p, f in enumerate(vocab.selected)}
    index = ngram_ids(vocab)
    weights = {}
    for n in range(1, vocab.n_max + 1):
        for i in range(len(tokens) - n + 1):
            gram = tuple(tokens[i:i + n])
            fid = index.get(gram)
            if fid in column:
                col = column[fid]
                weights[col] = weights.get(col, 0.0) + float(vocab.idf[fid])
    norm = math.sqrt(sum(w * w for w in weights.values()))
    if norm == 0.0:
        return {}
    return {col: w / norm for col, w in weights.items()}


def test_idf_matches_smoothing_formula():
    _, _, vocab = two_doc_vocab()
    index = ngram_ids(vocab)
    assert vocab.idf[index[("method",)]] == pytest.approx(1.0, abs=1e-12)
    assert vocab.idf[index[("extract",)]] == \
        pytest.approx(math.log(3 / 2) + 1, abs=1e-12)


def test_idf_floor_for_ubiquitous_feature():
    _, _, vocab = two_doc_vocab()
    assert vocab.idf[ngram_ids(vocab)[("method",)]] == 1.0
    assert np.all(vocab.idf >= 1.0)


def test_k_select_clamps_to_vocabulary_size():
    _, _, vocab = two_doc_vocab()
    assert set(int(f) for f in vocab.selected) == set(range(len(vocab.ngrams)))


def test_vectorize_weights_and_normalization():
    docs, _, vocab = two_doc_vocab()
    vec = vectorize(["extract", "method"], vocab)
    pre = {vocab.columns[("extract",)]: math.log(3 / 2) + 1,
           vocab.columns[("method",)]: 1.0}
    norm = math.sqrt(sum(w * w for w in pre.values()))
    assert vec.keys() == pre.keys()
    for col, w in pre.items():
        assert vec[col] == pytest.approx(w / norm, abs=1e-12)


def test_vectorize_out_of_vocabulary_is_empty():
    _, _, vocab = two_doc_vocab()
    assert vectorize(["unheard", "words"], vocab) == {}


def test_vectorize_counts_duplicates():
    docs = [["move", "move"], ["rename", "name"]]
    labels = [RT.MOVE_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=10)
    col = vocab.columns[("move",)]
    vec = vectorize(["move", "move"], vocab)
    assert vec == {col: pytest.approx(1.0)}  # single nonzero, normalized
    # pre-normalization TF is 2: compare against a one-occurrence doc
    half = vectorize(["move", "oov"], vocab)
    assert half == {col: pytest.approx(1.0)}


def test_fisher_constant_feature_scores_zero():
    _, _, vocab = two_doc_vocab()
    assert vocab.fisher[ngram_ids(vocab)[("method",)]] == 0.0


def test_fisher_separating_feature_hits_epsilon_guard():
    _, _, vocab = two_doc_vocab()
    score = vocab.fisher[ngram_ids(vocab)[("extract",)]]
    assert np.isfinite(score)
    assert score > 1e9  # zero within-class variance forces a huge score


def test_fisher_matches_brute_force_on_toy_corpus():
    docs = [["extract", "method", "extract"], ["extract", "code"],
            ["rename", "method"], ["rename", "rename", "name"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=100)
    expected = brute_force_fisher(docs, labels, vocab)
    assert np.max(np.abs(vocab.fisher - expected)) <= 1e-9


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([], [], n_max=1, k_select=5)


def test_idf_monotone_in_document_frequency():
    docs = [["shared", "rare"], ["shared", "common"], ["shared", "common"],
            ["shared", "other"]]
    labels = [RT.MOVE_METHOD, RT.RENAME_METHOD, RT.RENAME_METHOD,
              RT.MOVE_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=50)
    for a in range(len(vocab.ngrams)):
        for b in range(len(vocab.ngrams)):
            if vocab.doc_freq[a] < vocab.doc_freq[b]:
                assert vocab.idf[a] > vocab.idf[b]


def test_selection_is_prefix_stable():
    docs = [["extract", "method", "code"], ["extract", "helper"],
            ["rename", "method"], ["rename", "name", "typo"],
            ["move", "method", "around"], ["move", "code"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD, RT.RENAME_METHOD,
              RT.RENAME_METHOD, RT.MOVE_METHOD, RT.MOVE_METHOD]
    big = build_vocabulary(docs, labels, n_max=2, k_select=50)
    for k in (1, 3, 5, 8):
        small = build_vocabulary(docs, labels, n_max=2, k_select=k)
        assert list(small.selected) == list(big.selected[:k])


def test_selected_ordering_fisher_desc_then_lexicographic():
    docs = [["alpha", "beta"], ["alpha", "gamma"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=10)
    ranked = [(vocab.fisher[f], vocab.ngrams[f]) for f in vocab.selected]
    for (fa, ga), (fb, gb) in zip(ranked, ranked[1:]):
        assert fa > fb or (fa == fb and ga < gb)


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_unigram_vectorization_is_order_invariant(tokens):
    docs = [["a", "b", "c"], ["c", "d", "e"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=20)
    forward = vectorize(list(tokens), vocab)
    backward = vectorize(list(reversed(tokens)), vocab)
    assert forward.keys() == backward.keys()
    for fid in forward:
        assert forward[fid] == pytest.approx(backward[fid], abs=1e-12)


@given(st.sampled_from("abcde"))
@settings(max_examples=20, deadline=None)
def test_bigram_vectorization_on_single_token_docs(token):
    docs = [["a", "b", "c"], ["c", "d", "e"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=50)
    forward = vectorize([token], vocab)
    backward = vectorize(list(reversed([token])), vocab)
    assert forward == backward


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
                min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_nonempty_vectors_have_unit_norm(docs):
    labels = [RT.EXTRACT_METHOD if i % 2 else RT.RENAME_METHOD
              for i in range(len(docs))]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=1000)
    for doc in docs:
        vec = vectorize(doc, vocab)
        if vec:
            norm = math.sqrt(sum(w * w for w in vec.values()))
            assert abs(norm - 1.0) <= 1e-9


def test_vectors_to_csr_positions():
    docs = [["move", "move", "code"], [], ["unknown", "code"]]
    index = {("code",): 0, ("move",): 1}
    X = vectors_to_csr([count_ngrams(d, 1) for d in docs], index)
    assert X.shape == (3, 2)
    assert [classifiers.dense_row(X, i).tolist() for i in range(3)] == \
        [[1.0, 2.0], [0.0, 0.0], [1.0, 0.0]]
    assert X.indices.tolist() == [0, 1, 0]   # ascending within each row


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12))
@settings(max_examples=100, deadline=None)
def test_vectorize_keys_are_ascending_columns(tokens):
    docs = [["a", "b", "c"], ["c", "d", "e"], ["a", "f"], ["e", "f", "b"]]
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=6)
    assert vocab.n_selected < len(vocab.ngrams)  # some n-grams unselected
    vec = vectorize(tokens, vocab)
    assert list(vec) == sorted(vec)
    assert all(0 <= col < vocab.n_selected for col in vec)
    expected = brute_force_vectorize(tokens, vocab)
    assert vec.keys() == expected.keys()
    for col, w in expected.items():
        assert vec[col] == pytest.approx(w, abs=1e-12)


def test_extract_ngrams_orders_unigrams_then_bigrams():
    assert extract_ngrams(["a", "b", "c"], 2) == \
        [("a",), ("b",), ("c",), ("a", "b"), ("b", "c")]


def reference_fisher_scores(counts, labels, idf):
    """The row-by-row Fisher loop that the block reductions replaced,
    kept verbatim (bar the checks) as the bit-exact reference."""
    n_docs, n_feat = counts.shape
    classes = sorted(set(labels), key=lambda t: t.value)
    block_width = 4096

    counts = sparse.csr_matrix((counts.data, counts.indices, counts.indptr),
                               shape=counts.shape)
    tfidf = counts.multiply(idf[np.newaxis, :]).tocsc()
    class_rows = {c: [i for i, lab in enumerate(labels) if lab == c]
                  for c in classes}

    scores = np.empty(n_feat, dtype=np.float64)
    for start in range(0, n_feat, block_width):
        stop = min(start + block_width, n_feat)
        block = np.asarray(tfidf[:, start:stop].todense())
        width = stop - start

        mu_all = np.zeros(width)
        for i in range(n_docs):            # dataset order, sequential
            mu_all += block[i]
        mu_all /= n_docs

        num = np.zeros(width)
        den = np.zeros(width)
        for c in classes:                  # canonical class order
            rows = class_rows[c]
            n_k = len(rows)
            mu_k = np.zeros(width)
            for i in rows:
                mu_k += block[i]
            mu_k /= n_k
            ss = np.zeros(width)
            for i in rows:
                d = block[i] - mu_k
                ss += d * d
            diff = mu_k - mu_all
            num += n_k * (diff * diff)
            den += n_k * (ss / n_k)
        scores[start:stop] = num / (den + FISHER_EPS)
    return scores


def vocab_counts(docs, vocab):
    """docs x n-grams count matrix in the vocabulary's feature ids."""
    return vectors_to_csr([count_ngrams(t, vocab.n_max) for t in docs],
                          ngram_ids(vocab))


@pytest.mark.parametrize("seed", range(6))
def test_fisher_scores_bit_equal_to_row_by_row_loop(seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(60)]
    classes = list(RT)[:int(rng.integers(2, 7))]
    docs = [[str(w) for w in rng.choice(words, size=int(rng.integers(1, 9)))]
            for _ in range(int(rng.integers(150, 300)))]
    labels = [classes[i % len(classes)] if i < len(classes)
              else classes[int(rng.integers(len(classes)))]
              for i in range(len(docs))]   # every class, rows interleaved
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=10 ** 6)
    assert len(vocab.ngrams) > 2 * 256   # three blocks or more
    expected = reference_fisher_scores(vocab_counts(docs, vocab), labels,
                                       vocab.idf)
    assert np.array_equal(vocab.fisher, expected)


def dense_to_csr(dense):
    S = sparse.csr_matrix(dense.astype(np.float64))
    return features.CSR(S.indptr, S.indices, S.data, S.shape)


def test_fisher_scores_bit_equal_with_one_column_slabs():
    # 257 columns: class 0 has an entry in all of them (257 = 256 + 1),
    # class 1 in exactly one, class 2 in every other one; rows interleaved
    rng = np.random.default_rng(7)
    n_rows, n_feat = 600, 257
    dense = np.zeros((n_rows, n_feat), dtype=np.int64)
    labels = [list(RT)[i % 3] for i in range(n_rows)]
    for k, cols in enumerate([np.arange(n_feat), np.array([200]),
                              np.arange(0, n_feat, 2)]):
        rows = np.arange(k, n_rows, 3)
        block = rng.integers(1, 4, size=(len(rows), len(cols)))
        block *= rng.random(block.shape) < 0.3
        block[rng.integers(len(rows), size=len(cols)),
              np.arange(len(cols))] = 1   # every column gets an entry
        dense[np.ix_(rows, cols)] = block
    counts = dense_to_csr(dense)
    idf = 1.0 + rng.random(n_feat)
    assert np.array_equal(fisher_scores(counts, labels, idf),
                          reference_fisher_scores(counts, labels, idf))


@st.composite
def class_count_matrices(draw):
    """(counts, labels): random counts where each class has entries in
    its own set of columns, often 1 or 256k + 1 of them, with some rows
    repeated and the classes' rows interleaved."""
    n_feat = draw(st.one_of(st.sampled_from([1, 2, 256, 257, 513]),
                            st.integers(1, 600)))
    n_classes = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, labels = [], []
    for c in list(RT)[:n_classes]:
        n_active = min(n_feat, draw(st.one_of(
            st.sampled_from([1, 2, 255, 256, 257, 513]),
            st.integers(1, n_feat))))
        cols = rng.choice(n_feat, size=n_active, replace=False)
        block = np.zeros((draw(st.integers(1, 30)), n_feat), dtype=np.int64)
        block[:, cols] = rng.integers(1, 4, size=(len(block), n_active)) * (
            rng.random((len(block), n_active)) < draw(st.sampled_from(
                [0.05, 0.3, 1.0])))
        block[rng.integers(len(block), size=n_active), cols] = 1
        repeats = rng.integers(1, 4, size=len(block))
        rows.extend(np.repeat(block, repeats, axis=0))
        labels.extend([c] * int(repeats.sum()))
    order = rng.permutation(len(rows))
    return (dense_to_csr(np.array(rows)[order]),
            [labels[i] for i in order])


@given(class_count_matrices(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_fisher_scores_bit_equal_on_random_count_matrices(matrix, seed):
    counts, labels = matrix
    idf = 1.0 + np.random.default_rng(seed).random(counts.shape[1])
    assert np.array_equal(fisher_scores(counts, labels, idf),
                          reference_fisher_scores(counts, labels, idf))


def test_fisher_scores_traced_peak_on_the_paper_sized_corpus():
    dataset = generate_corpus(per_class=834)
    docs = [preprocess(r.message) for r in dataset]
    labels = [r.label for r in dataset]
    vocab = build_vocabulary(docs, labels, n_max=2, k_select=5000)
    counts = vocab_counts(docs, vocab)
    tracemalloc.start()
    try:
        fisher_scores(counts, labels, vocab.idf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def reference_ranking(ngrams, fisher, k_select):
    """The Python-sort ranking that the stable argsort replaced, verbatim."""
    order = sorted(range(len(ngrams)), key=lambda j: (-fisher[j], ngrams[j]))
    return np.array(order[:min(k_select, len(ngrams))], dtype=np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_selection_equals_the_python_sort_ranking(seed):
    # every document appears several times, so many n-grams tie exactly
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(25)]
    base = [[str(w) for w in rng.choice(words, size=int(rng.integers(1, 6)))]
            for _ in range(30)]
    docs = [d for d in base for _ in range(int(rng.integers(2, 5)))]
    classes = list(RT)[:3]
    labels = [classes[i % 3] for i in range(len(docs))]
    for k_select in (10, 10 ** 6):
        vocab = build_vocabulary(docs, labels, n_max=2, k_select=k_select)
        _, tie_counts = np.unique(vocab.fisher, return_counts=True)
        assert tie_counts.max() > 1
        assert np.array_equal(vocab.selected, reference_ranking(
            vocab.ngrams, vocab.fisher, k_select))


# ---------------------------------------------------------------------------
# the count-matrix path against the dict path it replaced
# ---------------------------------------------------------------------------

def reference_vocabulary_from_counts(doc_counts, labels, n_max, k_select):
    """Index every n-gram of the count dicts, weight it, rank-select top k.

    Requires one label per document and at least one document. idf uses the
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

    ngrams = sorted(set().union(*doc_counts))
    if not ngrams:
        raise EmptyCorpus("every document is empty after preprocessing")
    index = {g: i for i, g in enumerate(ngrams)}
    counts = reference_vectors_to_csr(
        [{index[g]: c for g, c in dc.items()} for dc in doc_counts],
        len(ngrams))

    doc_freq = np.bincount(counts.indices, minlength=len(ngrams))
    idf = np.log((1.0 + len(doc_counts)) / (1.0 + doc_freq)) + 1.0
    fisher = fisher_scores(counts, labels, idf)

    # ngrams is sorted, so a stable sort breaks score ties lexicographically
    selected = np.argsort(-fisher, kind="stable")[:k_select].astype(np.int64)
    return features.Vocabulary(
        ngrams=ngrams, doc_freq=doc_freq, idf=idf, fisher=fisher,
        selected=selected, n_max=n_max, k_select=k_select,
    )


def reference_weigh(counts, vocab):
    """Positional TF-IDF row of one doc's n-gram counts: {column: weight}.

    weight = count(g in doc) * idf(g) for each selected n-gram g, at g's
    column, then the row is L2-normalized and ordered by column.
    Out-of-vocabulary and unselected n-grams are ignored; an all-zero doc
    yields the empty row.
    """
    weights = {}
    for gram, count in counts.items():
        col = vocab.columns.get(gram)
        if col is not None:
            weights[col] = count * vocab.column_idf[col]
    if not weights:
        return {}
    norm = math.sqrt(math.fsum(w * w for w in weights.values()))
    return {col: weights[col] / norm for col in sorted(weights)}


def reference_vectors_to_csr(rows, n_columns):
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


def reference_fold(doc_counts, labels, train_idx, test_idx, config):
    """(vocab, train rows, test rows) of one fold by the dict path."""
    train = [doc_counts[i] for i in train_idx]
    vocab = reference_vocabulary_from_counts(
        train, [labels[i] for i in train_idx], config.n_max, config.k_select)
    rows = [reference_vectors_to_csr(
                [reference_weigh(c, vocab) for c in part], vocab.n_selected)
            for part in (train, [doc_counts[i] for i in test_idx])]
    return vocab, rows[0], rows[1]


def matrix_fold(doc_counts, labels, train_idx, test_idx, config):
    """(vocab, train rows, test rows) of one fold as cross_validate takes
    them: fit_counts on the shared count matrix, then predict_counts."""
    ngrams, counts = pipeline.count_matrix(doc_counts)
    rows = []
    original = features.vectorize

    def recording(counts, vocab):
        rows.append(original(counts, vocab))
        return rows[-1]

    features.vectorize = recording
    try:
        model = pipeline.fit_counts(
            features.select_rows(counts, train_idx), ngrams,
            [labels[i] for i in train_idx], config)
        pipeline.predict_counts(model, [doc_counts[i] for i in test_idx])
    finally:
        features.vectorize = original
    assert len(rows) == 2
    return model.vocab, rows[0], rows[1]


def assert_same_fold(got, expected):
    vocab, train, test = got
    ref_vocab, ref_train, ref_test = expected
    assert vocab.ngrams == ref_vocab.ngrams
    for name in ("doc_freq", "idf", "fisher", "selected"):
        a, b = getattr(vocab, name), getattr(ref_vocab, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for X, ref in ((train, ref_train), (test, ref_test)):
        assert X.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(X, name), getattr(ref, name)), name


def test_matrix_path_equals_dict_path_on_every_fold():
    from refdoc.evaluation import stratified_folds
    dataset = generate_corpus(per_class=60)
    labels = [r.label for r in dataset]
    config = classifiers.ModelConfig(algorithm="nb")
    doc_counts = [pipeline.featurize(r.message, config.n_max)
                  for r in dataset]
    all_idx = np.arange(len(labels))
    for test_idx in stratified_folds(labels, 10, seed=0):
        train_idx = np.setdiff1d(all_idx, test_idx)
        assert_same_fold(
            matrix_fold(doc_counts, labels, train_idx, test_idx, config),
            reference_fold(doc_counts, labels, train_idx, test_idx, config))


@given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=8),
                min_size=4, max_size=12),
       st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=8),
                min_size=1, max_size=6),
       st.integers(1, 3), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_matrix_path_equals_dict_path_on_token_corpora(train_docs, test_docs,
                                                       n_max, k_select):
    # empty documents are drawn, and "g" and "h" occur only in test rows
    assume(any(train_docs))
    docs = train_docs + test_docs
    labels = [(RT.EXTRACT_METHOD, RT.RENAME_METHOD)[i % 2]
              for i in range(len(docs))]
    config = classifiers.ModelConfig(algorithm="nb", n_max=n_max,
                                     k_select=k_select)
    doc_counts = [count_ngrams(d, n_max) for d in docs]
    train_idx = np.arange(len(train_docs))
    test_idx = np.arange(len(train_docs), len(docs))
    assert_same_fold(
        matrix_fold(doc_counts, labels, train_idx, test_idx, config),
        reference_fold(doc_counts, labels, train_idx, test_idx, config))
