"""Sequence-space plumbing: encoding, enumeration, joints, file format."""

import json
import math

import numpy as np
import pytest
from helpers import onehot_state, sequences

from mcbridge.discrete import (
    EnumerationLimitError,
    JointDist,
    TokenSequence,
    checked_keys,
    checked_rows,
    index_matrix,
    inverse_cdf,
    make_joint,
    mean_se,
    onehot,
    onehot_matrix,
    onehot_tokens,
    token_index,
    token_rows,
    token_sequences,
)
from mcbridge.metrics import empirical_tv, oracle_nll, unigram_entropy, unigram_entropy_se


class TestEncodeDecode:
    def test_single_token(self):
        np.testing.assert_array_equal(onehot([0], 2), [1.0, 0.0])

    def test_two_tokens(self):
        np.testing.assert_array_equal(onehot([1, 0], 2), [0.0, 1.0, 1.0, 0.0])

    def test_round_trip_exhaustive(self):
        for toks in sequences(4, 3):
            decoded, exact = onehot_tokens(onehot_state(toks, 4)[None, :], 4)
            assert tuple(decoded[0].tolist()) == toks and exact[0]

    def test_argmax_block(self):
        assert tuple(onehot_tokens(np.array([[0.2, 0.5, 0.3]]), 3)[0][0]) == (1,)

    def test_tie_breaks_low_index(self):
        assert tuple(onehot_tokens(np.array([[0.5, 0.5]]), 2)[0][0]) == (0,)

    def test_rejects_bad_token(self):
        with pytest.raises(ValueError):
            TokenSequence(tokens=(3,), vocab=3)


class TestSampleConversions:
    def test_rows_round_trip_in_order_and_equal_rows_share_one_object(self):
        rows = np.array([[2, 0], [1, 1], [2, 0], [0, 2], [1, 1], [2, 0]])
        seqs = token_sequences(rows, 3)
        assert [s.tokens for s in seqs] == [tuple(r) for r in rows.tolist()]
        assert all(type(t) is int for s in seqs for t in s.tokens)
        assert seqs[0] is seqs[2] is seqs[5] and seqs[1] is seqs[4]
        assert len({id(s) for s in seqs}) == 3
        back, vocab = token_rows(seqs, 2)
        np.testing.assert_array_equal(back, rows)
        assert vocab == 3

    def test_vocabulary_is_the_largest_among_the_samples(self):
        assert token_rows([TokenSequence((0, 1), 2), TokenSequence((4, 0), 5), TokenSequence((1, 1), 3)])[1] == 5

    def test_enumeration_is_every_index_row(self):
        seqs = token_sequences(index_matrix(3, 3), 3)
        assert seqs == [TokenSequence.from_index(i, 3, 3) for i in range(27)]
        np.testing.assert_array_equal(token_rows(seqs)[0], sequences(3, 3))

    def test_empty_list_raises_the_old_message(self, copy3x2):
        for call in (lambda: token_rows([]), lambda: unigram_entropy([]), lambda: unigram_entropy_se([]),
                     lambda: empirical_tv([], copy3x2), lambda: oracle_nll([], copy3x2)):
            with pytest.raises(ValueError, match="^empty sample list$"):
                call()

    def test_wrong_length_raises_the_old_message(self, copy3x2):
        seqs = [TokenSequence((0, 1, 2), 3)]
        for call in (lambda: token_rows(seqs, 2), lambda: empirical_tv(seqs, copy3x2),
                     lambda: oracle_nll(seqs, copy3x2)):
            with pytest.raises(ValueError, match="^samples have length 3, law has 2$"):
                call()
        assert token_rows(seqs)[0].shape == (1, 3)

    def test_another_vocabulary_raises_naming_both(self, uniform3x2):
        # the tokens of (0, 4) over V = 5 would otherwise index (1, 1) of a V = 3 law
        mixed = [TokenSequence((1, 1), 3)] * 2 + [TokenSequence((0, 4), 5)]
        for seqs in ([TokenSequence((0, 4), 5)], [TokenSequence((4, 0), 5)], mixed):
            for call in (lambda: token_rows(seqs, 2, 3), lambda: empirical_tv(seqs, uniform3x2),
                         lambda: oracle_nll(seqs, uniform3x2)):
                with pytest.raises(ValueError, match="^samples have vocabulary 5, law has 3$"):
                    call()
        with pytest.raises(ValueError, match="^samples have vocabulary 2, law has 3$"):
            empirical_tv([TokenSequence((1, 1), 2)], uniform3x2)
        assert token_rows([TokenSequence((0, 4), 5)])[1] == 5

    def test_inverse_cdf_matches_the_searchsorted_expression(self):
        # ten cells of 0.1 sum to 1 - 1.1e-16, so uniforms above cdf[-1] exist; a
        # zero cell repeats its CDF entry
        probs = np.array([0.1] * 4 + [0.0] + [0.1] * 6)
        cdf = np.cumsum(probs)
        assert cdf[-1] < 1.0
        u = np.concatenate([
            cdf, [0.0, np.nextafter(cdf[-1], 1.0), np.nextafter(1.0, 0.0)],
            np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), np.random.default_rng(0).random(1000),
        ])
        expected = np.minimum(np.searchsorted(cdf, u, side="left"), cdf.size - 1)
        np.testing.assert_array_equal(inverse_cdf(cdf, u), expected)
        assert inverse_cdf(cdf, cdf[3:4])[0] == 3 and inverse_cdf(cdf, cdf[4:5])[0] == 3
        assert inverse_cdf(cdf, np.array([np.nextafter(1.0, 0.0)]))[0] == 10

    def test_sample_indices_draws_one_uniform_each_through_inverse_cdf(self, dirichlet3x2):
        got = dirichlet3x2.sample_indices(np.random.default_rng(5), 5000)
        u = np.random.default_rng(5).random(5000)
        expected = np.minimum(np.searchsorted(np.cumsum(dirichlet3x2.probs), u, side="left"), 8)
        np.testing.assert_array_equal(got, expected)

    def test_decode_matches_the_per_block_argmax_ties_included(self):
        # entries in {0, 1, 2} tie within most 4-token blocks; the first maximum wins
        states = np.random.default_rng(3).integers(0, 3, (2000, 12)).astype(float)
        states[0] = 1.0
        expected = np.argmax(states.reshape(2000, 3, 4), axis=2)
        np.testing.assert_array_equal(onehot_tokens(states, 4)[0], expected)
        assert tuple(onehot_tokens(states, 4)[0][0]) == (0, 0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 2049])
    def test_mean_se_reproduces_the_written_out_formulas(self, n):
        vals = 0.7 + 1e-3 * np.random.default_rng(n).standard_normal(n)
        mean, se = mean_se(vals)
        assert type(mean) is float and type(se) is float
        assert mean == float(vals.mean())
        # oracle_nll and unigram_entropy_se
        assert se == (float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0)
        if n > 1:
            # kernel_kl_estimate (over its finite ratios) and a gap node (over n_mc samples)
            assert se == float(vals.std(ddof=1) / math.sqrt(n))
        else:
            assert se == 0.0


class TestEnumeration:
    def test_binary_singletons(self):
        assert index_matrix(2, 1).tolist() == [[0], [1]]

    def test_base3_indexing(self):
        toks = index_matrix(3, 2)
        assert len(toks) == 9
        assert toks[5].tolist() == [1, 2]
        assert TokenSequence.from_index(5, 3, 2).tokens == (1, 2)

    def test_count_and_uniqueness(self):
        toks = index_matrix(4, 3)
        assert toks.shape == (64, 3)
        assert len({tuple(row) for row in toks.tolist()}) == 64
        np.testing.assert_array_equal(toks, sequences(4, 3))

    def test_index_round_trip(self):
        for i, toks in enumerate(sequences(3, 3)):
            seq = TokenSequence(toks, 3)
            assert seq.index == i
            assert TokenSequence.from_index(i, 3, 3) == seq

    def test_cap(self):
        with pytest.raises(EnumerationLimitError):
            index_matrix(10, 5)
        with pytest.raises(EnumerationLimitError):
            make_joint("uniform", 9, 4)  # 6561 > DEFAULT_ENUM_CAP

    @pytest.mark.parametrize("vocab, length", [(3, 2), (4, 3)])
    def test_onehot_and_token_index_match_encode(self, vocab, length):
        # the encoding written out: itertools enumeration and one-hot set block by block
        seqs = sequences(vocab, length)
        toks = np.array(seqs)
        for i, row in enumerate(toks):
            np.testing.assert_array_equal(onehot(row, vocab), onehot_state(seqs[i], vocab))
            assert token_index(row, vocab) == i == TokenSequence(seqs[i], vocab).index
        np.testing.assert_array_equal(onehot(toks, vocab), np.stack([onehot_state(s, vocab) for s in seqs]))
        np.testing.assert_array_equal(token_index(toks, vocab), np.arange(len(seqs)))

    def test_onehot_matrix_rows(self):
        mat = onehot_matrix(3, 2)
        for i, toks in enumerate(sequences(3, 2)):
            np.testing.assert_array_equal(mat[i], onehot_state(toks, 3))

    def test_index_matrix(self):
        toks = index_matrix(3, 2)
        assert toks[5].tolist() == [1, 2]


class TestCheckedRows:
    def test_returns_float_rows(self):
        rows = checked_rows([[0, 1], [1, 0]], 1e-12)
        assert rows.dtype == float
        np.testing.assert_array_equal(rows, [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match=r"table must be 2-d, got shape \(2,\)"):
            checked_rows(np.array([0.5, 0.5]), 1e-12, "table")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_non_finite_or_negative_entries(self, bad):
        with pytest.raises(ValueError, match="table entries must be finite and nonnegative"):
            checked_rows(np.array([[bad, 1.0]]), 1e-12, "table")

    def test_row_sums_within_the_callers_tolerance(self):
        rows = np.array([[0.5, 0.5 + 1e-11]])
        assert checked_rows(rows, 1e-10) is not None
        with pytest.raises(ValueError, match="each row of rows must sum to 1 within 1e-12"):
            checked_rows(rows, 1e-12)


class TestMakeJoint:
    def test_uniform(self):
        nu = make_joint("uniform", 2, 2)
        np.testing.assert_allclose(nu.probs, 0.25)

    def test_copy_support(self):
        nu = make_joint("copy", 3, 2)
        support = np.nonzero(nu.probs)[0].tolist()
        assert support == [0, 4, 8]
        np.testing.assert_allclose(nu.probs[support], 1.0 / 3.0)

    def test_product_entry(self):
        marg = np.array([[0.7, 0.3], [0.7, 0.3]])
        nu = make_joint("product", 2, 2, marginals=marg)
        idx = TokenSequence(tokens=(0, 1), vocab=2).index
        np.testing.assert_allclose(nu.probs[idx], 0.21, rtol=1e-14)

    def test_product_rejects_bad_marginals(self):
        with pytest.raises(ValueError):
            make_joint("product", 2, 2, marginals=np.array([[0.7, 0.4], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_product_rejects_non_finite_marginals(self, bad):
        with pytest.raises(ValueError, match="marginals entries must be finite"):
            make_joint("product", 2, 2, marginals=np.array([[bad, 1.0], [0.5, 0.5]]))

    def test_dirichlet_normalized(self):
        nu = make_joint("dirichlet", 3, 2, seed=0, alpha=1.0)
        assert abs(nu.probs.sum() - 1.0) < 1e-12
        assert np.all(nu.probs >= 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_dirichlet_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            make_joint("dirichlet", 3, 2, seed=0, alpha=alpha)

    @pytest.mark.parametrize("seed", [True, 1.5, "1"])
    def test_dirichlet_rejects_non_int_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            make_joint("dirichlet", 3, 2, seed=seed)

    def test_dirichlet_seeded(self):
        a = make_joint("dirichlet", 3, 2, seed=11)
        b = make_joint("dirichlet", 3, 2, seed=11)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_every_kind_sums_to_one(self):
        marg = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        for nu in (
            make_joint("uniform", 2, 3),
            make_joint("copy", 2, 3),
            make_joint("product", 2, 3, marginals=marg),
            make_joint("dirichlet", 2, 3, seed=5, alpha=0.3),
        ):
            assert abs(nu.probs.sum() - 1.0) < 1e-12
            assert np.all(nu.probs >= 0.0)


class TestJointDist:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDist(vocab=2, length=1, probs=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            JointDist(vocab=2, length=1, probs=np.array([-0.1, 1.1]))

    def test_lookup_consistency(self):
        nu = make_joint("dirichlet", 3, 2, seed=1)
        for i, toks in enumerate(sequences(3, 2)):
            assert nu.probs[TokenSequence(toks, 3).index] == nu.probs[i]

    def test_position_marginals_copy(self, copy3x2):
        np.testing.assert_allclose((copy3x2.probs @ onehot_matrix(3, 2)).reshape(2, 3), 1.0 / 3.0)

    def test_sampling_frequencies(self):
        nu = make_joint("dirichlet", 3, 2, seed=2)
        rng = np.random.default_rng(0)
        idx = nu.sample_indices(rng, 200_000)
        freq = np.bincount(idx, minlength=9) / idx.size
        se = np.sqrt(nu.probs * (1 - nu.probs) / idx.size)
        assert np.all(np.abs(freq - nu.probs) < 5 * se + 1e-12)

    def test_json_round_trip(self, tmp_path):
        nu = make_joint("dirichlet", 3, 2, seed=3)
        path = tmp_path / "dist.json"
        nu.save(path)
        doc = json.loads(path.read_text())
        assert doc["V"] == 3 and doc["L"] == 2 and len(doc["probs"]) == 9
        loaded = JointDist.load(path)
        np.testing.assert_array_equal(loaded.probs, nu.probs)

    def test_load_rejects_bad_sum(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"V": 2, "L": 1, "probs": [0.6, 0.6]}))
        with pytest.raises(ValueError):
            JointDist.load(path)


class TestCheckedKeys:
    DEFAULTS = {"x": 1.0, "n": 0, "xs": [0.5], "name": "a", "any": None}

    def test_converts_to_the_default_types(self):
        got = checked_keys(self.DEFAULTS, {"x": 2, "xs": [1, 2.5], "n": 3, "any": [1]}, "option")
        assert got == {"x": 2.0, "xs": [1.0, 2.5], "n": 3, "any": [1]}
        assert [type(v) for v in (got["x"], *got["xs"])] == [float, float, float]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"y": 1}, "unknown option 'y'"),
            ({"n": True}, "option 'n' must have the JSON type of 0"),
            ({"n": 1.5}, "option 'n' must have the JSON type of 0"),
            ({"name": 1}, "option 'name' must have the JSON type of 'a'"),
            ({"xs": [1.0, "b"]}, r"option 'xs' must have the JSON type of \[0.5\]"),
            ({"x": 10**400}, "option 'x' must be finite"),
            ({"x": -math.inf}, "option 'x' must be finite"),
            ({"xs": [1.0, math.nan]}, "option 'xs' must be finite"),
            ({"xs": [10**400]}, "option 'xs' must be finite"),
        ],
    )
    def test_rejects_naming_the_key(self, doc, message):
        with pytest.raises(ValueError, match=message):
            checked_keys(self.DEFAULTS, doc, "option")

    def test_required_key_missing(self):
        with pytest.raises(ValueError, match="option 'n' is missing"):
            checked_keys(self.DEFAULTS, {"x": 1.0}, "option", required=("x", "n"))
