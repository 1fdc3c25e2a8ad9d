"""Tests for feature extraction, error-trace mining, and the discriminators."""

import numpy as np
import pytest

from repro.data.basis import digits_to_state
from repro.discriminators import (
    Discriminator,
    FNNBaseline,
    HerqulesDiscriminator,
    MatchedFilterFeatureExtractor,
    MLRDiscriminator,
    detect_leakage_clusters,
    tag_error_traces,
)
from repro.discriminators.error_traces import state_centroids
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.ml import stratified_split
from repro.ml.metrics import per_qubit_fidelity


@pytest.fixture(scope="module")
def split(tiny_corpus):
    return stratified_split(tiny_corpus.labels, 0.5, seed=11)


@pytest.fixture(scope="module")
def fitted_mlr(tiny_corpus, split):
    train, _ = split
    disc = MLRDiscriminator(epochs=60, learning_rate=3e-3, seed=1)
    disc.fit(tiny_corpus, train)
    return disc


class TestErrorTraces:
    def test_centroids_shape(self, rng):
        pts = rng.normal(size=(30, 2))
        labels = np.repeat([0, 1, 2], 10)
        cents = state_centroids(pts, labels, 3)
        assert cents.shape == (3, 2)

    def test_missing_level_rejected(self, rng):
        pts = rng.normal(size=(10, 2))
        with pytest.raises(DataError):
            state_centroids(pts, np.zeros(10, int), 3)

    def test_tagging_finds_planted_errors(self, rng):
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        pts = np.vstack(
            [rng.normal(c, 0.2, size=(50, 2)) for c in centers]
        )
        labels = np.repeat([0, 1, 2], 50)
        # Plant relaxation errors: 5 traces labeled 1 sitting at centroid 0.
        pts[50:55] = rng.normal(centers[0], 0.2, size=(5, 2))
        masks = tag_error_traces(pts, labels, 3)
        assert masks[(1, 0)].sum() == 5
        assert masks[(0, 1)].sum() == 0

    def test_masks_partition_disagreements(self, rng):
        pts = rng.normal(size=(60, 2))
        labels = rng.integers(0, 3, size=60)
        try:
            masks = tag_error_traces(pts, labels, 3)
        except DataError:
            pytest.skip("random draw missed a level")
        for (prep, tgt), mask in masks.items():
            assert np.all(labels[mask] == prep)


class TestFeatureExtractor:
    def test_feature_count_matches_paper(self, tiny_corpus, split):
        train, _ = split
        ext = MatchedFilterFeatureExtractor().fit(tiny_corpus, train)
        features = ext.transform(tiny_corpus, train[:10])
        # 9 filters per qubit x 2 qubits.
        assert features.shape == (10, 18)
        assert ext.filters_per_qubit == 9
        assert len(ext.feature_names) == 18

    def test_herqules_feature_subset(self, tiny_corpus, split):
        train, _ = split
        ext = MatchedFilterFeatureExtractor(include_emf=False).fit(
            tiny_corpus, train
        )
        assert ext.filters_per_qubit == 6

    def test_features_separate_levels(self, tiny_corpus, split):
        train, test = split
        ext = MatchedFilterFeatureExtractor().fit(tiny_corpus, train)
        feats = ext.transform(tiny_corpus, test)
        lv = tiny_corpus.qubit_labels(0)[test]
        # qmf01 column of qubit 0 orders the level means.
        col = ext.feature_names.index("q0-qmf01")
        assert feats[lv == 1, col].mean() > feats[lv == 0, col].mean()

    def test_transform_before_fit_raises(self, tiny_corpus):
        ext = MatchedFilterFeatureExtractor()
        with pytest.raises(NotFittedError):
            ext.transform(tiny_corpus)

    def test_truncated_corpus_transform(self, tiny_corpus, split):
        train, test = split
        ext = MatchedFilterFeatureExtractor().fit(tiny_corpus, train)
        short = tiny_corpus.truncated(100)
        feats = ext.transform(short, test[:5])
        assert feats.shape == (5, 18)

    def test_longer_corpus_rejected(self, tiny_corpus, split):
        train, _ = split
        short = tiny_corpus.truncated(100)
        ext = MatchedFilterFeatureExtractor().fit(short, train)
        with pytest.raises(DataError):
            ext.transform(tiny_corpus, train[:5])

    def test_at_least_one_family_required(self):
        with pytest.raises(ConfigurationError):
            MatchedFilterFeatureExtractor(
                include_qmf=False, include_rmf=False, include_emf=False
            )


class TestDiscriminators:
    def test_mlr_learns_tiny_chip(self, tiny_corpus, split, fitted_mlr):
        _, test = split
        pred = fitted_mlr.predict(tiny_corpus, test)
        fid = per_qubit_fidelity(tiny_corpus.labels[test], pred, 2, 3)
        assert np.all(fid > 0.8)

    def test_mlr_parameter_count_is_small(self, fitted_mlr):
        # 2 qubits -> 18 features -> [18, 9, 4, 3] per qubit.
        assert fitted_mlr.n_parameters < 1000

    def test_mlr_joint_prediction_consistent_with_levels(
        self, tiny_corpus, split, fitted_mlr
    ):
        _, test = split
        levels = fitted_mlr.predict_qubit_levels(tiny_corpus, test)
        joint = fitted_mlr.predict(tiny_corpus, test)
        np.testing.assert_array_equal(digits_to_state(levels, 3), joint)

    def test_mlr_probabilities_normalized(self, tiny_corpus, split, fitted_mlr):
        _, test = split
        probs = fitted_mlr.predict_proba_qubit(0, tiny_corpus, test[:20])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_mlr_unfitted_predict_raises(self, tiny_corpus):
        with pytest.raises(NotFittedError):
            MLRDiscriminator().predict(tiny_corpus)

    def test_scaler_recalibration_keeps_networks(
        self, tiny_corpus, split, fitted_mlr
    ):
        train, test = split
        short = tiny_corpus.truncated(120)
        clone = fitted_mlr.with_recalibrated_scaler(short, train)
        assert clone.models is fitted_mlr.models
        assert clone.scaler is not fitted_mlr.scaler
        pred = clone.predict(short, test)
        fid = per_qubit_fidelity(tiny_corpus.labels[test], pred, 2, 3)
        assert np.all(fid > 0.6)

    def test_herqules_fits_and_predicts(self, tiny_corpus, split):
        train, test = split
        disc = HerqulesDiscriminator(epochs=40, learning_rate=3e-3, seed=2)
        disc.fit(tiny_corpus, train)
        pred = disc.predict(tiny_corpus, test)
        fid = per_qubit_fidelity(tiny_corpus.labels[test], pred, 2, 3)
        assert np.all(fid > 0.6)
        # Joint head: 30 features would be 5 qubits; here 12 -> 60 -> 120 -> 9.
        assert disc.model.n_classes == 9

    def test_fnn_fits_and_predicts(self, tiny_corpus, split):
        train, test = split
        disc = FNNBaseline(hidden_sizes=(64, 32), epochs=15, seed=3)
        disc.fit(tiny_corpus, train)
        pred = disc.predict(tiny_corpus, test)
        assert pred.shape == test.shape
        assert disc.n_parameters > 10_000

    def test_mlr_beats_herqules_on_leakage_heavy_chip(self, tiny_corpus, split):
        """The modular design should not lose to the joint head."""
        train, test = split
        ours = MLRDiscriminator(epochs=60, learning_rate=3e-3, seed=4)
        herq = HerqulesDiscriminator(epochs=60, learning_rate=3e-3, seed=4)
        ours.fit(tiny_corpus, train)
        herq.fit(tiny_corpus, train)
        fid_ours = per_qubit_fidelity(
            tiny_corpus.labels[test], ours.predict(tiny_corpus, test), 2, 3
        )
        fid_herq = per_qubit_fidelity(
            tiny_corpus.labels[test], herq.predict(tiny_corpus, test), 2, 3
        )
        assert fid_ours.mean() > fid_herq.mean() - 0.02


class TestLeakageDetection:
    def test_detects_natural_leakage(self, tiny_calibration):
        result = detect_leakage_clusters(tiny_calibration, 1, seed=5)
        assert result.n_true_leaked > 0
        assert result.recall > 0.5
        # Enrichment over the base rate.
        base_rate = result.n_true_leaked / tiny_calibration.n_traces
        assert result.precision > 3 * base_rate

    def test_kmeans_method_also_works(self, tiny_calibration):
        result = detect_leakage_clusters(
            tiny_calibration, 1, method="kmeans", seed=5
        )
        assert result.recall > 0.5

    def test_cluster_sizes_sum_to_shots(self, tiny_calibration):
        result = detect_leakage_clusters(tiny_calibration, 0, seed=6)
        assert int(result.cluster_sizes.sum()) == tiny_calibration.n_traces

    def test_rejects_three_level_corpus(self, tiny_corpus):
        with pytest.raises(DataError):
            detect_leakage_clusters(tiny_corpus, 0)

    def test_rejects_bad_method(self, tiny_calibration):
        with pytest.raises(ConfigurationError):
            detect_leakage_clusters(tiny_calibration, 0, method="dbscan")


class TestResolveIndices:
    def test_none_selects_all(self, tiny_corpus, fitted_mlr):
        assert fitted_mlr.predict(tiny_corpus).shape[0] == tiny_corpus.n_traces

    def test_negative_index_rejected(self, tiny_corpus, fitted_mlr):
        with pytest.raises(ValueError, match="non-negative"):
            fitted_mlr.predict(tiny_corpus, np.array([0, -1]))

    def test_out_of_range_index_rejected(self, tiny_corpus, fitted_mlr):
        with pytest.raises(ValueError, match="out of range"):
            fitted_mlr.predict(tiny_corpus, np.array([tiny_corpus.n_traces]))

    def test_non_1d_rejected(self, tiny_corpus, fitted_mlr):
        with pytest.raises(ValueError, match="1-D"):
            fitted_mlr.predict(tiny_corpus, np.array([[0, 1]]))

    def test_float_indices_rejected(self, tiny_corpus, fitted_mlr):
        with pytest.raises(ValueError, match="integers"):
            fitted_mlr.predict(tiny_corpus, np.array([0.5, 1.5]))

    def test_empty_selection_rejected(self, tiny_corpus, fitted_mlr):
        with pytest.raises(ValueError, match="at least one"):
            fitted_mlr.predict(tiny_corpus, np.array([], dtype=np.int64))

    def test_fit_validates_indices_too(self, tiny_corpus):
        with pytest.raises(ValueError, match="non-negative"):
            MLRDiscriminator(epochs=2).fit(tiny_corpus, np.array([-1, 5]))
        with pytest.raises(ValueError, match="out of range"):
            FNNBaseline(epochs=2).fit(
                tiny_corpus, np.array([tiny_corpus.n_traces])
            )


def _oracle_levels_and_margin(disc, corpus, indices):
    """Per-head MLPClassifier levels and the per-head np.sort top-2 margin."""
    x = disc.scaler.transform(disc.extractor.transform(corpus, indices))
    levels, margin_total = [], 0.0
    for q, model in enumerate(disc.models):
        head_x = disc._head_features(x, q)
        levels.append(model.predict(head_x))
        top2 = np.sort(model.predict_proba(head_x), axis=1)[:, -2:]
        margin_total += float(np.sum(top2[:, 1] - top2[:, 0]))
    levels = np.stack(levels, axis=1)
    return levels, margin_total / levels.size


class TestStackedHeads:
    """The serving pass (all heads stacked, scaler folded) against the
    per-head networks it replaces."""

    @pytest.fixture(scope="class", params=[True, False], ids=["neighbors", "own"])
    def disc(self, request, tiny_corpus, split):
        train, _ = split
        return MLRDiscriminator(
            neighbor_features=request.param, epochs=30, seed=4
        ).fit(tiny_corpus, train)

    def _assert_matches_oracle(self, disc, corpus, indices):
        raw = disc.extractor.transform(corpus, indices)
        levels, margin = disc.head_levels_and_margin(raw)
        oracle_levels, oracle_margin = _oracle_levels_and_margin(
            disc, corpus, indices
        )
        assert levels.dtype == np.int64
        assert np.array_equal(levels, oracle_levels)
        assert np.array_equal(levels, disc.predict_qubit_levels(corpus, indices))
        assert margin == pytest.approx(oracle_margin, abs=1e-12)

    def test_matches_per_head_networks(self, disc, tiny_corpus):
        self._assert_matches_oracle(
            disc, tiny_corpus, np.arange(tiny_corpus.n_traces)
        )

    def test_matches_after_artifact_roundtrip(self, disc, tiny_corpus, tmp_path):
        path = tmp_path / "mlr.npz"
        disc.save_artifacts(path)
        loaded = Discriminator.load_artifacts(path)
        self._assert_matches_oracle(
            loaded, tiny_corpus, np.arange(tiny_corpus.n_traces)
        )

    def test_matches_with_recalibrated_scaler(self, disc, tiny_corpus, split):
        train, _ = split
        short = tiny_corpus.truncated(tiny_corpus.trace_len // 2)
        recalibrated = disc.with_recalibrated_scaler(short, train)
        self._assert_matches_oracle(
            recalibrated, short, np.arange(short.n_traces)
        )
        # The original keeps the stack folded with its own scaler.
        self._assert_matches_oracle(
            disc, tiny_corpus, np.arange(tiny_corpus.n_traces)
        )


class TestArtifacts:
    def test_mlr_roundtrip_preserves_predictions(
        self, tiny_corpus, split, fitted_mlr, tmp_path
    ):
        _, test = split
        path = tmp_path / "mlr.npz"
        fitted_mlr.save_artifacts(path)
        loaded = Discriminator.load_artifacts(path)
        assert isinstance(loaded, MLRDiscriminator)
        assert loaded.n_parameters == fitted_mlr.n_parameters
        assert np.array_equal(
            loaded.predict(tiny_corpus, test), fitted_mlr.predict(tiny_corpus, test)
        )

    def test_herqules_roundtrip_preserves_predictions(
        self, tiny_corpus, split, tmp_path
    ):
        train, test = split
        disc = HerqulesDiscriminator(epochs=4, seed=2).fit(tiny_corpus, train)
        path = tmp_path / "herqules.npz"
        disc.save_artifacts(path)
        loaded = Discriminator.load_artifacts(path)
        assert isinstance(loaded, HerqulesDiscriminator)
        assert np.array_equal(
            loaded.predict(tiny_corpus, test), disc.predict(tiny_corpus, test)
        )

    def test_fnn_roundtrip_preserves_predictions(self, tiny_corpus, split, tmp_path):
        train, test = split
        disc = FNNBaseline(epochs=2, seed=3).fit(tiny_corpus, train)
        path = tmp_path / "fnn.npz"
        disc.save_artifacts(path)
        loaded = Discriminator.load_artifacts(path)
        assert isinstance(loaded, FNNBaseline)
        assert np.array_equal(
            loaded.predict(tiny_corpus, test), disc.predict(tiny_corpus, test)
        )

    def test_unfitted_export_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            MLRDiscriminator().save_artifacts(tmp_path / "x.npz")

    def test_load_on_wrong_subclass_rejected(self, fitted_mlr, tmp_path):
        path = tmp_path / "mlr.npz"
        fitted_mlr.save_artifacts(path)
        with pytest.raises(DataError, match="not a"):
            FNNBaseline.load_artifacts(path)

    def test_non_artifact_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(DataError, match="not a discriminator artifact"):
            Discriminator.load_artifacts(path)
