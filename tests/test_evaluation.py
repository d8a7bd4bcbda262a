"""Tests for ARI / AMI / NMI: known values, invariances, and property
sweeps.  Reference values were cross-checked against scikit-learn's
implementations (same conventions: noise is an ordinary label, AMI uses
arithmetic-mean normalization).  Also covers the label-equivalence
helpers of :mod:`repro.evaluation.labels`."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro

from conftest import assert_labels_equivalent
from repro.evaluation import (
    adjusted_mutual_information,
    adjusted_rand_index,
    canonical_labels,
    contingency_table,
    entropy,
    expected_mutual_information,
    labels_equivalent_up_to_relabeling,
    mutual_information,
    normalized_mutual_information,
    rand_index,
)

label_lists = st.lists(st.integers(-1, 4), min_size=2, max_size=40)


class TestContingency:
    def test_table_values(self):
        table, rows, cols = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
        assert table.tolist() == [[1, 1], [0, 2]]
        assert rows.tolist() == [2, 2]
        assert cols.tolist() == [1, 3]

    def test_noise_is_its_own_cluster(self):
        table, rows, cols = contingency_table([-1, -1, 0], [0, 0, 0])
        assert table.shape == (2, 1)
        assert rows.tolist() == [2, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table([0, 1], [0])

    def test_entropy_uniform(self):
        assert entropy(np.array([5, 5])) == pytest.approx(np.log(2))

    def test_entropy_degenerate(self):
        assert entropy(np.array([10])) == 0.0
        assert entropy(np.array([])) == 0.0

    def test_mutual_information_identical(self):
        table, rows, cols = contingency_table([0, 0, 1, 1], [0, 0, 1, 1])
        assert mutual_information(table) == pytest.approx(np.log(2))


class TestARI:
    def test_perfect(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_permutation_of_label_names(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_sklearn_reference_value(self):
        # sklearn.metrics.adjusted_rand_score([0,0,1,2],[0,0,1,1]) == 0.5714285714...
        value = adjusted_rand_index([0, 0, 1, 2], [0, 0, 1, 1])
        assert value == pytest.approx(0.5714285714285714)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=3000)
        b = rng.integers(0, 3, size=3000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_can_be_negative(self):
        # Anti-correlated partitions score below chance.
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert adjusted_rand_index(a, b) < 0.0 or adjusted_rand_index(a, b) == pytest.approx(-0.5)

    def test_single_cluster_both(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0

    def test_rand_index_known(self):
        # RI([0,0,1,1],[0,1,0,1]) = 2 agreements / 6 pairs
        assert rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(2.0 / 6.0)

    @given(label_lists)
    @settings(max_examples=60, deadline=None)
    def test_self_ari_is_one(self, labels):
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    @given(label_lists)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, labels):
        rng = np.random.default_rng(0)
        other = rng.integers(0, 3, size=len(labels)).tolist()
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(other, labels)
        )


class TestAMI:
    def test_perfect(self):
        assert adjusted_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(
            1.0
        )

    def test_emi_matches_permutation_model(self):
        """EMI must equal the average MI over random relabelings of one
        side (the permutation null model), estimated by Monte Carlo."""
        rng = np.random.default_rng(0)
        a = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 1, 0, 2])
        b = np.array([0, 1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2])
        table, rows, cols = contingency_table(a, b)
        emi = expected_mutual_information(rows, cols)
        samples = []
        for _ in range(4000):
            perm = rng.permutation(len(b))
            t, _, _ = contingency_table(a, b[perm])
            samples.append(mutual_information(t))
        assert emi == pytest.approx(float(np.mean(samples)), abs=0.02)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=800)
        b = rng.integers(0, 4, size=800)
        assert abs(adjusted_mutual_information(a, b)) < 0.05

    def test_degenerate_both_single(self):
        assert adjusted_mutual_information([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_single_one_split(self):
        value = adjusted_mutual_information([0, 0, 0, 0], [0, 0, 1, 1])
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_emi_positive(self):
        _, rows, cols = contingency_table([0, 0, 1, 1, 2], [0, 1, 1, 2, 2])
        emi = expected_mutual_information(rows, cols)
        assert emi > 0.0
        mi = mutual_information(contingency_table([0, 0, 1, 1, 2], [0, 1, 1, 2, 2])[0])
        assert emi <= mi + 1e-9 or emi >= 0  # EMI is a baseline, MI-EMI can be small

    def test_emi_empty(self):
        assert expected_mutual_information(np.array([]), np.array([])) == 0.0

    @given(label_lists)
    @settings(max_examples=30, deadline=None)
    def test_self_ami_is_one_or_degenerate(self, labels):
        value = adjusted_mutual_information(labels, labels)
        n_labels = len(set(labels))
        if 1 < n_labels < len(labels):
            assert value == pytest.approx(1.0)
        else:
            # Degenerate partitions: the convention returns 1.0 (both
            # trivial) which is still fine for self-comparison.
            assert value == pytest.approx(1.0) or abs(value) < 1e-9


class TestNMI:
    def test_perfect(self):
        assert normalized_mutual_information([0, 1, 2], [2, 0, 1]) == pytest.approx(1.0)

    def test_hand_computed_reference_value(self):
        # H(a)=ln2, H(b)=1.5 ln2, MI=ln2 => arithmetic NMI = 1/1.25 = 0.8
        value = normalized_mutual_information([0, 0, 1, 1], [0, 0, 1, 2])
        assert value == pytest.approx(0.8)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=100)
        b = rng.integers(0, 3, size=100)
        assert 0.0 <= normalized_mutual_information(a, b) <= 1.0


def test_evaluation_and_cli_import_without_scipy():
    """scipy is not a dependency: ``repro.evaluation`` and the CLI
    (``cluster``, ``bench-diff``) import with it blocked."""
    code = textwrap.dedent(
        """
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{name} is blocked")
                return None

        sys.meta_path.insert(0, BlockScipy())
        import repro.cli
        from repro.evaluation import adjusted_mutual_information

        print(round(adjusted_mutual_information([0, 0, 1, 1], [1, 1, 0, 0]), 12))
        """
    )
    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.0"


class TestLabelEquivalence:
    def test_canonical_form(self):
        labels = np.array([5, 5, -1, 2, 2, 5, -7])
        assert canonical_labels(labels).tolist() == [0, 0, -1, 1, 1, 0, -1]

    def test_equivalence_accepts_relabeling(self):
        a = np.array([0, 0, 1, 1, -1, 2])
        b = np.array([9, 9, 4, 4, -1, 0])
        assert labels_equivalent_up_to_relabeling(a, b)

    def test_equivalence_rejects_different_partitions(self):
        a = np.array([0, 0, 1, 1])
        assert not labels_equivalent_up_to_relabeling(a, np.array([0, 0, 0, 1]))
        assert not labels_equivalent_up_to_relabeling(a, np.array([0, 0, 1, -1]))
        assert not labels_equivalent_up_to_relabeling(a, np.array([0, 0, 1]))

    def test_all_noise(self):
        assert labels_equivalent_up_to_relabeling(
            np.array([-1, -1]), np.array([-1, -1])
        )

    def test_assert_helper_raises_with_diagnostics(self):
        with pytest.raises(AssertionError, match="not a relabeling"):
            assert_labels_equivalent(
                np.array([0, 0, 1]), np.array([0, 1, 1])
            )
