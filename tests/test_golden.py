"""Cross-commit oracle: today's models against the numbers in
tests/golden/forward.json, which tests/golden/make_forward.py wrote from an
earlier commit."""

import json

import numpy as np
import pytest

from tests.golden import make_forward

EXPECTED = json.loads(make_forward.FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed():
    return make_forward.compute()


def test_fixture_covers_every_configuration_and_fit(computed):
    assert computed["questions"] == EXPECTED["questions"]
    assert sorted(computed["forward"]) == sorted(EXPECTED["forward"])
    assert sorted(computed["fits"]) == sorted(EXPECTED["fits"])


def test_scores_and_gradients_match_the_fixture(computed):
    for name, expected in EXPECTED["forward"].items():
        got = computed["forward"][name]
        want = np.array(expected["scores"])
        scores = np.array(got["scores"])
        np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_array_equal(scores.argmax(axis=1), want.argmax(axis=1), name)
        assert sorted(got["gradients"]) == sorted(expected["gradients"]), name
        for param, grad in expected["gradients"].items():
            np.testing.assert_allclose(
                np.array(got["gradients"][param]), np.array(grad),
                rtol=0, atol=1e-12, err_msg=f"{name} {param}",
            )


def test_fit_reports_match_the_fixture(computed):
    for name, expected in EXPECTED["fits"].items():
        got = np.array(computed["fits"][name])
        want = np.array(expected)
        # columns: loss, accuracy, val_loss, val_accuracy
        np.testing.assert_allclose(got[:, [0, 2]], want[:, [0, 2]], rtol=1e-9, err_msg=name)
        np.testing.assert_array_equal(got[:, [1, 3]], want[:, [1, 3]], name)
