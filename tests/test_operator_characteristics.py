"""Per-operator characteristics the paper's observations rely on."""

import pytest

from repro.operators.color import ColorOperator
from repro.operators.detector import DetectorOperator
from repro.video.content import Track
from repro.video.fidelity import Fidelity, richest_fidelity


def _fid(label):
    return Fidelity.parse(label)


def _track(**kw):
    defaults = dict(
        tid=1, kind="car", t0=0.0, t1=10.0, x0=0.5, y0=0.5, vx=0.02, vy=0.0,
        size=0.1, speed=0.02, color="red", plate="ABC1234", contrast=0.9,
    )
    defaults.update(kw)
    return Track(**defaults)


class TestDetectionModel:
    def test_bigger_objects_detected_better(self, library):
        nn = library.get("NN")
        small = _track(size=0.02)
        big = _track(size=0.3)
        p = nn.detection_prob([small, big], _fid("good-200p-1-100%"))
        assert p[1] > p[0]

    def test_quality_resolution_interaction(self, library):
        """Section 2.4: as quality worsens, accuracy becomes *more*
        sensitive to resolution changes."""
        lic = library.get("License")
        tr = _track(size=0.12)

        def p(quality, res):
            return float(lic.detection_prob([tr], _fid(f"{quality}-{res}-1-100%"))[0])

        drop_good = p("good", "720p") - p("good", "360p")
        drop_bad = p("bad", "720p") - p("bad", "360p")
        assert drop_bad > drop_good

    def test_license_requires_plate(self, library):
        lic = library.get("License")
        unplated = _track(plate=None)
        p = lic.detection_prob([unplated], richest_fidelity())
        assert p[0] == 0.0

    def test_snn_targets_cars_only(self, library):
        snn = library.get("S-NN")
        person = _track(kind="person", plate=None)
        assert snn.detection_prob([person], richest_fidelity())[0] == 0.0

    def test_nn_detects_people_too(self, library):
        nn = library.get("NN")
        person = _track(kind="person", plate=None, size=0.2)
        assert nn.detection_prob([person], richest_fidelity())[0] > 0.5

    def test_nn_more_robust_than_snn_at_low_fidelity(self, library):
        """The full NN tolerates poor inputs better than the shallow
        specialized net (why the cascade works)."""
        tr = _track(size=0.08)
        poor = _fid("bad-180p-1-100%")
        p_nn = library.get("NN").detection_prob([tr], poor)[0]
        p_snn = library.get("S-NN").detection_prob([tr], poor)[0]
        assert p_nn > p_snn

    def test_ocr_needs_more_pixels_than_license(self, library):
        tr = _track(size=0.1)
        mid = _fid("best-360p-1-100%")
        p_license = library.get("License").detection_prob([tr], mid)[0]
        p_ocr = library.get("OCR").detection_prob([tr], mid)[0]
        assert p_license > p_ocr

    def test_fp_rate_zero_at_best_quality(self, library):
        for name in ("NN", "S-NN", "License", "OCR", "Color", "Contour"):
            op = library.get(name)
            assert op.fp_rate(_fid("best-60p-1/30-50%")) == 0.0
            assert op.fp_rate(_fid("worst-720p-1-100%")) > 0.0


class TestColor:
    def test_matches_only_target_color(self):
        op = ColorOperator("blue")
        blue = _track(color="blue")
        red = _track(color="red")
        probs = op.detection_prob([blue, red], richest_fidelity())
        assert probs[0] > 0.5
        assert probs[1] == 0.0

    def test_rejects_unknown_color(self):
        with pytest.raises(ValueError):
            ColorOperator("chartreuse")


class TestSignalOperators:
    def test_diff_degrades_with_sparse_sampling(self, library, jackson_clip):
        diff = library.get("Diff")
        dense = diff.accuracy(jackson_clip, _fid("best-200p-1-100%"))
        sparse = diff.accuracy(jackson_clip, _fid("best-200p-1/30-100%"))
        assert dense > sparse + 0.05

    def test_motion_tolerates_bad_quality(self, library, dashcam_clip):
        motion = library.get("Motion")
        acc = motion.accuracy(dashcam_clip, _fid("bad-180p-1/30-100%"))
        assert acc > 0.85

    def test_diff_brittle_to_quality(self, library, jackson_clip):
        """Compression artifacts look like change: Diff needs rich quality
        (why Table 3 keeps `best` for Diff)."""
        diff = library.get("Diff")
        best = diff.accuracy(jackson_clip, _fid("best-200p-2/3-100%"))
        worst = diff.accuracy(jackson_clip, _fid("worst-200p-2/3-100%"))
        assert best > worst + 0.1

    def test_opflow_most_sampling_sensitive(self, library, jackson_clip):
        opflow = library.get("Opflow")
        nn = library.get("NN")
        rich = _fid("best-540p-1-100%")
        sparse = _fid("best-540p-1/30-100%")
        drop_flow = (opflow.accuracy(jackson_clip, rich)
                     - opflow.accuracy(jackson_clip, sparse))
        drop_nn = (nn.accuracy(jackson_clip, rich)
                   - nn.accuracy(jackson_clip, sparse))
        assert drop_flow > drop_nn

    def test_motion_cheaper_than_license(self, library):
        fid = _fid("good-540p-1-100%")
        assert (library.get("Motion").cost_per_frame(fid)
                < library.get("License").cost_per_frame(fid) / 5)


class TestDetectorScoring:
    def test_empty_clip_confusion(self, library, jackson_content):
        clip = jackson_content.clip(1e6, 0.5)  # far future, likely empty
        nn: DetectorOperator = library.get("NN")
        if not clip.tracks:
            conf = nn.expected_confusion(clip, richest_fidelity())
            assert conf.tp == 0.0 and conf.fn == 0.0

    def test_crop_costs_recall_not_precision(self, library, jackson_clip):
        nn = library.get("NN")
        full = nn.expected_confusion(jackson_clip, _fid("best-720p-1-100%"))
        cropped = nn.expected_confusion(jackson_clip, _fid("best-720p-1-50%"))
        assert cropped.fn > full.fn
        assert cropped.fp <= full.fp + 1e-9
