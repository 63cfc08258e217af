"""Metric tests with hand-computed values."""

import pytest

from vicount import DataError, VideoResult, mae, mse, wrae


def _results():
    return [
        VideoResult("a", 100.0, 10, 12),
        VideoResult("b", 300.0, 20, 19),
    ]


class TestVideoResult:
    def test_coercions(self):
        r = VideoResult(7, 10, 5, 4)
        assert r.video_id == "7"
        assert isinstance(r.length, float)
        assert isinstance(r.pred_count, float)

    def test_validation(self):
        with pytest.raises(DataError):
            VideoResult("v", 0.0, 5, 4)
        with pytest.raises(DataError):
            VideoResult("v", 10.0, 0, 4)
        with pytest.raises(DataError):
            VideoResult("v", 10.0, 5, -1)

    @pytest.mark.parametrize("gt", [2.7, True, "3"])
    def test_non_integral_gt_count_rejected(self, gt):
        with pytest.raises(DataError, match="gt_count must be an integer"):
            VideoResult("v", 10.0, gt, 4)

    def test_integral_gt_count_kept(self):
        assert VideoResult("v", 10.0, 12.0, 4).gt_count == 12


class TestMae:
    def test_hand_value(self):
        # errors 2 and 1 over two videos
        assert mae(_results()) == pytest.approx(1.5, abs=1e-12)

    def test_perfect(self):
        assert mae([VideoResult("v", 1.0, 5, 5)]) == 0.0

    def test_empty(self):
        with pytest.raises(DataError):
            mae([])


class TestMse:
    def test_reports_root_of_mean_square(self):
        assert mse([VideoResult("v", 1.0, 30, 20)]) == pytest.approx(10.0, abs=1e-12)

    def test_two_videos(self):
        results = [
            VideoResult("a", 1.0, 10, 16),
            VideoResult("b", 1.0, 10, 2),
        ]
        # squared errors 36 and 64, mean 50
        assert mse(results) == pytest.approx(50.0 ** 0.5, abs=1e-12)

    def test_empty(self):
        with pytest.raises(DataError):
            mse([])


class TestWrae:
    def test_hand_value(self):
        # weights 0.25 and 0.75; relative errors 0.2 and 0.05
        # 0.25*0.2 + 0.75*0.05 = 0.0875 -> 8.75%
        assert wrae(_results()) == pytest.approx(8.75, abs=1e-12)

    def test_single_video(self):
        # relative error 1/16 -> 6.25%
        assert wrae([VideoResult("v", 60.0, 16, 15)]) == pytest.approx(6.25, abs=1e-12)

    def test_invariant_to_length_units(self):
        seconds = [
            VideoResult("a", 90.0, 10, 12),
            VideoResult("b", 210.0, 20, 18),
        ]
        minutes = [
            VideoResult("a", 1.5, 10, 12),
            VideoResult("b", 3.5, 20, 18),
        ]
        assert wrae(seconds) == pytest.approx(wrae(minutes), rel=1e-12)

    def test_empty(self):
        with pytest.raises(DataError):
            wrae([])
