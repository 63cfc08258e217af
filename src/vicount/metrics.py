"""Video-level counting error metrics aggregated over per-video results."""

import math
from dataclasses import dataclass

from .errors import DataError
from .stream import _as_int, _finite


@dataclass(frozen=True)
class VideoResult:
    """One video's outcome: length weight, ground-truth count, predicted count.

    length is the video's weight in wrae. The eval command passes the
    report's frame count, so videos sampled at different intervals weigh by
    their number of frames, not by their duration in seconds.
    """

    video_id: str
    length: float
    gt_count: int
    pred_count: float

    def __post_init__(self):
        object.__setattr__(self, "video_id", str(self.video_id))
        object.__setattr__(self, "length", _finite(self.length, "length", "(0, inf)"))
        object.__setattr__(self, "pred_count", _finite(self.pred_count, "pred_count", "[0, inf)"))
        object.__setattr__(self, "gt_count", _as_int(self.gt_count, "gt_count", 1))


def _require(results) -> list:
    out = list(results)
    if not out:
        raise DataError("no video results to aggregate")
    return out


def mae(results) -> float:
    """Mean absolute error of predicted vs ground-truth counts."""
    rs = _require(results)
    return sum(abs(r.gt_count - r.pred_count) for r in rs) / len(rs)


def mse(results) -> float:
    """Root of the mean squared count error (reported under the MSE name,
    as is conventional for this metric in counting benchmarks)."""
    rs = _require(results)
    return math.sqrt(sum((r.gt_count - r.pred_count) ** 2 for r in rs) / len(rs))


def wrae(results) -> float:
    """Weighted relative absolute error, in percent.

    Each video's relative error |gt - pred| / gt is weighted by its share of
    the total length, so long videos dominate the way they dominate the data.
    Lengths are frame counts when they come from eval; any unit works, as
    only their ratios enter.
    """
    rs = _require(results)
    total_len = sum(r.length for r in rs)
    return (
        sum(r.length / total_len * abs(r.gt_count - r.pred_count) / r.gt_count for r in rs)
        * 100.0
    )
