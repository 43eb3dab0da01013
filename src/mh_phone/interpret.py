"""Closed-form interpretation of a fitted sequence model.

Self-transition probabilities turn into expected hold lengths (geometric
waiting times), the start distribution and transition matrix turn into
expected per-sign prototype counts over a finite horizon, and the shared
variances summarize how tightly each joint is held.

The state, the horizon (at least 1) and frame_ms are checked by the rules
in `params` (`check_integer`, `check_sizes`, `check_number`) before any work.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import KEYPOINTS
from .errors import AbsorbingState, InvariantViolation
from .params import ModelParams, check_integer, check_number, check_sizes

DEFAULT_FRAME_MS = 98.0
DEFAULT_HORIZON = 20


def expected_hold_length(params: ModelParams, state) -> float:
    """Expected consecutive frames spent in a state: 1 / (1 - T[i, i]).

    Raises AbsorbingState when the state never leaves itself.
    """
    n = params.n_states
    state = check_integer("state", state)
    if not (0 <= state < n):
        raise InvariantViolation(f"state must be in [0, {n}), got {state}")
    stay = float(params.trans[state, state])
    if stay >= 1.0:
        raise AbsorbingState(f"state {state} is absorbing (self-transition 1)")
    return 1.0 / (1.0 - stay)


def expected_counts(params: ModelParams, horizon=DEFAULT_HORIZON) -> np.ndarray:
    """Expected number of frames per state over the first `horizon` frames.

    The sum over i = 0..horizon-1 of pi @ T^i; its entries add up to the
    horizon exactly.
    """
    (horizon,) = check_sizes(horizon=horizon)
    occupancy = params.pi.astype(float).copy()
    counts = np.zeros(params.n_states)
    for _ in range(horizon):
        counts += occupancy
        occupancy = occupancy @ params.trans
    return counts


@dataclass
class InterpretReport:
    """Per-state statistics with joint-level dispersion and footnotes."""

    hold_lengths_frames: np.ndarray
    hold_lengths_ms: np.ndarray
    expected_counts: np.ndarray
    start_ranking: list
    end_prob: np.ndarray
    dispersion_by_joint: dict
    horizon: int
    frame_ms: float
    notes: list = field(default_factory=list)

    def to_dict(self):
        def encode(values):
            return [v if np.isfinite(v) else "inf" for v in map(float, values)]

        return {
            "hold_lengths_frames": encode(self.hold_lengths_frames),
            "hold_lengths_ms": encode(self.hold_lengths_ms),
            "expected_counts": [float(v) for v in self.expected_counts],
            "start_ranking": [int(s) for s in self.start_ranking],
            "end_prob": [float(v) for v in self.end_prob],
            "dispersion_by_joint": {k: float(v) for k, v in self.dispersion_by_joint.items()},
            "horizon": int(self.horizon),
            "frame_ms": float(self.frame_ms),
            "notes": list(self.notes),
        }


def summarize(params: ModelParams, *, frame_ms=DEFAULT_FRAME_MS,
              horizon=DEFAULT_HORIZON, include_end_state=False) -> InterpretReport:
    """Build the interpretation report for a fitted model.

    Absorbing states get an infinite hold length instead of failing. The
    start ranking orders states by pi descending (ties by index) and leaves
    out the end state unless include_end_state is set. dispersion_by_joint
    averages each joint's two variance dimensions and is only available when
    the feature count matches 2 * len(KEYPOINTS).
    """
    frame_ms = check_number("frame_ms", frame_ms, lambda v: 0 < v < np.inf, "positive and finite")
    (horizon,) = check_sizes(horizon=horizon)
    n = params.n_states
    hold = np.empty(n)
    notes = []
    for i in range(n):
        try:
            hold[i] = expected_hold_length(params, i)
        except AbsorbingState:
            hold[i] = np.inf
    if not np.all(np.isfinite(hold)):
        absorbing = [int(i) for i in np.flatnonzero(~np.isfinite(hold))]
        notes.append(f"states {absorbing} are absorbing; their hold length is reported as inf")

    counts = expected_counts(params, horizon)
    candidates = range(n) if include_end_state else range(1, n)
    ranking = sorted(candidates, key=lambda i: (-params.pi[i], i))
    end_prob = params.trans[:, 0].copy()

    dispersion = {}
    if params.n_features == 2 * len(KEYPOINTS):
        for k, name in enumerate(KEYPOINTS):
            dispersion[name] = float(params.sigma[2 * k: 2 * k + 2].mean())
    else:
        notes.append(
            f"feature count {params.n_features} does not split into "
            f"{len(KEYPOINTS)} joints; joint dispersion omitted")

    return InterpretReport(
        hold_lengths_frames=hold,
        hold_lengths_ms=hold * frame_ms,
        expected_counts=counts,
        start_ranking=ranking,
        end_prob=end_prob,
        dispersion_by_joint=dispersion,
        horizon=horizon,
        frame_ms=frame_ms,
        notes=notes,
    )


def format_report(report: InterpretReport) -> str:
    """Human-readable table for terminal output."""
    lines = []
    n = len(report.hold_lengths_frames)
    lines.append(f"{'state':>5}  {'hold (frames)':>13}  {'hold (ms)':>10}  "
                 f"{'E[count]':>9}  {'P(-> end)':>9}")
    for i in range(n):
        frames = report.hold_lengths_frames[i]
        ms = report.hold_lengths_ms[i]
        frames_s = f"{frames:13.2f}" if np.isfinite(frames) else f"{'inf':>13}"
        ms_s = f"{ms:10.0f}" if np.isfinite(ms) else f"{'inf':>10}"
        lines.append(f"{i:>5}  {frames_s}  {ms_s}  "
                     f"{report.expected_counts[i]:9.3f}  {report.end_prob[i]:9.3f}")
    lines.append(f"start ranking (by pi): {report.start_ranking}")
    if report.dispersion_by_joint:
        ranked = sorted(report.dispersion_by_joint.items(), key=lambda kv: -kv[1])
        pretty = ", ".join(f"{name}={value:.4g}" for name, value in ranked)
        lines.append(f"dispersion by joint: {pretty}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
