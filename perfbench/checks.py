"""Output checks against exact ground truth.

A run workload's output must hold every true match, and every output line
must be a byte-identical input record, in input order. True matches in a
known, documented false-negative class (`known`) are still counted as
failed records; only failures outside that class make a run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RunCheck:
    tp: int
    fp: int
    tn: int
    fn: int
    fn_known: int
    wrong: int  # output lines that are not the next input record in order

    @property
    def failed(self) -> int:
        return self.fn + self.wrong

    @property
    def correct(self) -> bool:
        return self.fn == self.fn_known and self.wrong == 0

    @property
    def fpr(self) -> float:
        return self.fp / (self.fp + self.tn) if self.fp + self.tn else 0.0


def split_records(corpus: bytes) -> list[bytes]:
    """Records of a generated corpus: one per line, each line ended by \\n."""
    records = corpus.split(b"\n")
    if records.pop() != b"":
        raise ValueError("corpus must end with a newline")
    return records


def check_run_output(records: list[bytes], truth: np.ndarray, known: np.ndarray,
                     output: bytes) -> RunCheck:
    position = {r: i for i, r in enumerate(records)}
    if len(position) != len(records) or len(records) != len(truth):
        raise ValueError("records must be distinct and match the truth vector")
    lines = output.split(b"\n")
    wrong = 0 if lines.pop() == b"" else 1  # a last line without its newline
    accepted = np.zeros(len(records), dtype=bool)
    last = -1
    for line in lines:
        i = position.get(line, -1)
        if i <= last:
            wrong += 1
            continue
        accepted[i] = True
        last = i
    missed = truth & ~accepted
    return RunCheck(
        tp=int(np.count_nonzero(truth & accepted)),
        fp=int(np.count_nonzero(~truth & accepted)),
        tn=int(np.count_nonzero(~truth & ~accepted)),
        fn=int(np.count_nonzero(missed)),
        fn_known=int(np.count_nonzero(missed & known)),
        wrong=wrong,
    )
