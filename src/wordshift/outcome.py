"""Three-valued decision results with re-checkable evidence.

Exact procedures return yes/no; bounded searches return yes/unknown.  A yes
always carries a witness that can be re-verified independently of the code
path that found it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DecisionOutcome:
    verdict: str
    witness: Optional[dict] = None
    bound: Optional[int] = None
    note: Optional[str] = None

    def __post_init__(self):
        if self.verdict not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "yes" and not self.witness:
            raise ValueError("a yes verdict must carry a witness")
        if self.verdict == "unknown" and self.bound is None:
            raise ValueError("an unknown verdict must carry the exhausted bound")

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"

    @property
    def is_no(self) -> bool:
        return self.verdict == "no"

    @property
    def is_unknown(self) -> bool:
        return self.verdict == "unknown"


def yes(**witness) -> DecisionOutcome:
    return DecisionOutcome("yes", witness=witness)


def no(note: Optional[str] = None) -> DecisionOutcome:
    return DecisionOutcome("no", note=note)


def unknown(bound: int, note: Optional[str] = None) -> DecisionOutcome:
    return DecisionOutcome("unknown", bound=bound, note=note)


class WitnessError(AssertionError):
    """A witness failed its defining predicate on re-verification: a defect
    in the procedure that found it, never a property of the input."""


def _check_witness(holds: bool, what: str) -> None:
    # Unlike ``assert``, this still runs under ``python -O``.
    if not holds:
        raise WitnessError(what)
