"""The k-set-agreement task (Sect. 5.1).

Every process proposes a value from a domain ``V`` (``⊥ ∉ V``) and must
irrevocably decide such that:

1. **Termination** — every correct process eventually decides;
2. **Agreement** — at most ``k`` values are decided on;
3. **Validity** — any decided value was proposed.

``k = 1`` is consensus; ``k = n`` among ``n + 1`` processes is the
wait-free set agreement whose impossibility [2, 14, 20] the paper's Υ
circumvents.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from .base import TaskSpec
from .properties import AgreementProperty, PropertyAdapter, ValidityProperty


class SetAgreementSpec(TaskSpec):
    """k-set agreement over traces."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k-set agreement needs k >= 1")
        self.k = k
        self.name = f"{k}-set-agreement"

    def safety_properties(
        self, inputs: Mapping[int, Any]
    ) -> List[PropertyAdapter]:
        return [AgreementProperty(self.k), ValidityProperty(inputs)]


class ConsensusSpec(SetAgreementSpec):
    """Consensus = 1-set agreement."""

    def __init__(self) -> None:
        super().__init__(1)
        self.name = "consensus"
