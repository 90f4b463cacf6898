"""The failure-detector hierarchy around Υ, as a queryable graph.

Sect. 2 and 4 of the paper situate Υ among the known detectors:

    dummy  ≤  anti-Ω  ≤  Υ  ≤  Ωn  ≤ … ≤  Ω1 = Ω  ≤  ◇P
                          Υf ≤  Ωf            (Sect. 5.3, in E_f)

with the paper's contributions being the *strict* separations Υ ≺ Ωn
(Theorem 1) and Υf ≺ Ωf (Theorem 5).  This module encodes those facts as
a directed graph (edge ``a → b`` = "a is weaker than b", i.e. ``b`` can
emulate ``a``):

* Most edges carry a **pointwise history transform** — the constructive
  reduction as a function on detector outputs, so legal histories of the
  stronger detector map to legal histories of the weaker one and the
  transforms compose along paths (:meth:`DetectorHierarchy.transform`).
* Strict separations carry the adversary that refutes the reverse
  direction.
* Literature edges without a shipped construction (anti-Ω ≤ Υ, from
  Zieliński [22, 23]) are recorded as non-constructive.

Queries go through :class:`DetectorHierarchy`, which instantiates the zoo
for one environment and answers ``weaker_than`` / ``strictly_weaker`` /
``explain`` via graph reachability (networkx, imported when the first
hierarchy is built, so ``import repro`` does not load it).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from ..detectors.anti_omega import AntiOmegaSpec
from ..detectors.base import DetectorSpec, History
from ..detectors.dummy import DummySpec
from ..detectors.eventually_perfect import EventuallyPerfectSpec
from ..detectors.omega import OmegaSpec
from ..detectors.omega_k import OmegaKSpec
from ..detectors.upsilon import UpsilonFSpec, UpsilonSpec
from ..failures.environment import Environment

#: A pointwise reduction: maps one detector output value to another.
ValueTransform = Callable[[Any], Any]


@dataclasses.dataclass(frozen=True)
class WeakerThanEdge:
    """``weaker → stronger`` with its justification."""

    weaker: str
    stronger: str
    justification: str
    transform: Optional[ValueTransform] = None   # None = non-constructive
    strict: bool = False                          # reverse provably fails
    strictness_source: str = ""


class TransformedHistory(History):
    """A history mapped pointwise through a value transform."""

    def __init__(self, inner: History, transform: ValueTransform):
        self.inner = inner
        self.transform = transform

    def value(self, pid: int, t: int) -> Any:
        return self.transform(self.inner.value(pid, t))


class DetectorHierarchy:
    """The detector zoo and its weaker-than structure for one environment."""

    def __init__(self, env: Environment):
        import networkx as nx

        self.env = env
        self.system = env.system
        self.specs: Dict[str, DetectorSpec] = {}
        self.graph = nx.DiGraph()
        self._populate()

    # -- construction --------------------------------------------------------

    def _add_spec(self, name: str, spec: DetectorSpec) -> None:
        self.specs[name] = spec
        self.graph.add_node(name)

    def _add_edge(self, edge: WeakerThanEdge) -> None:
        self.graph.add_edge(edge.weaker, edge.stronger, edge=edge)

    def _populate(self) -> None:
        system, env = self.system, self.env
        n = system.n
        f = env.f
        pid_set = system.pid_set
        pids_sorted = sorted(system.pids)

        self._add_spec("dummy", DummySpec("d"))
        self._add_spec("anti-Ω", AntiOmegaSpec(system))
        self._add_spec("Υ", UpsilonSpec(system))
        self._add_spec("Ω", OmegaSpec(system))
        self._add_spec("Ωn", OmegaKSpec(system, n))
        self._add_spec("◇P", EventuallyPerfectSpec(system))
        if f < n:
            self._add_spec("Υf", UpsilonFSpec(env))
            self._add_spec("Ωf", OmegaKSpec(system, f))

        def pad_to(size: int):
            def transform(leaders: Any) -> frozenset:
                base = (
                    frozenset({leaders})
                    if isinstance(leaders, int)
                    else frozenset(leaders)
                )
                extra = [p for p in pids_sorted if p not in base]
                return base | frozenset(extra[: max(0, size - len(base))])

            return transform

        def complement(value: Any) -> frozenset:
            members = (
                frozenset({value}) if isinstance(value, int)
                else frozenset(value)
            )
            return pid_set - members

        def elect_unsuspected(suspects: Any) -> int:
            alive = pid_set - frozenset(suspects)
            return min(alive) if alive else min(pid_set)

        self._add_edge(WeakerThanEdge(
            "dummy", "anti-Ω",
            "a constant output is extractable from anything",
            transform=lambda _v: "d",
        ))
        self._add_edge(WeakerThanEdge(
            "anti-Ω", "Υ",
            "Zieliński [22, 23]: anti-Ω is the weakest eventual "
            "non-trivial detector; no constructive reduction shipped "
            "(DESIGN.md §6)",
            transform=None,
            strict=True,
            strictness_source="[23]",
        ))
        self._add_edge(WeakerThanEdge(
            "Υ", "Ωn",
            "Sect. 4: output the complement Π − L",
            transform=complement,
            strict=(n >= 2),
            strictness_source="Theorem 1 (run_theorem1_adversary)",
        ))
        self._add_edge(WeakerThanEdge(
            "Ωn", "Ω",
            "pad the leader to an n-set containing it",
            transform=pad_to(n),
        ))
        self._add_edge(WeakerThanEdge(
            "Ω", "◇P",
            "elect the smallest unsuspected process",
            transform=elect_unsuspected,
        ))
        if f < n:
            self._add_edge(WeakerThanEdge(
                "Υf", "Ωf",
                "Sect. 5.3: output the complement Π − L (size n+1−f)",
                transform=complement,
                strict=(f >= 2),
                strictness_source="Theorem 5 (run_theorem5_adversary)",
            ))
            self._add_edge(WeakerThanEdge(
                "Ωf", "Ω",
                "pad the leader to an f-set containing it",
                transform=pad_to(f),
            ))
            self._add_edge(WeakerThanEdge(
                "Υ", "Υf",
                "a Υf output is a legal Υ output (|U| ≥ n+1−f ≥ 1, "
                "U ≠ correct)",
                transform=lambda u: frozenset(u),
            ))

    # -- queries --------------------------------------------------------------

    def detectors(self) -> List[str]:
        return sorted(self.graph.nodes)

    def weaker_than(self, weaker: str, stronger: str) -> bool:
        """Is ``weaker`` ≤ ``stronger`` (via recorded reductions)?"""
        self._check(weaker), self._check(stronger)
        if weaker == stronger:
            return True
        import networkx as nx

        return nx.has_path(self.graph, weaker, stronger)

    def strictly_weaker(self, weaker: str, stronger: str) -> bool:
        """≤ holds and some edge on a witnessing path is a recorded strict
        separation."""
        if weaker == stronger or not self.weaker_than(weaker, stronger):
            return False
        return any(edge.strict for edge in self.explain(weaker, stronger))

    def explain(self, weaker: str, stronger: str) -> List[WeakerThanEdge]:
        """The chain of justifications along one witnessing path."""
        import networkx as nx

        self._check(weaker), self._check(stronger)
        path = nx.shortest_path(self.graph, weaker, stronger)
        return [self.graph.edges[a, b]["edge"] for a, b in zip(path, path[1:])]

    def transform(self, weaker: str, stronger: str) -> ValueTransform:
        """Compose the pointwise transforms along a witnessing path.

        Raises ``ValueError`` if any edge on every shortest path is
        non-constructive (e.g. through anti-Ω ≤ Υ).
        """
        edges = self.explain(weaker, stronger)
        for edge in edges:
            if edge.transform is None:
                raise ValueError(
                    f"no constructive reduction along {weaker} ≤ {stronger}: "
                    f"edge {edge.weaker} ≤ {edge.stronger} is recorded only"
                )

        def composed(value: Any) -> Any:
            for edge in reversed(edges):
                value = edge.transform(value)
            return value

        return composed

    def transform_history(
        self, weaker: str, stronger: str, history: History
    ) -> History:
        """Map a legal ``stronger`` history to a legal ``weaker`` history."""
        return TransformedHistory(history, self.transform(weaker, stronger))

    def _check(self, name: str) -> None:
        if name not in self.graph:
            raise KeyError(
                f"unknown detector {name!r}; have {self.detectors()}"
            )
