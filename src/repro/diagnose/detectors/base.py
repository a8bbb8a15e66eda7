"""The detector contract (see the package docstring for the rules)."""

from __future__ import annotations

from typing import List

from ..inputs import DiagnosisInputs
from ..report import Finding


class TrapDetector:
    """Interface every detector implements.

    Subclasses set ``name`` (machine id, also the findings' ``detector``
    field), ``trap`` (human title), and ``paper_section`` (citation),
    and implement :meth:`detect`.
    """

    name: str = "base"
    trap: str = "base trap"
    paper_section: str = "§?"

    def detect(self, inputs: DiagnosisInputs) -> List[Finding]:
        raise NotImplementedError

    def cite(self, inputs: DiagnosisInputs, finding: Finding) -> None:
        """Attach causal evidence chains to a finding.

        Called by the engine for each finding when the inputs carry a
        provenance graph.  Detectors that can name the exact ops their
        trap slowed override this and set
        ``finding.evidence["causal_chains"]``; the default cites
        nothing (the metrics evidence stands alone).
        """

    def cite_chains(self, inputs: DiagnosisInputs, finding: Finding,
                    predicate, limit: int = 2,
                    candidates: int = 5) -> None:
        """Shared cite() body: attach the slowest matching op chains.

        Walks the ``candidates`` slowest ops of *every* run (a trap can
        bite one configuration of a sweep while another run dominates
        the session-wide tail), keeps chains where ``predicate(chain)``
        holds, and attaches the ``limit`` slowest of them (as
        deterministic JSON-ready dicts) to the finding.  The chains come
        from the inputs' one root-cause index, which every citing
        detector of a diagnosis shares.
        """
        from ..rootcause import slowest_ops
        if not inputs.provenance or not inputs.runs:
            return
        index = inputs.rootcause_index()
        chains = []
        for run_index, run in enumerate(inputs.runs):
            for _index, op in slowest_ops([run], candidates):
                chain = index.explain(run_index, op)
                if predicate(chain):
                    chains.append(chain)
        chains.sort(key=lambda chain: (-chain.duration, chain.run,
                                       chain.op_id))
        if chains:
            finding.evidence["causal_chains"] = [
                chain.to_jsonable() for chain in chains[:limit]]

    def finding(self, severity: str, magnitude: float, message: str,
                evidence: dict) -> Finding:
        return Finding(detector=self.name, trap=self.trap,
                       severity=severity, magnitude=magnitude,
                       paper_section=self.paper_section,
                       message=message, evidence=evidence)
