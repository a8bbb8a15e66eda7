"""Exact index-count gate: what explaining ops costs the diagnosis.

An evidence chain needs two lookups: the run's parent -> children map
(to walk the op's subtree) and the provenance graph indexed by node
(to annotate the hops).  Both are linear in their run or graph, so a
diagnosis builds each once and every op it explains reuses them.  The
counts are deterministic and gated exactly here: a change that rebuilds
either per explained op fails with the count.
"""

from collections import Counter

import pytest

from repro.bench import run_nfs_once
from repro.diagnose import DiagnosisInputs, explain_slowest, split_runs
from repro.diagnose import rootcause
from repro.diagnose.detectors import run_detectors
from repro.diagnose.detectors.base import TrapDetector
from repro.diagnose.detectors.tcq import TcqReorderingDetector
from repro.host.testbed import TestbedConfig
from repro.obs import observe

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def inputs():
    """Two TCQ-contended SCSI runs with provenance, as diagnosis inputs."""
    with observe(provenance=True) as session:
        for seed in (1, 2):
            run_nfs_once(TestbedConfig(drive="scsi", tagged_queueing=True,
                                       seed=seed), 4, scale=0.03)
    runs = split_runs(session.spans)
    assert len(runs) == 2
    return DiagnosisInputs(runs=runs, provenance=session.prov_records)


@pytest.fixture
def builds(monkeypatch):
    """Count provenance-index builds and children-map builds per run."""
    counter = Counter()
    index_by_node = rootcause.index_by_node
    children_by_parent = rootcause._children_by_parent

    def counted_index(records):
        counter["provenance"] += 1
        return index_by_node(records)

    def counted_children(run):
        counter[("run", id(run))] += 1
        return children_by_parent(run)

    monkeypatch.setattr(rootcause, "index_by_node", counted_index)
    monkeypatch.setattr(rootcause, "_children_by_parent", counted_children)
    return counter


def run_builds(counter: Counter) -> list:
    return [count for key, count in counter.items() if key != "provenance"]


class CitesEveryChain(TrapDetector):
    """A second citing detector: its chains come from the same index."""

    name = "cites-every-chain"

    def detect(self, inputs):
        return [self.finding("warning", 1.0, "every op", {})]

    def cite(self, inputs, finding):
        self.cite_chains(inputs, finding, lambda chain: True)


class TestIndexBuilds:
    def test_explain_slowest_indexes_once(self, inputs, builds):
        chains = explain_slowest(inputs.runs, 10, inputs.provenance)
        assert len(chains) == 10
        assert builds["provenance"] == 1
        assert run_builds(builds) and max(run_builds(builds)) == 1

    def test_detector_citations_share_one_index(self, inputs, builds):
        inputs = DiagnosisInputs(runs=inputs.runs,
                                 provenance=inputs.provenance)
        # The metrics that make the tcq detector fire and cite.
        inputs.snapshots = [{
            "gauges": {"disk.tcq_enabled": 1.0,
                       "disk.reorder_fraction": 0.3,
                       "disk.tcq_depth": 64.0},
            "histograms": {"disk.tcq_wait_s": {
                "count": 500, "sum": 1.0, "mean": 0.002,
                "min": 0.0, "max": 0.01}},
        }]
        findings = run_detectors(
            inputs, [TcqReorderingDetector(), CitesEveryChain()])
        assert [f.detector for f in findings] == ["tcq",
                                                  "cites-every-chain"]
        assert all(f.evidence.get("causal_chains") for f in findings)
        assert builds["provenance"] == 1
        assert sorted(run_builds(builds)) == [1, 1]
