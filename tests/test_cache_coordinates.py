"""Pins the cache coordinates of one small job to literal digests.

A cache directory filled by an earlier build keeps serving hits only while
every key is computed exactly as before: the content key and the job
fingerprint of the decomposition records, and the synthesis key of each
flow that writes a synthesis record.  Each key is read off the file a real
run writes, so the test sees what the job paths compute, not what a helper
would.  The record bytes are pinned too: a hit on a record the earlier
build wrote must decode to the same result.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.benchcircuits import majority_spec
from repro.core.structure import decomposition_to_netlist
from repro.engine import SynthesisCache
from repro.eval.flows import run_baseline_flow, run_progressive_flow, run_structural_flow
from repro.service.jobs import execute_job, parse_job_spec

CONTENT_KEY = "53f500e99a65a9345f91c10498d24a5f7fa82b16306127ade72c89c841007b9b"
JOB_KEY = "3c233407ad6a19a15688365d67cee1b2fe376f68a67d27e1017695b091faea75"
SYNTHESIS_KEYS = {
    "service": "5a90e1f74ed45e3958a9b634829922291a9a6533e30b2cf3b4d7866257a36002",
    "progressive": "d07a1f8a3d2b38afdd581f9f520268ff46722266744b0c2b2c2a602fce58d435",
    "baseline": "cc0aa1b4488f20dbbe7b5f04752068db346f83f632addcc3929d1f31381ac387",
    "structural": "1abf48dae47fa3d842d18d97b63d30a1d557093a8911f7fe011177ea52df9674",
}
RECORD_SHA256 = {
    "decomposition": "c77a4dce02d33c438e36ec844f437613a3a0eec02f2bf30d8df23130f0c7f077",
    "service": "c85440ad25a17a1211c69c6ec5b9b40edaeb550e0c53c4b2f442697312e1fcf4",
    "progressive": "2f1191c68ac712dc499ace78cfd8cc081c9d863f53964bd93076bea7728e2cfa",
    "baseline": "4a2164e68ed5cb9b1cbe77dc7ac3b6e9ef591a9ac274579ef24e653358eb2107",
    "structural": "8205f07260542e36c89a9c53f500ec5f32213d880b5d0b71c75eb11cf08203c1",
}


def _only_record(directory: Path) -> Path:
    records = sorted(directory.glob("*.json"))
    assert len(records) == 1, records
    return records[0]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_service_job_coordinates(tmp_path):
    payload = parse_job_spec(
        {"kind": "synthesize", "circuit": "majority", "width": 5}
    ).payload()
    result = execute_job(payload, str(tmp_path))
    assert result["content_key"] == CONTENT_KEY
    assert _only_record(tmp_path).stem == CONTENT_KEY
    assert [p.stem for p in (tmp_path / "index").glob("*.key")] == [JOB_KEY]
    assert _only_record(tmp_path / "synth").stem == SYNTHESIS_KEYS["service"]
    assert _sha256(_only_record(tmp_path)) == RECORD_SHA256["decomposition"]
    assert _sha256(_only_record(tmp_path / "synth")) == RECORD_SHA256["service"]


def test_flow_synthesis_coordinates(tmp_path):
    spec = majority_spec(5)
    flows = {
        "progressive": lambda cache: run_progressive_flow(
            spec.outputs, spec.input_words, synthesis_cache=cache),
        "baseline": lambda cache: run_baseline_flow(
            spec.outputs, synthesis_cache=cache),
    }
    decomposition = flows["progressive"](None).decomposition
    netlist = decomposition_to_netlist(decomposition, objective="balanced")
    flows["structural"] = lambda cache: run_structural_flow(
        netlist, "structural", synthesis_cache=cache)
    for flavour, run in flows.items():
        directory = tmp_path / flavour
        run(SynthesisCache(directory))
        record = _only_record(directory)
        assert record.stem == SYNTHESIS_KEYS[flavour], flavour
        assert _sha256(record) == RECORD_SHA256[flavour], flavour
