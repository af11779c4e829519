"""The per-process structuring memo of ``emit_auto``.

Each block shape is structured once per (library content, objective): the
winning scratch netlist is kept as a gate template and replayed for every
later block of that shape, in this job and every later one.  The oracle is
the seed's two-stage emitter (``reference_structuring.py``), which scores
every candidate per library object and builds the winner a second time.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.anf.context import Context
from repro.anf.parser import parse
from repro.circuit.netlist import Netlist
from repro.core.structure import decomposition_to_netlist
from repro.engine.batch import run_job
from repro.engine.cache import library_fingerprint, netlist_digest
from repro.service.jobs import CIRCUITS, execute_job, parse_job_spec
from repro.synth import Library, default_library, structuring, synthesize
from repro.synth.library import Cell
from reference_structuring import reference_decomposition_to_netlist

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
OBJECTIVES = ("delay", "area", "balanced")
#: ``default_library()``'s fingerprint before it moved into ``Library``:
#: synthesis cache keys written by earlier code must still match.
DEFAULT_FINGERPRINT = "e8040f0bb4c3b532e646a6368bbe9547b7f48b07c7a5a53edd59bc1ff4c0730a"


def perfbench_specs():
    names = json.loads(REFERENCE.read_text())["specs"]
    return [(circuit, int(width)) for circuit, width in
            (name.rsplit("-", 1) for name in sorted(names))]


@pytest.fixture(scope="module")
def decompositions():
    return {spec: run_job(CIRCUITS[spec[0]], (spec[1],)).decomposition
            for spec in perfbench_specs()}


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(structuring, "_WINNERS", {})
    return structuring._WINNERS


@pytest.fixture
def score_calls(monkeypatch):
    calls = []
    real = synthesize.score_candidate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesize, "score_candidate", spy)
    return calls


def _block(expression: str):
    return parse(Context("abcpqr"), expression)


def _emit(expr, library, objective="delay"):
    netlist = Netlist("one")
    support = list(expr.support)
    netlist.add_inputs(support)
    emit = structuring.EmitContext(netlist, {name: name for name in support})
    netlist.set_output("f", structuring.emit_auto(emit, expr, library, objective))
    return netlist


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_netlists_match_the_two_stage_emitter(decompositions, empty_memo, objective):
    """Gate for gate, with the memo cold for each netlist and then warm."""
    expected = {}
    for spec, decomposition in decompositions.items():
        expected[spec] = netlist_digest(reference_decomposition_to_netlist(
            decomposition, library=default_library(), objective=objective))
        empty_memo.clear()
        cold = decomposition_to_netlist(
            decomposition, library=default_library(), objective=objective)
        assert netlist_digest(cold) == expected[spec], (spec, "cold")
    for spec, decomposition in decompositions.items():
        warm = decomposition_to_netlist(
            decomposition, library=default_library(), objective=objective)
        assert netlist_digest(warm) == expected[spec], (spec, "warm")


def test_a_second_job_of_a_spec_scores_nothing(empty_memo, score_calls):
    payload = parse_job_spec({"kind": "synthesize", "circuit": "adder", "width": 6}).payload()
    first = execute_job(payload, None)
    assert score_calls
    score_calls.clear()
    second = execute_job(payload, None)
    assert score_calls == []
    for key in ("area", "delay", "cells"):
        assert second[key] == first[key]


def test_default_libraries_share_the_memo(empty_memo, score_calls):
    expr = _block("a*b ^ a*c ^ b*c")
    first, second = default_library(), default_library()
    assert first is not second
    assert first.fingerprint() == second.fingerprint() == DEFAULT_FINGERPRINT
    _emit(expr, first)
    assert score_calls
    score_calls.clear()
    renamed = _block("p*q ^ p*r ^ q*r")
    _emit(renamed, second)
    assert score_calls == []


def test_a_library_with_other_content_gets_no_entry(empty_memo, score_calls):
    library = default_library()
    cells = [dataclasses.replace(cell, area=cell.area + 1.0)
             if cell.name == "XOR2X1" else cell
             for cell in library.cells.values()]
    changed = Library(library.name, cells)
    assert changed.fingerprint() != library.fingerprint()
    expr = _block("a ^ b*c ^ a*b*c")
    _emit(expr, library)
    score_calls.clear()
    _emit(expr, changed)
    assert score_calls
    assert {key[0] for key in empty_memo} == {library.fingerprint(), changed.fingerprint()}


def test_objectives_get_their_own_entries(empty_memo):
    expr = _block("a ^ b*c ^ a*b*c")
    for objective in OBJECTIVES:
        _emit(expr, default_library(), objective)
    assert sorted(key[1] for key in empty_memo) == sorted(OBJECTIVES)


def test_add_cell_clears_the_fingerprint():
    library = default_library()
    before = library.fingerprint()
    assert library_fingerprint(library) == before
    extra = Cell("XOR3X1", "XOR", 3, 12.0, 0.07, 0.006)
    library.add_cell(extra)
    after = library.fingerprint()
    assert after != before
    assert after == Library(library.name, [*default_library().cells.values(), extra]).fingerprint()


def test_memo_holds_only_ints_and_strings(decompositions, empty_memo):
    """Keys and templates hold no object the cyclic collector must track."""

    def atoms(value):
        if isinstance(value, tuple):
            for item in value:
                yield from atoms(item)
        else:
            yield value

    for spec in [("adder", 10), ("lod", 16), ("majority", 12)]:
        decomposition_to_netlist(decompositions[spec], library=default_library())
    assert empty_memo
    for key, template in empty_memo.items():
        for atom in (*atoms(key), *atoms(template)):
            assert type(atom) in (int, str), (key, atom)


def test_memo_is_cleared_wholesale_at_its_cap(empty_memo, monkeypatch):
    monkeypatch.setattr(structuring, "WINNER_MEMO_LIMIT", 2)
    for expression in ("a*b ^ c", "a*b ^ a*c", "a*b*c ^ a"):
        _emit(_block(expression), default_library())
    assert len(empty_memo) == 1
