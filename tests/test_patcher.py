"""Stage machine transitions, checkpointed rollback, and region edits."""

from __future__ import annotations

import pytest

import properties
from repeton.agentio import Conversation
from repeton.codesearch import make_query, MatchEntry, MatchSet
from repeton.errors import (
    AtFinalStage,
    BudgetExhausted,
    FileMismatch,
    FileNotFound,
    ForwardRollback,
    PathEscape,
    SecondEditInIteration,
    SpanOutOfBounds,
    StageIncomplete,
)
from repeton.patcher import (
    STAGE_VOCABULARY,
    IcsrMachine,
    IcsrStage,
    RegionEdit,
)
from repeton.workspace import take_snapshot


def matches() -> MatchSet:
    return MatchSet(
        query=make_query(["add"]),
        entries=(MatchEntry("calc.py", path_hits=0, content_hits=1, score=1),),
        limit=20,
    )


def machine_at(calc_ws, stage: IcsrStage, conv: Conversation | None = None):
    conv = conv if conv is not None else Conversation()
    machine = IcsrMachine(calc_ws, conv)
    if stage >= IcsrStage.FileSearch:
        machine.advance_stage(make_query(["add"]))
    if stage >= IcsrStage.Outline:
        machine.advance_stage(matches())
    if stage >= IcsrStage.Localize:
        machine.advance_stage("calc.py")
    if stage >= IcsrStage.Edit:
        machine.advance_stage("add")
    return machine


def test_machine_starts_at_keywords_with_a_checkpoint(calc_ws):
    conv = Conversation()
    machine = IcsrMachine(calc_ws, conv)
    assert machine.state.stage is IcsrStage.Keywords
    assert machine.state.attempts == {IcsrStage.Keywords: 1}
    checkpoint = machine.state.checkpoints[IcsrStage.Keywords]
    assert checkpoint.message_count == 0
    assert checkpoint.snapshot.taken_at_stage == "Keywords"


def test_stages_advance_in_fixed_order(calc_ws):
    machine = IcsrMachine(calc_ws, Conversation())
    machine.advance_stage(make_query(["add"]))
    assert machine.state.stage is IcsrStage.FileSearch
    machine.advance_stage(matches())
    assert machine.state.stage is IcsrStage.Outline
    machine.advance_stage("calc.py")
    assert machine.state.stage is IcsrStage.Localize
    assert machine.state.active_file == "calc.py"
    machine.advance_stage((4, 5))
    assert machine.state.stage is IcsrStage.Edit


def test_every_stage_has_a_vocabulary():
    assert set(STAGE_VOCABULARY) == set(IcsrStage)
    assert "done" in STAGE_VOCABULARY[IcsrStage.Edit]
    assert "rollback" not in STAGE_VOCABULARY[IcsrStage.Keywords]


def test_advance_rejects_wrong_evidence(calc_ws):
    machine = IcsrMachine(calc_ws, Conversation())
    with pytest.raises(StageIncomplete):
        machine.advance_stage("add")

    machine.advance_stage(make_query(["add"]))
    empty = MatchSet(query=make_query(["zz"]), entries=(), limit=20)
    with pytest.raises(StageIncomplete):
        machine.advance_stage(empty)

    machine.advance_stage(matches())
    with pytest.raises(StageIncomplete):
        machine.advance_stage("no_such_file.py")


def test_advance_past_edit_is_refused(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    with pytest.raises(AtFinalStage):
        machine.advance_stage("anything")


def test_rollback_restores_workspace_and_conversation(calc_ws):
    conv = Conversation()
    machine = machine_at(calc_ws, IcsrStage.Localize, conv)
    digests_at_localize = dict(take_snapshot(calc_ws, "probe").digest_map)
    length_at_localize = len(conv)

    machine.advance_stage((4, 5))
    conv.append("user", "scouting")
    conv.append("assistant", "poking around")
    machine.apply_region_edit(RegionEdit("calc.py", 5, 5, "    return 0\n"))
    assert "return 0" in (calc_ws.root / "calc.py").read_text()

    machine.rollback_stage(IcsrStage.Localize, "wrong region")
    assert machine.state.stage is IcsrStage.Localize
    assert dict(take_snapshot(calc_ws, "probe").digest_map) == digests_at_localize
    assert len(conv) == length_at_localize
    assert "return 0" not in (calc_ws.root / "calc.py").read_text()


def test_rollback_must_target_an_earlier_stage(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Outline)
    with pytest.raises(ForwardRollback):
        machine.rollback_stage(IcsrStage.Outline, "same stage")
    with pytest.raises(ForwardRollback):
        machine.rollback_stage(IcsrStage.Edit, "later stage")


def test_rollback_drops_later_checkpoints(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Localize)
    assert IcsrStage.Outline in machine.state.checkpoints
    machine.rollback_stage(IcsrStage.FileSearch, "different files")
    assert IcsrStage.Outline not in machine.state.checkpoints
    assert IcsrStage.Localize not in machine.state.checkpoints
    assert machine.state.active_file is None


def test_reentering_a_stage_three_times_exhausts_it(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Outline)
    machine.rollback_stage(IcsrStage.FileSearch, "retry")

    machine.advance_stage(matches())
    machine.rollback_stage(IcsrStage.FileSearch, "retry again")
    assert machine.state.attempts[IcsrStage.FileSearch] == 3

    machine.advance_stage(matches())
    with pytest.raises(BudgetExhausted):
        machine.rollback_stage(IcsrStage.FileSearch, "one too many")


def test_refused_rollback_leaves_tree_untouched(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Outline)
    machine.rollback_stage(IcsrStage.FileSearch, "r1")
    machine.advance_stage(matches())
    machine.rollback_stage(IcsrStage.FileSearch, "r2")
    machine.advance_stage(matches())

    (calc_ws.root / "calc.py").write_text("MUTATED = 1\n")
    before = dict(take_snapshot(calc_ws, "probe").digest_map)
    with pytest.raises(BudgetExhausted):
        machine.rollback_stage(IcsrStage.FileSearch, "r3")
    assert dict(take_snapshot(calc_ws, "probe").digest_map) == before


def test_failed_attempts_charge_the_current_stage(calc_ws):
    machine = IcsrMachine(calc_ws, Conversation())
    machine.note_failed_attempt()
    machine.note_failed_attempt()
    assert machine.state.attempts[IcsrStage.Keywords] == 3
    with pytest.raises(BudgetExhausted):
        machine.note_failed_attempt()


def test_switch_file_resets_to_localize_and_discards_edit(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    machine.apply_region_edit(RegionEdit("calc.py", 5, 5, "    return 0\n"))

    machine.switch_active_file("util.py")
    assert machine.state.stage is IcsrStage.Localize
    assert machine.state.active_file == "util.py"
    assert IcsrStage.Edit not in machine.state.checkpoints
    assert "return 0" not in (calc_ws.root / "calc.py").read_text()
    assert not machine.state.edit_applied


def test_switch_file_requires_localize_or_edit(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Outline)
    with pytest.raises(StageIncomplete):
        machine.switch_active_file("util.py")


def test_switch_file_requires_an_existing_file(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    with pytest.raises(FileNotFound):
        machine.switch_active_file("ghost.py")


def test_switch_does_not_burn_rollback_budget(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    attempts_before = dict(machine.state.attempts)
    machine.switch_active_file("util.py")
    assert machine.state.attempts == attempts_before


def test_edit_replaces_exactly_the_span(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    diff = machine.apply_region_edit(
        RegionEdit("calc.py", 5, 5, "    return a + b")
    )
    lines = (calc_ws.root / "calc.py").read_text().splitlines()
    assert lines[4] == "    return a + b"
    assert diff.files_touched == 1
    assert diff.hunk_count == 1
    assert "+    return a + b" in diff.text


def test_edit_is_only_legal_in_edit_stage(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Localize)
    with pytest.raises(StageIncomplete):
        machine.apply_region_edit(RegionEdit("calc.py", 5, 5, "x = 1\n"))


def test_edit_must_target_the_active_file(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    with pytest.raises(FileMismatch):
        machine.apply_region_edit(RegionEdit("util.py", 1, 1, "x = 1\n"))


def test_edit_span_must_exist(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    with pytest.raises(SpanOutOfBounds):
        machine.apply_region_edit(RegionEdit("calc.py", 5, 99, "x = 1\n"))


def test_second_edit_in_same_iteration_is_refused(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    machine.apply_region_edit(RegionEdit("calc.py", 5, 5, "    return a\n"))
    with pytest.raises(SecondEditInIteration):
        machine.apply_region_edit(RegionEdit("calc.py", 5, 5, "    return b\n"))


def test_new_iteration_allows_another_edit(calc_ws):
    machine = machine_at(calc_ws, IcsrStage.Edit)
    machine.apply_region_edit(RegionEdit("calc.py", 5, 5, "    return a\n"))
    machine.begin_iteration()
    diff = machine.apply_region_edit(
        RegionEdit("calc.py", 5, 5, "    return a + b\n")
    )
    assert diff.files_touched == 1


def test_region_edit_validates_line_numbers():
    with pytest.raises(ValueError):
        RegionEdit("calc.py", 0, 1, "x\n")
    with pytest.raises(ValueError):
        RegionEdit("calc.py", 5, 4, "x\n")


def test_rollback_soundness_property(calc_ws):
    checked = properties.run_rollback_soundness(calc_ws, cases=25, seed=1)
    assert checked >= 10


def test_edit_minimality_property(calc_ws):
    checked = properties.run_edit_minimality(calc_ws, scenarios=15, seed=2)
    assert checked == 15


def test_outline_evidence_must_stay_in_the_workspace(calc_ws, escaping_path):
    path, _ = escaping_path
    machine = machine_at(calc_ws, IcsrStage.Outline)
    with pytest.raises(PathEscape):
        machine.advance_stage(path)
    assert machine.state.stage is IcsrStage.Outline
    assert machine.state.active_file is None


def test_switch_target_must_stay_in_the_workspace(calc_ws, escaping_path):
    path, _ = escaping_path
    machine = machine_at(calc_ws, IcsrStage.Edit)
    with pytest.raises(PathEscape):
        machine.switch_active_file(path)
    assert machine.state.active_file == "calc.py"


def test_edit_never_writes_outside_the_workspace(calc_ws, escaping_path):
    path, victim = escaping_path
    original = victim.read_bytes()
    machine = machine_at(calc_ws, IcsrStage.Edit)
    machine.state.active_file = path
    with pytest.raises(PathEscape):
        machine.apply_region_edit(RegionEdit(path, 1, 1, "HACKED = 1\n"))
    assert victim.read_bytes() == original
