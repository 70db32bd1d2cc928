"""The memo rule of the analysis layer (:func:`repro.perf.config.memoised`):
``generic`` mode never reads and never writes a memo slot; the
accelerated modes keep one ``(key, value)`` slot per instance."""

import pytest

from repro.perf.config import analysis_mode_set, memoised
from repro.profibus import analyse, token_cycle_report
from repro.profibus import dm, edf
from repro.profibus.network import master_pack_columns, stream_specs
from repro.profibus.timing import tcycle
from repro.scenarios import factory_cell_network

#: Every slot the profibus layer memoises through the helper.
SLOTS = {
    "_memo_cycle", "_memo_specs", "_memo_pack_cols", "_memo_cm",
    "_memo_chm", "_memo_tdel", "_memo_tdel_refined", "_memo_dm_ts",
    "_memo_dm_rows", "_memo_edf_ts", "_memo_edf_rows", "_memo_fcfs_rows",
}


def _owners(net):
    return ([net] + list(net.masters)
            + [s for m in net.masters for s in m.streams])


def _slots(net):
    return {(i, k) for i, obj in enumerate(_owners(net))
            for k in vars(obj) if k.startswith("_memo_")}


def _everything(net):
    """Every memoised entry point, as comparable plain data."""
    out = []
    for refined in (False, True):
        for policy in ("fcfs", "dm", "edf"):
            res = analyse(net, policy, refined=refined)
            out.append((policy, refined, res.tcycle, res.per_stream))
    out.append(token_cycle_report(net))
    tc = tcycle(net)
    for master in net.masters:
        out.append(stream_specs(master))
        out.append(master_pack_columns(master, net.phy))
        out.extend(s.cycle_bits(net.phy) for s in master.streams)
        if master.high_streams:
            out.append(tuple(t.C for t in dm._master_taskset(master, tc)))
            out.append(tuple(t.C for t in edf._staged_taskset(master, tc)))
    return out


def test_fast_mode_fills_every_slot():
    net = factory_cell_network()
    _everything(net)
    assert {k for _i, k in _slots(net)} == SLOTS


def test_generic_never_reads_a_slot():
    poisoned = factory_cell_network()
    _everything(poisoned)  # fast mode: every slot filled
    junk = object()
    for obj in _owners(poisoned):
        for name in [k for k in vars(obj) if k.startswith("_memo_")]:
            key, _value = vars(obj)[name]
            object.__setattr__(obj, name, (key, junk))
    with pytest.raises(TypeError):  # the poison bites where slots are read
        _everything(poisoned)
    with analysis_mode_set("generic"):
        assert _everything(poisoned) == _everything(factory_cell_network())


def test_generic_never_writes_a_slot():
    net = factory_cell_network()
    with analysis_mode_set("generic"):
        _everything(net)
    assert _slots(net) == set()


class _Owner:
    pass


def test_one_slot_keyed_by_identity_or_equality():
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    owner = _Owner()
    assert memoised(owner, "_memo_sq", 3, square, 3) == 9
    assert memoised(owner, "_memo_sq", 3, square, 3) == 9
    assert memoised(owner, "_memo_sq", 4, square, 4) == 16
    assert memoised(owner, "_memo_sq", 3, square, 3) == 9  # slot replaced
    assert calls == [3, 4, 3]
    assert vars(owner) == {"_memo_sq": (3, 9)}
    with analysis_mode_set("generic"):
        assert memoised(owner, "_memo_sq", 3, square, 3) == 9
    assert calls == [3, 4, 3, 3]
