"""Tests for the unified ``repro.api`` facade, its value key and the
result cache the daemon keeps under it."""

import json
import sys
import threading

import pytest

from repro import api
from repro.api import AnalysisRequest, AnalysisResult, ApiError
from repro.perf.cache import ResultCache
from repro.perf.config import analysis_mode
from repro.profibus import analyse, network_to_dict
from repro.scenarios import factory_cell_network


def _net_doc():
    return network_to_dict(factory_cell_network())


def _analyse_request(**overrides):
    kwargs = dict(op="analyse", network=_net_doc())
    kwargs.update(overrides)
    return AnalysisRequest(**kwargs)


class TestRequestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ApiError, match="unknown op"):
            AnalysisRequest(op="frobnicate", network=_net_doc())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ApiError, match="unknown policy"):
            _analyse_request(policy="rm")

    def test_sweep_needs_param(self):
        with pytest.raises(ApiError, match="sweep_param"):
            AnalysisRequest(op="sweep", network=_net_doc())

    def test_sweep_needs_values_except_baud(self):
        with pytest.raises(ApiError, match="sweep_values"):
            AnalysisRequest(op="sweep", network=_net_doc(),
                            sweep_param="ttr")
        # baud defaults to the standard rates
        AnalysisRequest(op="sweep", network=_net_doc(), sweep_param="baud")

    def test_admission_needs_master_and_stream(self):
        with pytest.raises(ApiError, match="admission_master"):
            AnalysisRequest(op="admission", network=_net_doc())
        with pytest.raises(ApiError, match="admission_stream"):
            AnalysisRequest(op="admission", network=_net_doc(),
                            admission_master=9)

    def test_requests_compare_by_value(self):
        assert _analyse_request() == _analyse_request()
        assert _analyse_request() != _analyse_request(policy="edf")


def _request_doc(**overrides):
    doc = {"schema": api.API_SCHEMA, "op": "analyse", "network": _net_doc()}
    doc.update(overrides)
    return doc


def _network_doc(edit):
    net = _net_doc()
    edit(net)
    return _request_doc(network=net)


def _stream0(net):
    return net["masters"][0]["streams"][0]


_ADMIT = {"op": "admission",
          "admission_stream": {"name": "new", "T": 120_000, "C_bits": 500}}
_TTR_SWEEP = {"op": "sweep", "sweep_param": "ttr"}

#: Malformed request documents, each of which once escaped
#: ``execute_request_doc`` as a bare exception (the daemon then answered
#: ``internal``) or was accepted with a wrong value.
MALFORMED = {
    "ttr-string": _request_doc(ttr="30000"),
    "ttr-float": _request_doc(ttr=30000.5),
    "refined-string": _request_doc(refined="yes"),
    "policies-int": _request_doc(op="sweep", sweep_param="ttr",
                                 sweep_values=[3000], policies=5),
    "admission-master-string": _request_doc(**_ADMIT, admission_master="1"),
    "admission-master-float": _request_doc(**_ADMIT, admission_master=1.5),
    "sweep-value-string": _request_doc(**_TTR_SWEEP, sweep_values=["a"]),
    "sweep-value-null": _request_doc(**_TTR_SWEEP, sweep_values=[None]),
    "sweep-value-infinite": _request_doc(
        **_TTR_SWEEP, sweep_values=json.loads("[Infinity]")),
    # once analysed, and reported, as 500000
    "sweep-baud-fractional": _request_doc(
        op="sweep", sweep_param="baud", sweep_values=[500000.9]),
    "masters-of-ints": _network_doc(lambda n: n.update(masters=[1])),
    "master-address-string": _network_doc(
        lambda n: n["masters"][0].update(address="x")),
    "master-streams-string": _network_doc(
        lambda n: n["masters"][0].update(streams="abc")),
    "slave-without-address": _network_doc(
        lambda n: n.update(slaves=[{"addr": 3}])),
    "duplicate-addresses": _network_doc(
        lambda n: n["masters"][1].update(address=1)),
    "address-out-of-range": _network_doc(
        lambda n: n["masters"][0].update(address=200)),
    "network-ttr-negative": _network_doc(lambda n: n.update(ttr=-5)),
    "no-masters": _network_doc(lambda n: n.update(masters=[])),
    # wrongly typed network values: a bare TypeError from the analysis,
    # or float arithmetic in the exact-integer result ("tsl": 100.5
    # gave "tcycle": 36207.0)
    "cycle-req-payload-string": _network_doc(
        lambda n: _stream0(n)["cycle"].update(req_payload="x")),
    "cycle-max-retry-string": _network_doc(
        lambda n: _stream0(n)["cycle"].update(max_retry="2")),
    "cycle-short-ack-string": _network_doc(
        lambda n: _stream0(n)["cycle"].update(short_ack="yes")),
    "phy-tsl-float": _network_doc(lambda n: n["phy"].update(tsl=100.5)),
    "phy-baud-rate-float": _network_doc(
        lambda n: n["phy"].update(baud_rate=500000.5)),
    "network-ttr-float": _network_doc(lambda n: n.update(ttr=30000.5)),
    "stream-T-float": _network_doc(lambda n: _stream0(n).update(T=75000.5)),
    "stream-T-bool": _network_doc(lambda n: _stream0(n).update(T=True)),
    "stream-name-int": _network_doc(lambda n: _stream0(n).update(name=5)),
    "master-address-float": _network_doc(
        lambda n: n["masters"][0].update(address=1.0)),
    "master-name-int": _network_doc(lambda n: n["masters"][0].update(name=5)),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_is_an_api_error(self, case):
        with pytest.raises(ApiError):
            api.execute_request_doc(MALFORMED[case])

    def test_valid_values_of_the_checked_fields_pass(self):
        doc = _request_doc(op="sweep", sweep_param="ttr", ttr=3000,
                           refined=True, policies=["dm"],
                           sweep_values=[3000, 4000])
        result = api.execute_request_doc(doc)
        assert [row["value"] for row in result["payload"]["rows"]] \
            == [3000, 4000]
        result = api.execute_request_doc(_request_doc(
            **_ADMIT, admission_master=9))
        assert result["payload"]["master"] == 9

    def test_python_built_models_stay_polymorphic(self):
        # the typed contract is the document's; the generic path still
        # takes models built in Python with any Number
        from fractions import Fraction

        from repro.profibus import Master, MessageStream, Network

        net = Network(masters=(Master(address=1, streams=(
            MessageStream("s", T=Fraction(90000), C_bits=700),)),),
            ttr=5000)
        assert analyse(net, "dm").schedulable


class TestSweepValues:
    def test_huge_deadline_scale_clamps_to_periods(self):
        # 1e308 once overflowed while rounding D * factor before the
        # clamp to [1, T]; every factor >= 10 sets D = T on this plant
        rows = {
            factor: api.execute_request_doc(_request_doc(
                op="sweep", sweep_param="deadline-scale",
                sweep_values=[factor]))["payload"]["rows"]
            for factor in (10, 1e308)
        }
        for huge, ten in zip(rows[1e308], rows[10]):
            assert huge["value"] == 1e308
            assert dict(huge, value=10) == ten


class TestTransportForms:
    def test_to_dict_omits_defaults(self):
        doc = _analyse_request().to_dict()
        assert set(doc) == {"schema", "op", "network"}

    def test_round_trip_all_fields(self):
        request = AnalysisRequest(
            op="sweep", network=_net_doc(), policies=("dm", "edf"),
            ttr=4000, sweep_param="ttr", sweep_values=(1000, 2000),
        )
        doc = json.loads(json.dumps(request.to_dict()))
        assert AnalysisRequest.from_dict(doc) == request

    def test_from_dict_rejects_unknown_keys(self):
        doc = _analyse_request().to_dict()
        doc["polcy"] = "dm"
        with pytest.raises(ApiError, match="unknown request key"):
            AnalysisRequest.from_dict(doc)

    def test_from_dict_rejects_wrong_schema(self):
        doc = _analyse_request().to_dict()
        # lint: disable=REP003 — deliberately drifted tag: the test
        # proves from_dict rejects it
        doc["schema"] = "profibus-rt/api/v0"
        with pytest.raises(ApiError, match="unsupported request schema"):
            AnalysisRequest.from_dict(doc)

    def test_result_round_trip(self):
        result = api.execute(_analyse_request())
        doc = json.loads(json.dumps(result.to_dict()))
        assert AnalysisResult.from_dict(doc) == result


class TestAnalyse:
    def test_matches_compute_core(self):
        net = factory_cell_network()
        result = api.analyse_network(net, policy="dm")
        core = analyse(net, "dm")
        assert result.schedulable == core.schedulable
        rows = {(r["master"], r["stream"]): r["R"]
                for r in result.payload["streams"]}
        for sr in core.per_stream:
            assert rows[(sr.master, sr.stream.name)] == sr.R

    def test_ttr_override(self):
        with_override = api.analyse_network(factory_cell_network(), ttr=5000)
        assert with_override.payload["ttr"] == 5000

    def test_bad_network_is_api_error(self):
        with pytest.raises(ApiError, match="bad network document"):
            api.execute(AnalysisRequest(op="analyse", network={"bogus": 1}))


class TestSweep:
    def test_rows_and_csv_match_compute_core(self):
        from repro.profibus.sweep import rows_to_csv, ttr_sweep

        net = factory_cell_network()
        result = api.sweep_network(net, "ttr", (2000, 3000))
        rows = ttr_sweep(net, (2000, 3000))
        assert result.payload["csv"] == rows_to_csv(rows)
        assert len(result.payload["rows"]) == len(rows)


class TestAdmission:
    STREAM = {"name": "new-sensor", "T": 120_000, "D": 60_000,
              "cycle": {"req_payload": 0, "resp_payload": 8}}

    def test_harmless_stream_admitted_with_headroom(self):
        result = api.admission_check(factory_cell_network(), 2, self.STREAM)
        payload = result.payload
        assert payload["admitted"] is True
        assert result.schedulable is True
        assert payload["broken_streams"] == []
        assert payload["headroom"]["max_feasible_ttr"] is not None
        assert 0 < payload["headroom"]["deadline_tightening_limit"] <= 1

    def test_joining_stream_appears_in_after(self):
        result = api.admission_check(factory_cell_network(), 2, self.STREAM)
        after = {(r["master"], r["stream"])
                 for r in result.payload["after"]["streams"]}
        before = {(r["master"], r["stream"])
                  for r in result.payload["before"]["streams"]}
        joined = after - before
        assert len(joined) == 1
        assert next(iter(joined))[1] == "new-sensor"

    def test_hostile_stream_rejected_with_broken_list(self):
        hog = {"name": "hog", "T": 20_000, "D": 4_000,
               "cycle": {"req_payload": 128, "resp_payload": 128}}
        result = api.admission_check(factory_cell_network(), 1, hog)
        assert result.payload["admitted"] is False
        assert result.payload["headroom"]["max_feasible_ttr"] is None

    def test_fresh_master_joins_ring(self):
        result = api.admission_check(factory_cell_network(), 9, self.STREAM)
        masters = {r["master"] for r in result.payload["after"]["streams"]}
        assert "M9" in masters

    def test_duplicate_stream_name_rejected(self):
        dup = dict(self.STREAM, name="io-scan-a")
        with pytest.raises(ApiError, match="already has a stream"):
            api.admission_check(factory_cell_network(), 2, dup)


class TestCaching:
    """The daemon's cache key: the fingerprint :func:`api.resolve`
    returns plus the request's analysis coordinates."""

    @staticmethod
    def _key(request):
        _, fingerprint = api.resolve(request)
        return request.cache_key(fingerprint)

    def test_identical_requests_hit(self):
        assert self._key(_analyse_request()) == self._key(_analyse_request())

    def test_value_equal_spellings_collide(self):
        # same content, different document spelling (key order)
        doc_a = _net_doc()
        doc_b = json.loads(json.dumps(doc_a))
        doc_b["masters"] = [dict(reversed(list(m.items())))
                            for m in doc_b["masters"]]
        assert (self._key(AnalysisRequest(op="analyse", network=doc_a))
                == self._key(AnalysisRequest(op="analyse", network=doc_b)))

    def test_different_coordinates_miss(self):
        keys = {self._key(r) for r in (_analyse_request(),
                                       _analyse_request(policy="edf"),
                                       _analyse_request(ttr=5000))}
        assert len(keys) == 3


class TestResolveCompute:
    def test_execute_is_resolve_then_compute(self):
        request = _analyse_request(ttr=5000)
        net, fingerprint = api.resolve(request)
        assert net.ttr == 5000
        assert fingerprint == net.fingerprint()
        assert api.compute(request, net, fingerprint) \
            == api.execute(request)


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes a
        cache.put("c", 3)                   # evicts b
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        snap = cache.snapshot()
        assert snap["evictions"] == 1
        assert snap["size"] == 2 == len(cache)

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.snapshot()["hits"] == 1


class TestExecuteRequestDoc:
    def test_dict_in_dict_out(self):
        doc = api.execute_request_doc(_analyse_request().to_dict())
        assert doc["schema"] == api.API_SCHEMA
        assert doc == api.execute(_analyse_request()).to_dict()

    def test_result_doc_json_stable(self):
        doc = api.execute_request_doc(_analyse_request().to_dict())
        assert json.loads(json.dumps(doc)) == doc


class TestConcurrentModes:
    """Concurrent requests with different ``mode`` overrides must not
    see each other's mode, nor change the default mode of any thread."""

    MODES = ("generic", "vectorized", "generic", "fast")

    def test_mixed_mode_threads_match_serial_and_keep_default(self):
        docs = [
            _analyse_request(policy=policy, ttr=ttr, mode=mode).to_dict()
            for mode in sorted(set(self.MODES))
            for policy in ("fcfs", "dm", "edf")
            for ttr in (None, 50_000)
        ]
        expected = [api.execute_request_doc(doc) for doc in docs]
        errors = []

        def run(mode):
            mine = [i for i, doc in enumerate(docs) if doc["mode"] == mode]
            try:
                for n in range(200):
                    i = mine[n % len(mine)]
                    assert api.execute_request_doc(docs[i]) == expected[i]
                    # no other thread's override may show through here
                    assert analysis_mode() == "fast"
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((mode, exc))

        threads = [threading.Thread(target=run, args=(mode,))
                   for mode in self.MODES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert analysis_mode() == "fast"
