"""Stream container and CSV serialization tests."""

import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from gdpacer.quality import BetaQualityModel
from gdpacer.simulate import CampaignSpec, ScenarioConfig, default_scenario, generate_stream
from gdpacer.streams import (ImpressionStream, PeriodBatch, StreamFormatError, load_stream_csv,
                             save_stream_csv)
from oracle import ImpressionRequest, campaign_ids, from_requests, iter_requests, per_impression


def _demo_stream() -> ImpressionStream:
    reqs = [
        ImpressionRequest(0, 0, {1: 0.25, 3: 0.5}),
        ImpressionRequest(1, 0, {2: 0.125}),
        ImpressionRequest(2, 1, {1: 0.75}),
        ImpressionRequest(3, 1, {2: 0.0625, 3: 0.9375}),
        ImpressionRequest(4, 1, {1: 0.375}),
    ]
    return from_requests(reqs)


def test_from_requests_shape_and_ordering():
    s = _demo_stream()
    assert s.n_periods == 2
    assert s.total_requests == 5
    assert s.total_edges == 7
    assert campaign_ids(s) == [1, 2, 3]
    p0 = s.periods[0]
    assert p0.req.tolist() == [0, 0, 1]
    assert p0.camp.tolist() == [1, 3, 2]   # ascending id within each request
    assert p0.v.tolist() == [0.25, 0.5, 0.125]


def test_iter_requests_round_trips_records():
    s = _demo_stream()
    got = list(iter_requests(s))
    assert [r.request_id for r in got] == [0, 1, 2, 3, 4]
    assert got[3].qualities == {2: 0.0625, 3: 0.9375}
    assert got[3].period == 1


def test_csv_round_trip_identity(tmp_path):
    s = _demo_stream()
    path = tmp_path / "stream.csv"
    save_stream_csv(s, path)
    assert load_stream_csv(path) == s


def test_csv_quantizes_to_six_decimals(tmp_path):
    s = from_requests([ImpressionRequest(0, 0, {1: 0.1234565})])
    path = tmp_path / "stream.csv"
    save_stream_csv(s, path)
    loaded = load_stream_csv(path)
    assert loaded.periods[0].v[0] == pytest.approx(0.123456, abs=5.1e-7)


def test_header_only_file_is_empty_stream(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("request_id,period,campaign_id,ctr\n")
    s = load_stream_csv(path)
    assert s.n_periods == 0 and s.total_requests == 0


def test_three_row_single_request(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("request_id,period,campaign_id,ctr\n"
                    "7,0,2,0.5\n7,0,5,0.25\n8,0,2,0.125\n")
    s = load_stream_csv(path)
    assert s.total_requests == 2
    reqs = list(iter_requests(s))
    assert reqs[0].qualities == {2: 0.5, 5: 0.25}


@pytest.mark.parametrize("body,line", [
    ("bad,header,row,x\n", 1),
    ("request_id,period,campaign_id,ctr\n1,0,2\n", 2),
    ("request_id,period,campaign_id,ctr\n1,0,2,0.5\n2,0,2,1.5\n", 3),
    ("request_id,period,campaign_id,ctr\n1,0,2,0.5\n2,0,2,0.0\n", 3),
    ("request_id,period,campaign_id,ctr\n1,0,2,abc\n", 2),
    ("request_id,period,campaign_id,ctr\n1,1,2,0.5\n2,0,2,0.5\n", 3),
    ("request_id,period,campaign_id,ctr\n1,0,2,0.5\n1,0,3,0.123456789\n", 3),
    ("request_id,period,campaign_id,ctr\n1,0,2,5e-1\n", 2),
    (f"request_id,period,campaign_id,ctr\n1,0,2,0.5\n{2**70},0,2,0.5\n", 3),
    ("request_id,period,campaign_id,ctr\n1,0,2,0.5\n2,0,-9223372036854775809,0.5\n", 3),
    ("request_id,period,campaign_id,ctr\n1_0,0,2,0.5\n", 2),
    ("request_id,period,campaign_id,ctr\n1,0,2,0.5\n\u0663,0,2,0.5\n", 3),
    ("request_id,period,campaign_id,ctr\n1,0,2,0.5\n2,0,2,\u0660.\u0665\n", 3),
])
def test_loader_errors_carry_line_numbers(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(StreamFormatError, match=f"line {line}"):
        load_stream_csv(path)


def test_missing_header_entirely(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text("")
    with pytest.raises(StreamFormatError, match="line 1"):
        load_stream_csv(path)


def test_per_impression_rechunk():
    s = _demo_stream()
    flat = per_impression(s)
    assert flat.n_periods == s.total_requests
    assert all(p.n_requests == 1 for p in flat.periods)
    assert flat.total_edges == s.total_edges
    # edge content survives in order
    v_orig = np.concatenate([p.v for p in s.periods])
    v_flat = np.concatenate([p.v for p in flat.periods])
    assert np.array_equal(v_orig, v_flat)


def test_fingerprint_period_agnostic():
    s = _demo_stream()
    assert per_impression(s).fingerprint() == s.fingerprint()


def test_fingerprint_sensitivity():
    base = _demo_stream().fingerprint()
    bumped = _demo_stream()
    bumped.periods[0].v[0] += 1e-6
    assert bumped.fingerprint() != base
    recamped = _demo_stream()
    recamped.periods[1].camp[0] = 2
    assert recamped.fingerprint() != base


def test_stream_equality_operator():
    assert _demo_stream() == _demo_stream()
    other = _demo_stream()
    other.periods[0].v[1] = 0.51
    assert _demo_stream() != other
    assert _demo_stream().__eq__(42) is NotImplemented
    assert _demo_stream() != 42


def test_empty_period_batch_counts():
    p = PeriodBatch(request_ids=np.array([5], dtype=np.int64),
                    req=np.empty(0, dtype=np.int64),
                    camp=np.empty(0, dtype=np.int64),
                    v=np.empty(0))
    s = ImpressionStream(periods=[p])
    assert s.total_requests == 1 and s.total_edges == 0


HEADER = "request_id,period,campaign_id,ctr\n"


def test_ids_allow_spaces_signs_and_the_int64_extremes(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(HEADER + f" 7 ,+0, 2 , 0.5 \n{-2**63},1,{2**63 - 1},0.25\n")
    p0, p1 = load_stream_csv(path).periods
    assert p0.request_ids.tolist() == [7] and p0.camp.tolist() == [2]
    assert p1.request_ids.tolist() == [-2**63] and p1.camp.tolist() == [2**63 - 1]


@pytest.mark.parametrize("body,message", [
    ("1_0,0,2,1.5\n", "line 2: ctr must lie"),
    ("1_0,0,2,0.5\n2,0,2,1.5\n", "line 2: ids must be plain ASCII decimal integers"),
    (f"1,0,2,0.5\n1,0,{2**63},0.5\n", "line 3: ids must lie in the int64 range"),
    (f"1,0,2,0.5\n1,0,{2**63},0.5\n1,0,2,0.5\n", "line 3: ids must lie in the int64 range"),
])
def test_id_errors_come_in_file_order_after_the_rows_other_checks(tmp_path, body, message):
    path = tmp_path / "ids.csv"
    path.write_text(HEADER + body)
    with pytest.raises(StreamFormatError, match=message):
        load_stream_csv(path)


@pytest.mark.parametrize("body", [
    "",
    "bad,header,row,x\n",
    HEADER + "1,0,2\n",
    HEADER + "1,0,2,0.5,9\n",
    HEADER + "1,0,x,0.5\n",
    HEADER + "1,0,2,0.5\n2,0,2,1.5\n",
    HEADER + "1,0,2,0.0\n",
    HEADER + "1,0,2,nan\n",
    HEADER + "1,0,2,5e-1\n",
    HEADER + "1,0,2,0.1234567\n",
    HEADER + "1,1,2,0.5\n2,0,2,0.5\n",
    HEADER + "1,0,2,0.5\n2,0,2,0.5\n1,0,3,0.5\n",
    HEADER + "1,0,2,0.5\n\n1,0,2,0.25\n",
    HEADER + '"1\n",0,2,0.5\n1,0,2,0.5\n',
    HEADER + "1,0,2,\u0660.\u0665\n",
])
def test_loader_messages_match_the_reference(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(StreamFormatError) as ref:
        oracle.load_stream_csv(path)
    with pytest.raises(StreamFormatError) as got:
        load_stream_csv(path)
    assert str(got.value) == str(ref.value)


# --- differential test of the loader over mutated files ------------------------

_TOKENS = ["", "x", " 5 ", "+4", "-3", "0", "7", "1_0", "٣", " 5", str(2**63),
           str(-2**63), "0.5", "1.5", "0.0", "0.1234567", "5e-1", ".25", "nan", '"9"',
           "\u0660.\u0665"]
_PLAIN_INT = re.compile(r" *[+-]?[0-9]+ *")


def _base_file() -> str:
    rows = ["1,0,2,0.5", "1,0,4,0.25", "2,0,3,0.125", "3,1,2,0.75", "3,1,3,0.5",
            "4,1,2,0.0625", "4,2,1,0.9", "5,2,1,0.3"]
    return HEADER + "".join(row + "\n" for row in rows)


@st.composite
def _mutated_files(draw):
    lines = _base_file().split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        op = draw(st.sampled_from(["field", "field", "drop", "dup", "swap", "blank", "extra"]))
        fields = lines[k].split(",")
        if op == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[k] = ",".join(fields)
        elif op == "drop":
            del lines[k]
        elif op == "dup":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "blank":
            lines.insert(k, "")
        else:
            lines[k] += ",1"
    return "\n".join(lines) + "\n"


def _first_line_with_unplain_ids(text: str) -> int | None:
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader, None)
    for row in reader:
        if not all(_PLAIN_INT.fullmatch(f) and -2**63 <= int(f) < 2**63 for f in row[:3]):
            return reader.line_num
    return None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_files())
def test_loader_matches_the_reference_loader(text):
    # the reference's message wherever it refuses a row no later than the
    # first row with ids that are not plain int64 decimals, a refusal of
    # that row wherever it comes first, and an equal stream otherwise
    bad_ids = _first_line_with_unplain_ids(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_text(text, encoding="utf-8")
        try:
            ref, refusal = oracle.load_stream_csv(path), None
        except StreamFormatError as exc:
            ref, refusal = None, str(exc)
        except OverflowError:                   # only for an id beyond int64
            ref, refusal = None, None
        refused_line = int(re.match(r"line (\d+)", refusal)[1]) if refusal else math.inf
        if bad_ids is not None and bad_ids < refused_line:
            with pytest.raises(StreamFormatError, match=f"^line {bad_ids}: ids must "):
                load_stream_csv(path)
        elif refusal is not None:
            with pytest.raises(StreamFormatError) as got:
                load_stream_csv(path)
            assert str(got.value) == refusal
        else:
            got = load_stream_csv(path)
            assert got == ref and got.fingerprint() == ref.fingerprint()


# --- the writer ------------------------------------------------------------------

def test_save_refuses_a_request_without_edges(tmp_path):
    # the reference writer drops such requests: 44 of 500 are lost on a
    # stream of the per-impression benchmark's shape
    s = generate_stream(oracle.load_script("run_regret_scaling").instance(500, 0))
    ref = tmp_path / "ref.csv"
    oracle.save_stream_csv(s, ref)
    assert load_stream_csv(ref).total_requests == 456 < s.total_requests == 500
    t, p = next((t, p) for t, p in enumerate(s.periods)
                if np.bincount(p.req, minlength=p.n_requests).min() == 0)
    rid = p.request_ids[np.bincount(p.req, minlength=p.n_requests).argmin()]
    path = tmp_path / "s.csv"
    with pytest.raises(StreamFormatError, match=f"period {t}: request {rid} recalls no campaign"):
        save_stream_csv(s, path)
    assert not path.exists()


def test_save_refuses_an_empty_period(tmp_path):
    s = _demo_stream()
    s.periods.insert(1, PeriodBatch(request_ids=np.empty(0, dtype=np.int64),
                                    req=np.empty(0, dtype=np.int64),
                                    camp=np.empty(0, dtype=np.int64), v=np.empty(0)))
    path = tmp_path / "s.csv"
    with pytest.raises(StreamFormatError, match="period 1: no requests"):
        save_stream_csv(s, path)
    assert not path.exists()


@pytest.mark.parametrize("edit, needle", [
    (lambda p: p.v.__setitem__(1, 0.9999996), "period 1: request 3 has quality 0.9999996"),
    (lambda p: p.v.__setitem__(0, 4e-7), "period 1: request 2 has quality 4e-07"),
    (lambda p: p.request_ids.__setitem__(2, 2), "period 1: request id 2 is repeated"),
])
def test_save_refuses_what_the_loader_cannot_give_back(tmp_path, edit, needle):
    # 6 decimals write the first two qualities as 1.000000 and 0.000000, and
    # a repeated request id loads back as one request
    s = _demo_stream()
    edit(s.periods[1])
    path = tmp_path / "s.csv"
    with pytest.raises(StreamFormatError, match=f"^{needle}, which the stream CSV cannot carry"):
        save_stream_csv(s, path)
    assert not path.exists()


def test_desk_stream_round_trips_through_the_reference_bytes(tmp_path):
    s = generate_stream(default_scenario(seed=0))
    path, ref = tmp_path / "s.csv", tmp_path / "ref.csv"
    save_stream_csv(s, path)
    oracle.save_stream_csv(s, ref)
    assert path.read_bytes() == ref.read_bytes()
    loaded = load_stream_csv(path)
    assert loaded == s and loaded.fingerprint() == s.fingerprint()


@st.composite
def _scenarios(draw):
    M = draw(st.integers(1, 4))
    specs = [CampaignSpec(id=draw(st.integers(0, 3)) * 4 + j, budget=10,
                          recall_prob=draw(st.sampled_from([0.05, 0.3, 0.9, 1.0])),
                          quality_model=BetaQualityModel(draw(st.sampled_from([2.0, 5.0, 8.0])),
                                                         draw(st.sampled_from([2.0, 5.0, 8.0]))))
             for j in range(M)]
    T = draw(st.integers(1, 6))
    drift = draw(st.none() | st.integers(0, T - 1))
    return ScenarioConfig(num_periods=T, requests_per_period=draw(st.integers(1, 8)),
                          campaigns=specs, seed=draw(st.integers(0, 2**16)), drift_period=drift,
                          drift_models=None if drift is None else
                          {specs[0].id: BetaQualityModel(8.0, 2.0)})


def _one_campaign(recall: float, R: int, drift: bool) -> ScenarioConfig:
    spec = CampaignSpec(id=3, budget=5, recall_prob=recall, quality_model=BetaQualityModel(2, 5))
    return ScenarioConfig(num_periods=4, requests_per_period=R, campaigns=[spec], seed=1,
                          drift_period=2 if drift else None,
                          drift_models={3: BetaQualityModel(8, 2)} if drift else None)


def _refusal(s: ImpressionStream) -> str | None:
    """What the first period the CSV cannot carry has wrong, checked through
    the records and the written digits."""
    for p in s.periods:
        qualities = [r.qualities for r in iter_requests(ImpressionStream([p]))]
        if not all(qualities):
            return "recalls no campaign"
        if len(set(p.request_ids.tolist())) < p.n_requests:
            return "is repeated"
        if any(f"{v:.6f}" in ("0.000000", "1.000000") for q in qualities for v in q.values()):
            return "has quality"
    return None


# qualities at and next to the two doubles where 6 decimals start to write 0 or 1
_EDGE_QUALITIES = [4e-7, 5e-7, float(np.nextafter(5e-7, 1.0)), float(np.nextafter(0.9999995, 0.0)),
                   0.9999995, 0.9999996]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_scenarios(), edit=st.sampled_from([None, "quality", "repeat"]),
       at=st.integers(0, 2**16), v=st.sampled_from(_EDGE_QUALITIES))
@example(cfg=_one_campaign(1.0, 1, drift=True), edit=None, at=0, v=0.5)     # M = R = 1: carried
@example(cfg=_one_campaign(0.05, 6, drift=False), edit=None, at=0, v=0.5)   # low recall: refused
def test_save_load_round_trip_property(cfg, edit, at, v):
    # whenever save accepts a stream, loading gives it back and the bytes are
    # the reference writer's; it refuses exactly the streams with a request
    # that recalls nothing, a request id repeated within a period, or a
    # quality written as 0 or 1
    s = generate_stream(cfg)
    p = s.periods[at % s.n_periods]
    if edit == "quality" and p.n_edges:
        p.v[at % p.n_edges] = v
    elif edit == "repeat" and p.n_requests > 1:
        p.request_ids[1 + at % (p.n_requests - 1)] = p.request_ids[0]
    refusal = _refusal(s)
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "s.csv", Path(tmp) / "ref.csv"
        if refusal is not None:
            with pytest.raises(StreamFormatError, match=refusal):
                save_stream_csv(s, path)
            assert not path.exists()
            return
        save_stream_csv(s, path)
        oracle.save_stream_csv(s, ref)
        assert path.read_bytes() == ref.read_bytes()
        if edit == "quality" and p.n_edges:
            p.v[at % p.n_edges] = float(f"{v:.6f}")      # what the file carries
        assert load_stream_csv(path) == s
