"""Stream container and CSV serialization tests."""

import numpy as np
import pytest

from gdpacer.streams import (ImpressionRequest, ImpressionStream, PeriodBatch,
                             StreamFormatError, from_requests, load_stream_csv,
                             save_stream_csv)
from oracle import campaign_ids, iter_requests, per_impression


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
