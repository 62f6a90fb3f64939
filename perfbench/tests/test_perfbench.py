"""Tests of the benchmark harness itself: workloads, seed, gate, tracing."""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import bench_gate  # noqa: E402
import bench_specs  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import run  # noqa: E402

from supercusp import correspond  # noqa: E402
from supercusp.padic import inner_forms_by_token  # noqa: E402
from supercusp.rootdata import build_group, isogeny_tokens, parse_type  # noqa: E402


class TestWorkloads:
    def test_gamma_and_rank_lists(self):
        assert bench_specs.WORKLOADS["gamma"] == tuple(
            f"{t}:adjoint:*" for t in "A4 A5 A6 A7 G2 F4 E6".split())
        assert bench_specs.WORKLOADS["rank"] == tuple(
            f"{t}:adjoint:*"
            for t in "B9 C9 D9 2D9 B10 C10 D10 2D10".split())

    def test_isogeny_list_is_every_accepted_isogeny(self):
        types = ("2A5 2A7 2A9 B7 C7 D4 D5 D6 D7 D8 2D4 2D5 2D6 2D7 2D8 "
                 "3D4 2E6").split()
        want = []
        for t in types:
            fam, rank, _ = parse_type(t)
            for iso in isogeny_tokens(fam, rank):
                try:
                    build_group(t, iso)
                except ValueError:
                    continue
                want.append(f"{t}:{iso}:*")
        assert bench_specs.WORKLOADS["isogeny"] == tuple(want)
        assert len(want) == 56

    @pytest.mark.parametrize("workload", sorted(bench_specs.WORKLOADS))
    def test_every_spec_builds(self, workload):
        for spec in bench_specs.WORKLOADS[workload]:
            type_str, iso, twist = spec.split(":")
            assert twist == "*"
            group = build_group(type_str, iso)
            assert inner_forms_by_token(group, twist)


class TestSeed:
    @pytest.mark.parametrize("workload", sorted(bench_specs.WORKLOADS))
    def test_seed_changes_only_the_order(self, workload):
        specs = bench_specs.WORKLOADS[workload]
        orders = {tuple(bench_specs.ordered_specs(workload, s))
                  for s in range(10)}
        assert all(sorted(o) == sorted(specs) for o in orders)
        assert len(orders) > 1

    def test_same_seed_same_order(self):
        assert bench_specs.ordered_specs("isogeny", 7) == \
            bench_specs.ordered_specs("isogeny", 7)


@pytest.fixture(scope="module")
def a4_report():
    doc = correspond.reports_json(correspond.full_report("A4:adjoint:*"))
    return doc, json.dumps(doc, sort_keys=True)


class TestGate:
    def test_real_report_passes(self, a4_report):
        doc, text = a4_report
        assert any(r["hii"] == "holds" for r in doc["rows"])
        assert bench_gate.report_problems(doc, text) == []

    @pytest.mark.parametrize("field, delta", [
        ("a", 1), ("b", 1), ("a_prime", 1), ("b_prime", 1), ("g", 1),
        ("g_prime", 1)])
    def test_tampered_invariant_is_flagged(self, a4_report, field, delta):
        doc = copy.deepcopy(a4_report[0])
        doc["rows"][0]["invariants"][field] += delta
        text = json.dumps(doc, sort_keys=True)
        assert bench_gate.report_problems(doc, text)

    def test_hii_fails_is_flagged(self, a4_report):
        doc = copy.deepcopy(a4_report[0])
        doc["rows"][-1]["hii"] = "fails"
        text = json.dumps(doc, sort_keys=True)
        assert bench_gate.report_problems(doc, text) == \
            [f"row {len(doc['rows']) - 1}: HII fails"]

    def test_json_that_does_not_round_trip_is_flagged(self, a4_report):
        doc, text = a4_report
        edited = text.replace('"schema": "1.0"', '"schema": "1.1"')
        assert edited != text
        assert bench_gate.report_problems(doc, edited) == \
            ["JSON does not round-trip"]
        loose = dict(doc, extra=(1, 2))
        assert bench_gate.report_problems(loose, text) == \
            ["JSON does not round-trip"]

    def test_euler_phi(self):
        assert [bench_gate.euler_phi(n) for n in range(1, 13)] == \
            [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


class TestTracing:
    def test_traced_run_matches_and_restores(self, a4_report):
        orig = (correspond.full_report, correspond.rows_for_host)
        tracer = bench_trace.Tracer()
        with tracer:
            assert correspond.full_report is not orig[0]
            rec = bench_worker.run_pass(correspond, ["A4:adjoint:*"],
                                        tracer)["A4:adjoint:*"]
        assert (correspond.full_report, correspond.rows_for_host) == orig
        assert rec["digest"] == bench_gate.digest(a4_report[1])
        assert rec["problems"] == []
        layers = tracer.summary(rec["s"])
        added = {"trace.overhead_s", "correspond.hii_checked",
                 "correspond.max_spec_s", "host.ref_s"}
        assert set(layers) | added == set(bench_trace.LAYER_METRICS)
        assert layers["galois.gamma_calls"] > 0
        assert layers["correspond.report_s"] <= rec["s"]
        assert 0.9 <= layers["trace.accounted_share"] <= 1.0


class TestCalibration:
    def test_spec_times_are_rescaled_by_their_calibration(self):
        specs = ["D4:sc:*", "2A5:sc:*"]
        recs = bench_worker.run_pass(correspond, specs)
        for rec in recs.values():
            assert "start" not in rec
            assert 0 < rec["net_s"] <= rec["s"]
            assert 0 <= rec["net_cpu_s"] <= rec["cpu_s"]
            scale = bench_worker.CAL_NOMINAL_S / rec["cal_s"]
            assert rec["norm_s"] == pytest.approx(rec["net_s"] * scale)
            assert rec["norm_cpu_s"] == pytest.approx(rec["net_cpu_s"] * scale)

    def test_tick_inside_a_tick_is_skipped(self):
        sampler = bench_worker.HostSampler()
        sampler._busy = True
        sampler.tick()
        assert sampler.ticks == []

    def test_host_speed_averages_speeds(self):
        nominal = bench_worker.CAL_NOMINAL_S
        assert bench_worker.host_speed([nominal]) == pytest.approx(1.0)
        # one chunk at half speed, one stalled: speeds 0.5 and ~0
        assert bench_worker.host_speed([2 * nominal, 1e6]) == \
            pytest.approx(0.25)


class TestBenchmarkFile:
    @pytest.fixture(scope="class")
    def declared(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            return json.load(fh)

    def test_workloads(self, declared):
        assert [w["name"] for w in declared["workloads"]] == \
            list(bench_specs.WORKLOADS)

    def test_end_to_end_metrics(self, declared):
        assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
            run.END_TO_END

    def test_per_layer_metrics(self, declared):
        assert {m["name"]: (m["unit"], m["better"])
                for m in declared["per_layer"]} == \
            {k: v[:2] for k, v in bench_trace.LAYER_METRICS.items()}
