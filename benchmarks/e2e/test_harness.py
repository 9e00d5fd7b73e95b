"""Self-test of the e2e benchmark harness (tier-1 collects it; no subprocess).

It checks the harness, not the program: the span arithmetic, that tracing is
absent unless asked for and gone afterwards, that the generators are
byte-stable, the metric arithmetic, and that the oracle really fails a run.
"""

from __future__ import annotations

import asyncio
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import e2e_compare  # noqa: E402
import e2e_gen as gen  # noqa: E402
import e2e_harness as harness  # noqa: E402
import e2e_layers as layers  # noqa: E402
import e2e_stats as stats  # noqa: E402
import e2e_trace as trace  # noqa: E402

# ----------------------------------------------------------------------
# Spans: self times sum to the wall
# ----------------------------------------------------------------------


def synthetic_spans():
    """Two threads and one envelope over a 100-tick window.

    thread 1:  protocol decode [0,10] . engine run [20,90] > evaluator [30,80]
               > pool wait [40,70]
    thread 2:  relational semijoin [45,65] (a pool worker, inside the wait)
    envelope:  service run [10,95]
    """
    decode = trace.make_span("protocol", "decode:request", 1, 0, 10, seq=0)
    envelope = trace.make_span(
        "service", "QueryService.run:execute", 1, 10, 95, seq=1, kind=trace.ENVELOPE
    )
    run = trace.make_span("engine", "QueryEngine.run:execute", 1, 20, 90, seq=2)
    evaluate = trace.make_span(
        "evaluation", "YannakakisEvaluator.evaluate", 1, 30, 80, seq=3, parent=run
    )
    wait = trace.make_span(
        "parallel", "WorkerPool.map", 1, 40, 70, seq=4, parent=evaluate, kind=trace.WAIT
    )
    semijoin = trace.make_span("relational", "Relation.semijoin", 2, 45, 65, seq=5)
    semijoin[trace.ROWS_IN], semijoin[trace.ROWS_OUT] = 200, 50
    return [decode, envelope, run, evaluate, wait, semijoin]


def test_budget_sums_to_wall_across_threads():
    spans = synthetic_spans()
    budget = trace.attribute(spans, 0, 100)
    assert sum(budget.values()) == pytest.approx(100.0)
    assert budget == {
        "protocol": 10.0,  # [0,10]
        "service": 15.0,  # envelope alone: [10,20] and [90,95]
        "engine": 20.0,  # [20,30] and [80,90]
        "evaluation": 20.0,  # [30,40] and [70,80]
        "parallel": 10.0,  # waiting with no worker running: [40,45], [65,70]
        "relational": 20.0,  # the worker: [45,65]
        "untraced": 5.0,  # [95,100]
    }
    # Every span's own share adds up to the covered time too.
    assert sum(span[trace.SELF] for span in spans) == pytest.approx(95.0)


def test_threads_running_together_split_the_instant():
    a = trace.make_span("evaluation", "NaiveEvaluator.evaluate", 1, 0, 10, seq=0)
    b = trace.make_span("protocol", "encode:response", 2, 5, 15, seq=1)
    budget = trace.attribute([a, b], 0, 20)
    assert budget == {"evaluation": 7.5, "protocol": 7.5, "untraced": 5.0}


def test_layer_metrics_from_synthetic_spans():
    metrics = layers.layer_metrics(synthetic_spans(), 0, 100, requests=1)
    shares = [metrics[f"{layer}.self_share"][0] for layer in layers.LAYERS]
    assert sum(shares) + metrics["untraced_share"][0] == pytest.approx(1.0)
    # Entry of QueryService.run (10) to entry of QueryEngine.run (20), in us.
    assert metrics["service.wait_us_per_req"][0] == pytest.approx(0.01)
    assert metrics["evaluation.yannakakis_share"][0] == pytest.approx(0.5)
    assert metrics["relational.rows_in_per_output_row"][0] == pytest.approx(4.0)
    assert metrics["relational.ns_per_row_semijoin"][0] == pytest.approx(0.1)
    assert metrics["protocol.request_us_per_req"][0] == pytest.approx(0.01)


# ----------------------------------------------------------------------
# Wrappers: absent unless installed, gone after
# ----------------------------------------------------------------------


def _originals():
    import repro.engine.engine as engine_module
    import repro.protocol.client as client_module
    import repro.protocol.codec as codec_module
    import repro.relational.relation as relation_module

    return {
        "semijoin": (relation_module.Relation, "semijoin"),
        "from_rows": (relation_module.Relation, "from_rows"),
        "engine_run": (engine_module.QueryEngine, "run"),
        "codec_encode": (codec_module, "encode"),
        "client_encode": (client_module, "encode"),
    }


def test_wrappers_absent_by_default_and_restored_after():
    harness.import_repro()
    holders = _originals()
    before = {key: vars(owner)[name] for key, (owner, name) in holders.items()}
    for value in before.values():
        assert not hasattr(getattr(value, "__func__", value), "__wrapped__")
    recorder = trace.Recorder()
    with trace.Installer(recorder) as installer:
        assert installer.missing == []
        assert installer.wrapped == len(trace.TARGETS)
        during = {key: vars(owner)[name] for key, (owner, name) in holders.items()}
        for key in before:
            assert during[key] is not before[key]
        # One wrapper in every namespace that imported the function by name.
        assert during["codec_encode"] is during["client_encode"]
        relation = harness.import_repro()["Relation"]
        left = relation.from_rows(("a", "b"), [(1, 2), (3, 4)])
        right = relation.from_rows(("b",), [(2,)])
        assert left.semijoin(right).rows == frozenset({(1, 2)})
    names = [span[trace.NAME] for span in recorder.spans]
    assert names.count("Relation.from_rows") == 2 and "Relation.semijoin" in names
    semijoin = recorder.spans[names.index("Relation.semijoin")]
    assert (semijoin[trace.ROWS_IN], semijoin[trace.ROWS_OUT]) == (3, 1)
    after = {key: vars(owner)[name] for key, (owner, name) in holders.items()}
    for key in before:
        assert after[key] is before[key]


def test_renamed_target_is_counted_not_raised():
    targets = [
        trace.Target("relational", "repro.relational.relation", "Relation.no_such_op"),
        trace.Target("protocol", "repro.protocol.no_such_module", "encode"),
        trace.Target("query", "repro.query.parser", "no_such_function"),
        trace.Target("query", "repro.query.parser", "parse_query"),
    ]
    with trace.Installer(trace.Recorder(), targets) as installer:
        assert installer.wrapped == 1
        assert len(installer.missing) == 3


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

FINGERPRINTS = {
    "bulk_acyclic":
        "d9d0375659d29ad4eddb031a1bf52682d1f0e649bb362b6ebe8be89bbe9d210e",
    "bulk_transfer":
        "c548433ca7e629cfa5bb26a0872767ef2be1ae5559b771cfe60a3d15b18b9731",
    "register_churn":
        "817a36da1dca7c5e4a8190b8e296b6e267f41d56606a39a264e616d902c7b4ea",
    "wire_small_mix":
        "fe76ff9f8e651fd9eb5f8b553447068d4d6cfa200765e4dd1a3513013922905f",
}


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generators_are_byte_stable(name):
    assert gen.fingerprint(gen.build(name, 1)) == FINGERPRINTS[name]
    assert gen.fingerprint(gen.build(name, 2)) != FINGERPRINTS[name]


def test_every_round_has_the_same_composition():
    workload = gen.build("wire_small_mix", 1)
    for index in (0, 7):
        for conn in (0, 1):
            kinds = sorted(r.tag for c, r in workload.round(index) if c == conn)
            assert len(kinds) == 100
            assert kinds == sorted(r.tag for c, r in workload.round(1) if c == conn)
    # Row counts do not depend on the seed (fixed out-degree).
    sizes = {
        seed: len(gen.build("bulk_acyclic", seed).databases["chain_2x"]["E"][1])
        for seed in (1, 2, 3)
    }
    assert set(sizes.values()) == {20000}


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------


def test_slope_and_growth_exponent_match_hand_computed_cases():
    assert stats.slope([1.0, 3.0, 5.0, 7.0]) == pytest.approx(2.0)
    # x = 0,1,2; y = 1,2,4: sxy = (-1)(1-7/3) + 0 + (1)(4-7/3) = 3, sxx = 2.
    assert stats.slope([1.0, 2.0, 4.0]) == pytest.approx(1.5)
    assert stats.slope([5.0]) == 0.0
    # The first half may still be filling caches: only the flat half counts.
    assert stats.second_half_slope([0, 50, 100, 150, 160, 160, 160, 160]) == 0.0
    assert stats.growth_exponent(1.0, 2.0, 10.0, 20.0) == pytest.approx(1.0)
    assert stats.growth_exponent(1.0, 4.0, 10.0, 20.0) == pytest.approx(2.0)
    assert stats.growth_exponent(0.2, 0.5, 42500.0, 85000.0) == pytest.approx(
        math.log(2.5) / math.log(2.0)
    )
    assert stats.growth_exponent(0.0, 1.0, 1.0, 2.0) == 0.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    # quartiles of 1..9 (exclusive method) are 2.5 and 7.5, the median 5.
    assert stats.iqr_spread(list(range(1, 10))) == pytest.approx(1.0)


def test_compare_marks_wide_spreads_unresolved_not_unchanged():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert e2e_compare.verdict(steady, steady, "lower", 0.1)[0] == "unchanged"
    slower = [value * 1.3 for value in steady]
    assert e2e_compare.verdict(steady, slower, "lower", 0.1)[0] == "regressed"
    assert e2e_compare.verdict(steady, slower, "higher", 0.1)[0] == "improved"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert e2e_compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"


# ----------------------------------------------------------------------
# The oracle fails a run
# ----------------------------------------------------------------------


class EngineClient:
    """Stands in for the wire client: answers from an in-process engine."""

    def __init__(self, api, databases):
        self._api, self._databases = api, databases
        self._engine = api["QueryEngine"](parallel=False)

    async def run(self, operation, database):
        parsed = self._api["Operation"].make(
            operation.kind, self._api["parse_query"](operation.query)
        )
        return self._engine.run(parsed, self._databases[database])


def test_corrupting_one_oracle_answer_fails_the_run():
    api = harness.import_repro()
    workload, databases, oracle = harness.prepare(api, "wire_small_mix", 1, [])
    client = EngineClient(api, databases)
    session = harness.Session(api, workload, databases, oracle, [client, client])
    requests = [request for _conn, request in workload.warmup[:7]]

    async def send_all(phase):
        for request in requests:
            await harness.send(session, phase, 0, 0, request)

    asyncio.run(send_all("clean"))
    assert all(sample.ok for sample in session.samples) and not session.failures
    victim = next(r for r in requests if r.kind == "count")
    oracle.answers[harness.oracle_key(victim)] += 1
    asyncio.run(send_all("corrupted"))
    wrong = [s for s in session.samples if s.phase == "corrupted" and not s.ok]
    assert [s.tag for s in wrong] == [victim.tag]
    assert len(session.failures) == 1 and victim.query in session.failures[0]
