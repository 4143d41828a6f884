/**
 * @file
 * Unit tests for support::trace -- the bounded TraceCollector ring,
 * the per-thread SpanRecorder batching front, id allocation, and the
 * dual-format (Chrome trace_event + compact spans) JSON export.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "support/Json.h"
#include "support/Trace.h"

using namespace c4cam;
using support::SpanContext;
using support::SpanRecorder;
using support::TraceCollector;
using support::TraceEvent;

namespace {

TraceEvent
makeSpan(const char *name, std::uint64_t span, std::uint64_t parent,
         double start, double dur)
{
    TraceEvent ev;
    ev.name = name;
    ev.traceId = 1;
    ev.queryId = 1;
    ev.spanId = span;
    ev.parentSpanId = parent;
    ev.startUs = start;
    ev.durUs = dur;
    return ev;
}

} // namespace

TEST(Trace, CollectorIsABoundedRingThatCountsDrops)
{
    TraceCollector collector(4);
    EXPECT_EQ(collector.capacity(), 4u);
    EXPECT_EQ(collector.size(), 0u);
    EXPECT_EQ(collector.dropped(), 0);

    for (std::uint64_t i = 1; i <= 4; ++i)
        collector.record(makeSpan("fill", i, 0, double(i), 1.0));
    EXPECT_EQ(collector.size(), 4u);
    EXPECT_EQ(collector.dropped(), 0);

    // Two more overwrite the two OLDEST events and count as drops;
    // the snapshot stays oldest-first across the wrap point.
    collector.record(makeSpan("wrap", 5, 0, 5.0, 1.0));
    collector.record(makeSpan("wrap", 6, 0, 6.0, 1.0));
    EXPECT_EQ(collector.size(), 4u);
    EXPECT_EQ(collector.dropped(), 2);
    std::vector<TraceEvent> events = collector.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].spanId, 3u);
    EXPECT_EQ(events[1].spanId, 4u);
    EXPECT_EQ(events[2].spanId, 5u);
    EXPECT_EQ(events[3].spanId, 6u);

    // Zero capacity clamps to one.
    TraceCollector tiny(0);
    EXPECT_EQ(tiny.capacity(), 1u);
    tiny.record(makeSpan("a", 1, 0, 0.0, 1.0));
    tiny.record(makeSpan("b", 2, 0, 1.0, 1.0));
    EXPECT_EQ(tiny.size(), 1u);
    EXPECT_EQ(tiny.dropped(), 1);
    EXPECT_EQ(tiny.snapshot()[0].spanId, 2u);
}

TEST(Trace, IdsAreMonotoneFromOne)
{
    // 0 is the universal "none" sentinel, so allocation starts at 1
    // and never repeats.
    TraceCollector collector;
    EXPECT_EQ(collector.newTraceId(), 1u);
    EXPECT_EQ(collector.newTraceId(), 2u);
    EXPECT_EQ(collector.newQueryId(), 1u);
    EXPECT_EQ(collector.newQueryId(), 2u);
    EXPECT_EQ(collector.newSpanId(), 1u);
    EXPECT_EQ(collector.newSpanId(), 2u);
}

TEST(Trace, ClockIsMonotoneAndSharedViaToUs)
{
    TraceCollector collector;
    double a = collector.nowUs();
    double b = collector.nowUs();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
    // toUs of a caller-taken steady_clock stamp lands on the same
    // epoch-relative axis as nowUs.
    double c = collector.toUs(std::chrono::steady_clock::now());
    EXPECT_GE(c, b);
}

TEST(Trace, StampsTelescopeExactlyFromEarlyToLate)
{
    // Span intervals are stored as (start, end - start); consumers
    // rebuild the end as start + dur and compare bitwise. Sweep starts
    // over the first second against ends up to a second later, plus a
    // day-late end. Raw (unrounded) microsecond doubles break the
    // identity on ~2% of this grid.
    TraceCollector collector;
    const auto base = std::chrono::steady_clock::now();
    int broken = 0;
    std::string first;
    for (std::int64_t i = 0; i < 200; ++i) {
        for (std::int64_t j = 0; j <= 200; ++j) {
            const std::int64_t start_ns = i * 5000011;
            const std::int64_t delta_ns =
                j < 200 ? j * 5000017 + 1 : std::int64_t{86400000000013};
            const auto start = base + std::chrono::nanoseconds(start_ns);
            const auto end = start + std::chrono::nanoseconds(delta_ns);
            const double s = collector.toUs(start);
            const double e = collector.toUs(end);
            if (s + (e - s) != e || !(s < e)) {
                if (broken++ == 0)
                    first = "start +" + std::to_string(start_ns) +
                            " ns, delta " + std::to_string(delta_ns) + " ns";
            }
        }
    }
    EXPECT_EQ(broken, 0) << "first broken pair: " << first;
}

TEST(Trace, RecorderBatchesAndFlushesOnDestruction)
{
    TraceCollector collector;
    {
        SpanRecorder recorder(&collector, /*batchCapacity=*/4);
        ASSERT_TRUE(recorder.enabled());
        for (std::uint64_t i = 1; i <= 3; ++i)
            recorder.record(makeSpan("batched", i, 0, double(i), 1.0));
        // Below the batch capacity nothing has reached the collector
        // yet -- the hot path pays no mutex per span.
        EXPECT_EQ(collector.size(), 0u);
        recorder.record(makeSpan("batched", 4, 0, 4.0, 1.0));
        // Hitting the batch capacity drains automatically.
        EXPECT_EQ(collector.size(), 4u);
        recorder.record(makeSpan("tail", 5, 0, 5.0, 1.0));
        EXPECT_EQ(collector.size(), 4u);
    } // destructor flushes the partial batch
    EXPECT_EQ(collector.size(), 5u);
    EXPECT_EQ(collector.snapshot()[4].spanId, 5u);

    // A default-constructed recorder is the off switch: recording into
    // it is a no-op, not a crash.
    SpanRecorder off;
    EXPECT_FALSE(off.enabled());
    off.record(makeSpan("dropped", 9, 0, 0.0, 1.0));
    off.flush();
}

TEST(Trace, DisabledSpanContextIsTheOffSwitch)
{
    SpanContext off;
    EXPECT_FALSE(off.enabled());
    TraceCollector collector;
    SpanContext on{&collector, 1, 2, 3};
    EXPECT_TRUE(on.enabled());
}

TEST(Trace, RecordFillsInPerThreadOrdinals)
{
    // tid 0 means "stamp me": each recording thread gets a small
    // stable ordinal (1, 2, ...), not a raw thread id.
    TraceCollector collector;
    collector.record(makeSpan("main", 1, 0, 0.0, 1.0));
    std::thread other(
        [&] { collector.record(makeSpan("other", 2, 0, 1.0, 1.0)); });
    other.join();
    collector.record(makeSpan("main", 3, 0, 2.0, 1.0));

    std::vector<TraceEvent> events = collector.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].tid, 1u);
    EXPECT_EQ(events[1].tid, 2u);
    EXPECT_EQ(events[2].tid, 1u); // same thread, same ordinal
}

TEST(Trace, ExportCarriesBothFormatsAndParsesBack)
{
    TraceCollector collector(8);
    TraceEvent exec = makeSpan("execute", 2, 1, 10.0, 5.0);
    exec.hasSim = true;
    exec.simQueryLatencyNs = 123.0;
    exec.simQueryEnergyPj = 456.0;
    exec.simSearches = 7;
    exec.fusedK = 3;
    collector.record(exec);
    collector.record(makeSpan("query", 1, 0, 10.0, 6.0));

    JsonValue doc = parseJson(collector.toJson().dump(2));
    EXPECT_EQ(doc.getString("schema", ""), "c4cam-trace-v1");
    EXPECT_EQ(doc.getInt("dropped", -1), 0);

    const auto &spans = doc.find("spans")->asArray();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].getString("name", ""), "execute");
    EXPECT_EQ(spans[0].getInt("span", 0), 2);
    EXPECT_EQ(spans[0].getInt("parent", 0), 1);
    EXPECT_DOUBLE_EQ(spans[0].find("start_us")->asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(spans[0].find("dur_us")->asNumber(), 5.0);
    EXPECT_EQ(spans[0].getInt("fused_k", 0), 3);
    const JsonValue *sim = spans[0].find("sim");
    ASSERT_NE(sim, nullptr);
    EXPECT_DOUBLE_EQ(sim->find("query_latency_ns")->asNumber(), 123.0);
    EXPECT_DOUBLE_EQ(sim->find("query_energy_pj")->asNumber(), 456.0);
    EXPECT_EQ(sim->getInt("searches", 0), 7);
    // The plain query span carries neither sim nor fused_k keys.
    EXPECT_EQ(spans[1].find("sim"), nullptr);
    EXPECT_EQ(spans[1].find("fused_k"), nullptr);

    // Chrome trace_event view: complete ("X") phase events with the
    // same intervals, ids tucked under args.
    const auto &chrome = doc.find("traceEvents")->asArray();
    ASSERT_EQ(chrome.size(), 2u);
    EXPECT_EQ(chrome[0].getString("ph", ""), "X");
    EXPECT_EQ(chrome[0].getString("name", ""), "execute");
    EXPECT_DOUBLE_EQ(chrome[0].find("ts")->asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(chrome[0].find("dur")->asNumber(), 5.0);
    ASSERT_NE(chrome[0].find("args"), nullptr);
    EXPECT_EQ(chrome[0].find("args")->getInt("span", 0), 2);
}

TEST(Trace, WriteFileRoundTripsThroughTheJsonParser)
{
    TraceCollector collector;
    collector.record(makeSpan("query", 1, 0, 0.0, 2.0));
    std::string path = testing::TempDir() + "c4cam_trace_test.json";
    ASSERT_TRUE(collector.writeFile(path));
    JsonValue doc = parseJsonFile(path);
    EXPECT_EQ(doc.getString("schema", ""), "c4cam-trace-v1");
    EXPECT_EQ(doc.find("spans")->asArray().size(), 1u);
    std::remove(path.c_str());

    // Unwritable paths report failure instead of throwing.
    EXPECT_FALSE(collector.writeFile("/nonexistent/dir/trace.json"));
}
