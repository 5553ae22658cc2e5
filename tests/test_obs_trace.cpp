// Tracing: RAII spans, parent/child nesting, the bounded ring, and the
// Chrome / text exporters. Tests drive a private TraceBuffer where they
// can, and save/restore the global buffer's enabled flag where they must.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace artsparse::obs {
namespace {

/// Arms the global buffer for one test and restores the prior state.
class ScopedTracing {
 public:
  ScopedTracing() : was_enabled_(TraceBuffer::global().enabled()) {
    TraceBuffer::global().clear();
    TraceBuffer::global().set_enabled(true);
  }
  ~ScopedTracing() {
    TraceBuffer::global().set_enabled(was_enabled_);
    TraceBuffer::global().clear();
  }

 private:
  bool was_enabled_;
};

TEST(ObsTrace, DisabledSpanRecordsNothing) {
  TraceBuffer::global().set_enabled(false);
  TraceBuffer::global().clear();
  {
    Span span("obs_test.noop", "test");
    span.attr("k", std::string("v"));
  }
  EXPECT_TRUE(TraceBuffer::global().snapshot().empty());
}

TEST(ObsTrace, SpansNestByScope) {
  ScopedTracing tracing;
  {
    Span outer("obs_test.outer", "test");
    {
      Span inner("obs_test.inner", "test");
      inner.attr("points", static_cast<std::uint64_t>(42));
    }
  }
  const std::vector<SpanRecord> spans = TraceBuffer::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record when they close: inner first.
  EXPECT_EQ(spans[0].name, "obs_test.inner");
  EXPECT_EQ(spans[1].name, "obs_test.outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "points");
  EXPECT_EQ(spans[0].attrs[0].second, "42");
}

TEST(ObsTrace, ExplicitEndReparentsSiblings) {
  ScopedTracing tracing;
  {
    Span parent("obs_test.parent", "test");
    Span first("obs_test.first", "test");
    first.end();  // destructor after this must not double-record
    Span second("obs_test.second", "test");
    second.end();
  }
  const std::vector<SpanRecord> spans = TraceBuffer::global().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "obs_test.first");
  EXPECT_EQ(spans[1].name, "obs_test.second");
  // Both siblings hang off the parent, not off each other.
  EXPECT_EQ(spans[0].parent, spans[2].id);
  EXPECT_EQ(spans[1].parent, spans[2].id);
}

TEST(ObsTrace, RingDropsOldestBeyondCapacity) {
  TraceBuffer buffer;
  buffer.set_capacity(4);
  buffer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    SpanRecord record;
    record.name = "span_" + std::to_string(i);
    record.id = static_cast<std::uint64_t>(i + 1);
    buffer.record(std::move(record));
  }
  EXPECT_EQ(buffer.dropped(), 6u);
  const std::vector<SpanRecord> spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "span_6");  // oldest retained
  EXPECT_EQ(spans.back().name, "span_9");
}

TEST(ObsTrace, ChromeExportIsValidTraceEventJson) {
  ScopedTracing tracing;
  {
    Span span("obs_test.chrome", "test");
    span.attr("path", std::string("/tmp/x \"quoted\""));
  }
  const std::string json =
      trace_to_chrome(TraceBuffer::global().snapshot());
  EXPECT_EQ(json.find('\n', json.size() - 2), std::string::npos);
  EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obs_test.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace artsparse::obs
