// Observability plane: metric registry and histogram semantics, tracer
// bounds, per-op latency histograms recorded by the drive's Execute
// pipeline, and the multi-layer trace — rpc, drive, segment-writer, and
// block-device spans all nested under one request id.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/op_context.h"
#include "src/obs/trace.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

// ---------------------------------------------------------------------------
// Histogram / MetricRegistry units
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExactAggregatesAndLog2Percentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);

  h.Record(1);
  h.Record(2);
  h.Record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 3);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);

  // Percentiles are quantised to bucket upper bounds, clamped to max.
  // Samples 1,2,3 land in buckets [1,1], [2,3], [2,3].
  EXPECT_EQ(h.Percentile(0.0), 1);
  EXPECT_EQ(h.Percentile(1.0), 3);

  // A large sample lands in bucket [2^(b-1), 2^b); the reported percentile
  // bound never exceeds the observed max.
  Histogram big;
  big.Record(100);
  EXPECT_EQ(big.Percentile(0.99), 100);
  big.Record(200);
  EXPECT_EQ(big.Percentile(1.0), 200);

  // Negative samples clamp to zero instead of corrupting buckets.
  Histogram neg;
  neg.Record(-5);
  EXPECT_EQ(neg.min(), 0);
  EXPECT_EQ(neg.count(), 1u);
}

TEST(MetricRegistryTest, CreationIsIdempotentAndPointersAreStable) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(reg.CounterValue("x.count"), 3u);
  EXPECT_EQ(reg.CounterValue("never.created"), 0u);
  EXPECT_EQ(reg.FindCounter("never.created"), nullptr);
  EXPECT_EQ(reg.FindHistogram("never.created"), nullptr);

  Histogram* h = reg.GetHistogram("x.latency");
  EXPECT_EQ(h, reg.GetHistogram("x.latency"));
  h->Record(42);

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"x.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"x.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer / ScopedSpan units
// ---------------------------------------------------------------------------

TEST(TracerTest, BoundedBufferDropsInsteadOfGrowing) {
  Tracer tracer;
  for (size_t i = 0; i < Tracer::kMaxEvents + 10; ++i) {
    tracer.Record("e", 1, 0, 1, 0);
  }
  EXPECT_EQ(tracer.events().size(), Tracer::kMaxEvents);
  EXPECT_EQ(tracer.dropped(), 10u);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);

  tracer.set_enabled(false);
  tracer.Record("e", 1, 0, 1, 0);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, ChromeJsonHasCompleteEvents) {
  Tracer tracer;
  tracer.Record("drive.Write", 7, 100, 50, 1);
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"drive.Write\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 7"), std::string::npos);
}

TEST(ScopedSpanTest, NullContextAndPartialWiringAreNoOps) {
  { ScopedSpan span(nullptr, "nothing"); }
  OpContext bare;  // no tracer, no clock
  { ScopedSpan span(&bare, "nothing"); }
  EXPECT_EQ(bare.span_depth, 0);
}

TEST(ScopedSpanTest, NestedSpansRecordDepthAndContainment) {
  SimClock clock(0);
  Tracer tracer;
  OpContext ctx;
  ctx.request_id = 9;
  ctx.clock = &clock;
  ctx.tracer = &tracer;
  {
    ScopedSpan outer(&ctx, "outer");
    clock.Advance(10);
    {
      ScopedSpan inner(&ctx, "inner");
      clock.Advance(5);
    }
    clock.Advance(10);
  }
  // Children close (and record) before parents.
  std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(ctx.span_depth, 0);
  EXPECT_GE(inner.start, outer.start);
  EXPECT_LE(inner.start + inner.duration, outer.start + outer.duration);
}

// ---------------------------------------------------------------------------
// Drive pipeline: per-op latency histograms and uniform accounting
// ---------------------------------------------------------------------------

class ObsDriveTest : public DriveTest {};

TEST_F(ObsDriveTest, EveryOpRecordsIntoItsLatencyHistogram) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, BytesOf("attrs")));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("payload")));
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 7));
  EXPECT_EQ(StringOf(got), "payload");
  ASSERT_OK(drive_->Sync(alice));

  const MetricRegistry& reg = drive_->metrics();
  for (const char* name :
       {"drive.op.Create.latency", "drive.op.Write.latency", "drive.op.Read.latency",
        "drive.op.Sync.latency"}) {
    const Histogram* h = reg.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->count(), 1u) << name;
  }
  // Simulated ops take nonzero sim time (CPU + disk model), so the latency
  // distribution is not degenerate.
  EXPECT_GT(reg.FindHistogram("drive.op.Write.latency")->max(), 0);
}

TEST_F(ObsDriveTest, DeniedOpsAreCountedAndStillTimed) {
  Credentials alice = User(100);
  Credentials mallory = User(666, /*client=*/9);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("private")));

  const MetricRegistry& reg = drive_->metrics();
  uint64_t denied_before = reg.CounterValue("drive.ops_denied");
  uint64_t read_count_before = reg.FindHistogram("drive.op.Read.latency")->count();

  EXPECT_EQ(drive_->Read(mallory, id, 0, 7).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->SetWindow(mallory, kMinute).code(), ErrorCode::kPermissionDenied);

  EXPECT_EQ(reg.CounterValue("drive.ops_denied"), denied_before + 2);
  // The denial path still runs the full pipeline epilogue.
  EXPECT_EQ(reg.FindHistogram("drive.op.Read.latency")->count(), read_count_before + 1);
  EXPECT_GE(reg.FindHistogram("drive.op.SetWindow.latency")->count(), 1u);
}

// ---------------------------------------------------------------------------
// Multi-layer trace through the full RPC stack
// ---------------------------------------------------------------------------

class ObsRpcTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    server_ = std::make_unique<S4RpcServer>(drive_.get());
    transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
    client_ = std::make_unique<S4Client>(transport_.get(), User(100));
  }

  // First event with `name` whose request id is `rid`; nullptr if absent.
  // Takes the snapshot by reference: tracer().events() returns a copy, so
  // callers must hold one vector alive for as long as they keep pointers.
  static const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                                     const char* name, uint64_t rid) {
    for (const TraceEvent& e : events) {
      if (e.request_id == rid && std::string(e.name) == name) {
        return &e;
      }
    }
    return nullptr;
  }

  static bool Contains(const TraceEvent& outer, const TraceEvent& inner) {
    return outer.start <= inner.start &&
           inner.start + inner.duration <= outer.start + outer.duration;
  }

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<S4Client> client_;
};

TEST_F(ObsRpcTest, OneRequestIdSpansRpcDriveLfsAndDisk) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  drive_->tracer().Clear();  // isolate the interesting requests

  ASSERT_OK(client_->Write(id, 0, BytesOf("trace me")));
  ASSERT_OK(client_->Sync());

  // One snapshot for the whole test: events() copies out under the tracer
  // lock, and every pointer below aims into this vector.
  const std::vector<TraceEvent> events = drive_->tracer().events();

  // The Write RPC: drive and segment-writer spans share the request id the
  // transport allocated for that call.
  const TraceEvent* drive_write = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "drive.Write") {
      drive_write = &e;
      break;
    }
  }
  ASSERT_NE(drive_write, nullptr);
  uint64_t write_rid = drive_write->request_id;
  ASSERT_NE(FindEvent(events, "lfs.append", write_rid), nullptr)
      << "segment-writer span missing from the write request";

  // The Sync RPC flushes the log: one request id covers the rpc dispatch,
  // the drive op, the segment-writer flush, and the block-device write.
  const TraceEvent* drive_sync = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "drive.Sync") {
      drive_sync = &e;
      break;
    }
  }
  ASSERT_NE(drive_sync, nullptr);
  uint64_t sync_rid = drive_sync->request_id;
  EXPECT_NE(sync_rid, write_rid) << "each RPC must get its own request id";

  const TraceEvent* dispatch = FindEvent(events, "rpc.dispatch", sync_rid);
  const TraceEvent* flush = FindEvent(events, "lfs.flush", sync_rid);
  const TraceEvent* disk = FindEvent(events, "disk.write", sync_rid);
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(flush, nullptr);
  ASSERT_NE(disk, nullptr);

  // Nesting: rpc.dispatch is the root; each deeper layer is contained in
  // time and strictly deeper in the span tree.
  EXPECT_EQ(dispatch->depth, 0);
  EXPECT_GT(drive_sync->depth, dispatch->depth);
  EXPECT_GT(flush->depth, drive_sync->depth);
  EXPECT_GT(disk->depth, flush->depth);
  EXPECT_TRUE(Contains(*dispatch, *drive_sync));
  EXPECT_TRUE(Contains(*drive_sync, *flush));
  EXPECT_TRUE(Contains(*flush, *disk));

  // The dump loads in chrome://tracing: spot-check the JSON shape.
  std::string json = drive_->tracer().ToChromeJson();
  EXPECT_NE(json.find("\"drive.Sync\""), std::string::npos);
  EXPECT_NE(json.find("\"disk.write\""), std::string::npos);
}

}  // namespace
}  // namespace s4
