// DriveExecutor tests: frame classification, same-object ordering under a
// multi-worker pool, the one-task-per-drive contract, a schedule that host
// timing cannot move, parallel speedup across drives, audit completeness,
// the idle-slice maintenance hook, and exact network counters under
// concurrent frames. Run these under -DS4_SANITIZE=thread in CI: they are
// the data-race regression net for the whole concurrency substrate.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/exec/drive_executor.h"
#include "src/rpc/messages.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

Credentials UserCreds() {
  Credentials c;
  c.user = 1;
  c.client = 1;
  return c;
}

Bytes WriteFrame(ObjectId id, uint64_t offset, uint64_t len, uint8_t fill) {
  RpcRequest req;
  req.op = RpcOp::kWrite;
  req.creds = UserCreds();
  req.object = id;
  req.offset = offset;
  req.data.assign(len, fill);
  return req.Encode();
}

Bytes AppendFrame(ObjectId id, uint64_t len, uint8_t fill) {
  RpcRequest req;
  req.op = RpcOp::kAppend;
  req.creds = UserCreds();
  req.object = id;
  req.data.assign(len, fill);
  return req.Encode();
}

Bytes ReadFrame(ObjectId id, uint64_t offset, uint64_t len) {
  RpcRequest req;
  req.op = RpcOp::kRead;
  req.creds = UserCreds();
  req.object = id;
  req.offset = offset;
  req.length = len;
  return req.Encode();
}

// A multi-drive rig on one shared clock: the unit the executor schedules.
struct Rig {
  std::unique_ptr<SimClock> clock;
  std::vector<std::unique_ptr<BlockDevice>> devices;
  std::vector<std::unique_ptr<S4Drive>> drives;
  std::vector<std::unique_ptr<S4RpcServer>> servers;

  std::vector<S4Drive*> drive_ptrs() const {
    std::vector<S4Drive*> out;
    for (const auto& d : drives) {
      out.push_back(d.get());
    }
    return out;
  }
};

Rig MakeRig(int n_drives) {
  Rig rig;
  rig.clock = std::make_unique<SimClock>(SimTime{1000000});
  for (int i = 0; i < n_drives; ++i) {
    rig.devices.push_back(
        std::make_unique<BlockDevice>((64ull << 20) / kSectorSize, rig.clock.get()));
    auto drive =
        S4Drive::Format(rig.devices.back().get(), rig.clock.get(), DriveTest::SmallOptions());
    EXPECT_OK(drive.status());
    rig.drives.push_back(std::move(*drive));
    rig.servers.push_back(std::make_unique<S4RpcServer>(rig.drives.back().get(), i));
  }
  return rig;
}

TEST(ClassifyTest, ReadClassOpsAreExclusiveOnTheirStripe) {
  uint64_t write_stripe = 0;
  DriveExecutor::Mode mode = DriveExecutor::Mode::kBarrier;
  DriveExecutor::Classify(PeekRequestFrame(WriteFrame(42, 0, 8, 1)), &write_stripe, &mode);
  for (RpcOp op : {RpcOp::kRead, RpcOp::kGetAttr, RpcOp::kGetAclByUser,
                   RpcOp::kGetAclByIndex, RpcOp::kGetVersionList}) {
    RpcRequest req;
    req.op = op;
    req.creds = UserCreds();
    req.object = 42;
    uint64_t stripe = 0;
    mode = DriveExecutor::Mode::kBarrier;
    DriveExecutor::Classify(PeekRequestFrame(req.Encode()), &stripe, &mode);
    EXPECT_EQ(mode, DriveExecutor::Mode::kExclusive) << RpcOpName(op);
    EXPECT_EQ(stripe, write_stripe) << RpcOpName(op);
  }
}

TEST(ClassifyTest, SameObjectSameStripeAcrossOps) {
  uint64_t write_stripe = 0, read_stripe = 0, other_stripe = 0;
  DriveExecutor::Mode mode = DriveExecutor::Mode::kBarrier;
  DriveExecutor::Classify(PeekRequestFrame(WriteFrame(7, 0, 8, 1)), &write_stripe, &mode);
  EXPECT_EQ(mode, DriveExecutor::Mode::kExclusive);
  DriveExecutor::Classify(PeekRequestFrame(ReadFrame(7, 0, 8)), &read_stripe, &mode);
  DriveExecutor::Classify(PeekRequestFrame(ReadFrame(8, 0, 8)), &other_stripe, &mode);
  EXPECT_EQ(write_stripe, read_stripe) << "same object must share a stripe";
  EXPECT_NE(read_stripe, other_stripe) << "distinct objects should stripe apart";
}

TEST(ClassifyTest, HostileAndGlobalFramesAreBarriers) {
  uint64_t stripe = 0;
  DriveExecutor::Mode mode = DriveExecutor::Mode::kExclusive;
  // Malformed bytes.
  DriveExecutor::Classify(PeekRequestFrame(Bytes{1, 2, 3}), &stripe, &mode);
  EXPECT_EQ(mode, DriveExecutor::Mode::kBarrier);
  // Batch envelope.
  RpcBatchRequest batch;
  RpcRequest sub;
  sub.op = RpcOp::kSync;
  sub.creds = UserCreds();
  batch.subs.push_back(sub);
  mode = DriveExecutor::Mode::kExclusive;
  DriveExecutor::Classify(PeekRequestFrame(batch.Encode()), &stripe, &mode);
  EXPECT_EQ(mode, DriveExecutor::Mode::kBarrier);
  // Drive-global op.
  RpcRequest sync;
  sync.op = RpcOp::kSync;
  sync.creds = UserCreds();
  mode = DriveExecutor::Mode::kExclusive;
  DriveExecutor::Classify(PeekRequestFrame(sync.Encode()), &stripe, &mode);
  EXPECT_EQ(mode, DriveExecutor::Mode::kBarrier);
}

// Same-object writes submitted in order must execute in order no matter how
// many workers race: the recovered content is the last write of the
// submission sequence, and a read submitted after the writes sees all of
// them.
TEST(DriveExecutorTest, SameObjectOrderingUnderManyWorkers) {
  Rig rig = MakeRig(1);
  auto id = rig.drives[0]->Create(UserCreds(), {});
  ASSERT_OK(id.status());

  DriveExecutor::Options opts;
  opts.workers = 4;
  DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);

  constexpr int kAppends = 64;
  for (int i = 0; i < kAppends; ++i) {
    exec.SubmitFrame(0, rig.servers[0].get(), AppendFrame(*id, 16, static_cast<uint8_t>(i + 1)));
  }
  Bytes read_response;
  exec.SubmitFrame(0, rig.servers[0].get(), ReadFrame(*id, 0, 16 * kAppends), &read_response);
  exec.Drain();

  auto resp = RpcResponse::Decode(read_response);
  ASSERT_OK(resp.status());
  ASSERT_TRUE(resp->ok()) << resp->message;
  ASSERT_EQ(resp->data.size(), 16u * kAppends);
  for (int i = 0; i < kAppends; ++i) {
    for (int b = 0; b < 16; ++b) {
      ASSERT_EQ(resp->data[static_cast<size_t>(i) * 16 + static_cast<size_t>(b)],
                static_cast<uint8_t>(i + 1))
          << "append " << i << " executed out of submission order";
    }
  }
}

// Independent drives overlap: the same per-drive workload on 4 drives takes
// less simulated time with 4 workers than with 1. (The full ratio gate lives
// in bench_concurrency; here we only require genuine overlap.)
TEST(DriveExecutorTest, MultiDriveWorkloadOverlaps) {
  auto run_with_workers = [](int workers) {
    Rig rig = MakeRig(4);
    std::vector<ObjectId> ids;
    for (int d = 0; d < 4; ++d) {
      auto id = rig.drives[static_cast<size_t>(d)]->Create(UserCreds(), {});
      EXPECT_OK(id.status());
      ids.push_back(*id);
    }
    SimTime start = rig.clock->Now();
    {
      DriveExecutor::Options opts;
      opts.workers = workers;
      DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);
      for (int i = 0; i < 32; ++i) {
        for (int d = 0; d < 4; ++d) {
          exec.SubmitFrame(d, rig.servers[static_cast<size_t>(d)].get(),
                           WriteFrame(ids[static_cast<size_t>(d)],
                                      static_cast<uint64_t>(i) * 4096, 4096,
                                      static_cast<uint8_t>(i + 1)));
        }
      }
      exec.Drain();
    }
    return rig.clock->Now() - start;
  };

  SimDuration serial = run_with_workers(1);
  SimDuration parallel = run_with_workers(4);
  EXPECT_LT(parallel, serial) << "4 workers over 4 drives must overlap I/O";
  EXPECT_LT(parallel * 2, serial)
      << "expected at least 2x overlap, got serial=" << serial << " parallel=" << parallel;
}

// The executor's contract: at most one task per drive at a time, in
// submission order, whatever stripes and modes the tasks carry. Four workers
// race over two drives; the stream mixes reads of distinct objects (distinct
// stripes), appends and Sync barriers. Each task body keeps a per-drive
// in-flight counter and logs its submission index.
TEST(DriveExecutorTest, OneTaskPerDriveInSubmissionOrder) {
  constexpr int kDrives = 2;
  constexpr int kTasksPerDrive = 200;
  Rig rig = MakeRig(kDrives);
  std::vector<std::vector<ObjectId>> ids(kDrives);
  for (int d = 0; d < kDrives; ++d) {
    S4Drive* drive = rig.drives[static_cast<size_t>(d)].get();
    for (int i = 0; i < 8; ++i) {
      auto id = drive->Create(UserCreds(), {});
      ASSERT_OK(id.status());
      ASSERT_OK(drive->Write(UserCreds(), *id, 0, Bytes(512, 0xAB)));
      ids[static_cast<size_t>(d)].push_back(*id);
    }
  }

  std::array<std::atomic<int>, kDrives> in_flight{};
  std::atomic<int> overlaps{0};
  std::atomic<int> failed{0};
  // Each drive's log is appended only by the task that holds that drive.
  std::array<std::vector<int>, kDrives> order;
  {
    DriveExecutor::Options opts;
    opts.workers = 4;
    DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);
    for (int i = 0; i < kTasksPerDrive; ++i) {
      for (int d = 0; d < kDrives; ++d) {
        const auto di = static_cast<size_t>(d);
        const ObjectId id = ids[di][static_cast<size_t>(i) % ids[di].size()];
        Bytes frame;
        if (i % 50 == 49) {
          RpcRequest sync;
          sync.op = RpcOp::kSync;
          sync.creds = UserCreds();
          frame = sync.Encode();
        } else if (i % 3 == 0) {
          frame = AppendFrame(id, 64, static_cast<uint8_t>(i));
        } else {
          frame = ReadFrame(id, 0, 512);
        }
        uint64_t stripe = 0;
        DriveExecutor::Mode mode = DriveExecutor::Mode::kBarrier;
        DriveExecutor::Classify(PeekRequestFrame(frame), &stripe, &mode);
        S4RpcServer* server = rig.servers[di].get();
        exec.Submit(d, stripe, mode, [&in_flight, &overlaps, &failed, &order, server, di, i,
                                      frame = std::move(frame)] {
          if (in_flight[di].fetch_add(1) != 0) {
            overlaps.fetch_add(1);
          }
          auto resp = RpcResponse::Decode(server->Handle(frame));
          if (!resp.ok() || !resp->ok()) {
            failed.fetch_add(1);
          }
          order[di].push_back(i);
          in_flight[di].fetch_sub(1);
        });
      }
    }
    exec.Drain();
  }
  EXPECT_EQ(overlaps.load(), 0) << "two tasks ran on one drive at once";
  EXPECT_EQ(failed.load(), 0);
  for (int d = 0; d < kDrives; ++d) {
    const std::vector<int>& ran = order[static_cast<size_t>(d)];
    ASSERT_EQ(ran.size(), static_cast<size_t>(kTasksPerDrive));
    for (int i = 0; i < kTasksPerDrive; ++i) {
      ASSERT_EQ(ran[static_cast<size_t>(i)], i)
          << "drive " << d << " ran task " << ran[static_cast<size_t>(i)] << " at position " << i;
    }
  }
}

// The schedule is a function of the submission order alone. One LCG-chosen
// stream of reads and appends over four drives and two workers is submitted
// twice: as one burst, and trickled with a host sleep between submissions so
// that workers go idle and wake again. Every task must run over the same
// simulated span, and the drained clock must land at the same instant.
TEST(DriveExecutorTest, ScheduleIgnoresHostTiming) {
  constexpr int kDrives = 4;
  constexpr int kTasks = 160;
  struct Span {
    SimTime start = 0;
    SimTime end = 0;
  };
  auto run = [](bool trickle, std::vector<Span>* spans, SimTime* drained) {
    Rig rig = MakeRig(kDrives);
    std::vector<std::vector<ObjectId>> ids(kDrives);
    for (int d = 0; d < kDrives; ++d) {
      S4Drive* drive = rig.drives[static_cast<size_t>(d)].get();
      for (int i = 0; i < 4; ++i) {
        auto id = drive->Create(UserCreds(), {});
        ASSERT_OK(id.status());
        ASSERT_OK(drive->Write(UserCreds(), *id, 0, Bytes(2048, 0x3C)));
        ids[static_cast<size_t>(d)].push_back(*id);
      }
    }
    spans->assign(kTasks, Span{});
    std::atomic<int> failed{0};
    uint64_t lcg = 0x2545f491ull;
    {
      DriveExecutor::Options opts;
      opts.workers = 2;
      DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);
      for (int i = 0; i < kTasks; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t r = lcg >> 33;
        const auto d = static_cast<size_t>(r % kDrives);
        const ObjectId id = ids[d][(r >> 4) % ids[d].size()];
        Bytes frame = (r >> 8) % 3 == 0 ? AppendFrame(id, 512, static_cast<uint8_t>(i))
                                        : ReadFrame(id, 0, 2048);
        uint64_t stripe = 0;
        DriveExecutor::Mode mode = DriveExecutor::Mode::kBarrier;
        DriveExecutor::Classify(PeekRequestFrame(frame), &stripe, &mode);
        SimClock* clock = rig.clock.get();
        S4RpcServer* server = rig.servers[d].get();
        Span* span = &(*spans)[static_cast<size_t>(i)];
        exec.Submit(static_cast<int>(d), stripe, mode,
                    [clock, server, span, &failed, frame = std::move(frame)] {
                      span->start = clock->Now();
                      auto resp = RpcResponse::Decode(server->Handle(frame));
                      if (!resp.ok() || !resp->ok()) {
                        failed.fetch_add(1);
                      }
                      span->end = clock->Now();
                    });
        if (trickle) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      }
      exec.Drain();
    }
    EXPECT_EQ(failed.load(), 0);
    *drained = rig.clock->Now();
  };

  std::vector<Span> burst, trickled;
  SimTime burst_end = 0, trickled_end = 0;
  run(/*trickle=*/false, &burst, &burst_end);
  run(/*trickle=*/true, &trickled, &trickled_end);
  ASSERT_EQ(burst.size(), trickled.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(burst[i].start, trickled[i].start) << "task " << i;
    EXPECT_EQ(burst[i].end, trickled[i].end) << "task " << i;
  }
  EXPECT_EQ(burst_end, trickled_end);
}

// Every read run under the executor appends its own audit record on the
// op's path: after Drain the drive's record counter has grown by exactly the
// number of reads, as in the serial world.
TEST(DriveExecutorTest, EveryReadIsAudited) {
  Rig rig = MakeRig(1);
  auto id = rig.drives[0]->Create(UserCreds(), {});
  ASSERT_OK(id.status());
  ASSERT_OK(rig.drives[0]->Write(UserCreds(), *id, 0, Bytes(1024, 0x5A)));
  uint64_t before = rig.drives[0]->metrics().CounterValue("audit.records");

  constexpr uint64_t kReads = 40;
  {
    DriveExecutor::Options opts;
    opts.workers = 4;
    DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);
    for (uint64_t i = 0; i < kReads; ++i) {
      exec.SubmitFrame(0, rig.servers[0].get(), ReadFrame(*id, 0, 1024));
    }
    exec.Drain();
  }
  uint64_t after = rig.drives[0]->metrics().CounterValue("audit.records");
  EXPECT_EQ(after - before, kReads) << "every read must leave an audit record";
}

// The maintenance hook runs in idle gaps and only then (absent starvation):
// with foreground queued the slice count stays put; once the queue drains,
// slices run until the step reports no more work.
TEST(DriveExecutorTest, MaintenanceRunsInIdleGaps) {
  Rig rig = MakeRig(1);
  DriveExecutor::Options opts;
  opts.workers = 2;
  DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);

  std::atomic<int> slices{0};
  exec.AttachMaintenance(0, [&slices] {
    int n = slices.fetch_add(1) + 1;
    return n < 3;  // three slices of work, then done
  });
  exec.SubmitMaintenance(0);

  for (int waited = 0; slices.load() < 3 && waited < 5000; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(slices.load(), 3) << "maintenance slices must run while the drive is idle";
  EXPECT_EQ(exec.maintenance_slices(0), 3u);

  // Done maintenance stays done: new foreground work does not revive it.
  auto id = rig.drives[0]->Create(UserCreds(), {});
  ASSERT_OK(id.status());
  exec.SubmitFrame(0, rig.servers[0].get(), WriteFrame(*id, 0, 512, 1));
  exec.Drain();
  EXPECT_EQ(slices.load(), 3);
}

// Network counters: many workers pushing frames through ONE transport must
// produce exact totals in the registry, both the drive-wide net.* set and the
// link's labelled net.<endpoint>.* set — the counters are atomic, and they are
// read after Drain. Run under TSan this is the transport-counter race
// regression test.
TEST(DriveExecutorTest, NetStatsExactUnderConcurrency) {
  Rig rig = MakeRig(1);
  LoopbackTransport transport(rig.servers[0].get(), rig.clock.get(), NetModel(), "ep0");
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = rig.drives[0]->Create(UserCreds(), {});
    ASSERT_OK(id.status());
    ASSERT_OK(rig.drives[0]->Write(UserCreds(), *id, 0, Bytes(256, 0x11)));
    ids.push_back(*id);
  }

  constexpr int kRounds = 16;
  uint64_t expected_bytes_sent = 0;
  {
    DriveExecutor::Options opts;
    opts.workers = 4;
    DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);
    for (int round = 0; round < kRounds; ++round) {
      for (ObjectId id : ids) {
        Bytes frame = ReadFrame(id, 0, 256);
        expected_bytes_sent += frame.size();
        uint64_t stripe = 0;
        DriveExecutor::Mode mode = DriveExecutor::Mode::kBarrier;
        DriveExecutor::Classify(PeekRequestFrame(frame), &stripe, &mode);
        exec.Submit(0, stripe, mode, [&transport, frame = std::move(frame)] {
          // Discarding the response is fine here: the test asserts on the
          // transport's own accounting, not on payloads.
          (void)transport.Call(frame);
        });
      }
    }
    exec.Drain();
  }

  const MetricRegistry& reg = rig.drives[0]->metrics();
  for (const std::string& prefix : {std::string("net."), std::string("net.ep0.")}) {
    EXPECT_EQ(reg.CounterValue(prefix + "messages_sent"),
              static_cast<uint64_t>(kRounds) * ids.size());
    EXPECT_EQ(reg.CounterValue(prefix + "bytes_sent"), expected_bytes_sent);
    EXPECT_EQ(reg.CounterValue(prefix + "messages_received"),
              static_cast<uint64_t>(kRounds) * ids.size());
    EXPECT_GT(reg.CounterValue(prefix + "bytes_received"), 0u);
  }
}

// Concurrent submitters: Submit/SubmitFrame must be callable from many
// client threads at once (the concurrent crash harness and bench both do).
TEST(DriveExecutorTest, ConcurrentSubmitters) {
  Rig rig = MakeRig(1);
  std::vector<ObjectId> ids;
  for (int t = 0; t < 4; ++t) {
    auto id = rig.drives[0]->Create(UserCreds(), {});
    ASSERT_OK(id.status());
    ids.push_back(*id);
  }
  {
    DriveExecutor::Options opts;
    opts.workers = 4;
    DriveExecutor exec(rig.clock.get(), rig.drive_ptrs(), opts);
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&exec, &rig, &ids, t] {
        for (int i = 0; i < 32; ++i) {
          exec.SubmitFrame(0, rig.servers[0].get(),
                           AppendFrame(ids[static_cast<size_t>(t)], 64,
                                       static_cast<uint8_t>(i + 1)));
        }
      });
    }
    for (auto& c : clients) {
      c.join();
    }
    exec.Drain();
    EXPECT_EQ(exec.completed(0), 4u * 32u);
  }
  for (ObjectId id : ids) {
    auto attr = rig.drives[0]->GetAttr(UserCreds(), id);
    ASSERT_OK(attr.status());
    EXPECT_EQ(attr->size, 64u * 32u);
  }
}

}  // namespace
}  // namespace s4
