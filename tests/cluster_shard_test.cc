// ShardRouter: sharded multi-drive S4 with XOR parity redundancy and paced
// online rebuild. Covers deterministic routing/remount, epoch growth,
// degraded current+historical reads after a device loss, survivor audit
// verification, budget-paced rebuild under foreground traffic, idempotent
// rebuild resume after a power cut on the spare, and the fan-out timing
// contract (per-shard requests overlap; a call waits for its slowest shard).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/cluster/shard_router.h"
#include "src/fs/s4_fs.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

Bytes BytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string StringOf(const Bytes& b) { return std::string(b.begin(), b.end()); }

// One shard call as seen on the clock: which shard, when it started, when it
// returned.
struct CallSpan {
  size_t shard = 0;
  SimTime start = 0;
  SimTime end = 0;
};

// Forwards to a shard's transport and logs every call's span, so a test can
// see which requests overlapped.
class SpanLoggingTransport : public RpcTransport {
 public:
  SpanLoggingTransport(RpcTransport* inner, SimClock* clock, size_t shard,
                       std::vector<CallSpan>* log)
      : inner_(inner), clock_(clock), shard_(shard), log_(log) {}

  Result<Bytes> Call(ByteSpan request) override {
    SimTime start = clock_->Now();
    auto resp = inner_->Call(request);
    log_->push_back(CallSpan{shard_, start, clock_->Now()});
    return resp;
  }

 private:
  RpcTransport* inner_;
  SimClock* clock_;
  size_t shard_;
  std::vector<CallSpan>* log_;
};

TEST(SimClockFanOutTest, RequestsToOneKeySerialiseOnItsLane) {
  SimClock clock(SimTime{100});
  {
    SimClock::FanOut fan(&clock, 2);
    fan.Run(0, [&] {
      EXPECT_EQ(clock.Now(), 100);
      clock.Advance(10);
    });
    fan.Run(1, [&] {
      EXPECT_EQ(clock.Now(), 100);  // other keys start at the scope's start
      clock.Advance(25);
    });
    // A second request to key 0 resumes where key 0's lane ended.
    SimTime second_start = fan.Run(0, [&] {
      SimTime t = clock.Now();
      clock.Advance(30);
      return t;
    });
    EXPECT_EQ(second_start, 110);
    EXPECT_EQ(clock.Now(), 100);  // the caller's clock waits for the scope's end
  }
  // Key 0's lane ends at 140, key 1's at 125: the scope costs its slowest key.
  EXPECT_EQ(clock.Now(), 140);
}

class ClusterShardTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  void SetUp() override {
    clock_ = std::make_unique<SimClock>(SimTime{1000000});
    opts_ = DriveTest::SmallOptions();
    for (size_t i = 0; i < kShards; ++i) {
      AddDrive();
    }
    auto router = ShardRouter::Format(Endpoints(), clock_.get(), User(100), RouterOpts());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(*router);
  }

  ShardRouter::Options RouterOpts() const {
    ShardRouter::Options o;
    o.admin_key = opts_.admin_key;
    return o;
  }

  // Formats one more drive and returns its endpoint index.
  size_t AddDrive() {
    size_t i = devices_.size();
    devices_.push_back(
        std::make_unique<BlockDevice>((48ull << 20) / kSectorSize, clock_.get()));
    injectors_.push_back(std::make_unique<FaultInjector>());
    devices_.back()->set_fault_injector(injectors_.back().get());
    auto drive = S4Drive::Format(devices_.back().get(), clock_.get(), opts_);
    S4_CHECK(drive.ok());
    drives_.push_back(std::move(*drive));
    servers_.push_back(
        std::make_unique<S4RpcServer>(drives_.back().get(), static_cast<int32_t>(i)));
    transports_.push_back(std::make_unique<LoopbackTransport>(
        servers_.back().get(), clock_.get(), NetModel(), "shard" + std::to_string(i)));
    return i;
  }

  ShardEndpoint Endpoint(size_t i) {
    ShardEndpoint ep;
    ep.drive = drives_[i].get();
    ep.transport = transports_[i].get();
    return ep;
  }

  std::vector<ShardEndpoint> Endpoints(size_t count = kShards) {
    std::vector<ShardEndpoint> eps;
    for (size_t i = 0; i < count; ++i) {
      eps.push_back(Endpoint(i));
    }
    return eps;
  }

  // Remounts drive `i` after a power cut (caches lost, platters intact).
  void RemountDrive(size_t i) {
    injectors_[i]->Reset();
    drives_[i].reset();
    auto drive = S4Drive::Mount(devices_[i].get(), clock_.get(), opts_);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    drives_[i] = std::move(*drive);
    servers_[i] =
        std::make_unique<S4RpcServer>(drives_[i].get(), static_cast<int32_t>(i));
    transports_[i] = std::make_unique<LoopbackTransport>(
        servers_[i].get(), clock_.get(), NetModel(), "shard" + std::to_string(i));
  }

  Credentials User(UserId user, ClientId client = 1) const {
    Credentials c;
    c.user = user;
    c.client = client;
    return c;
  }
  Credentials Admin() const {
    Credentials c;
    c.admin_key = opts_.admin_key;
    return c;
  }

  // Creates `n` objects with distinct content through the router.
  std::vector<std::pair<ObjectId, std::string>> Populate(int n) {
    std::vector<std::pair<ObjectId, std::string>> objs;
    for (int i = 0; i < n; ++i) {
      auto id = router_->Create({});
      S4_CHECK(id.ok());
      std::string content = "object-" + std::to_string(i) + "-content";
      S4_CHECK(router_->Write(*id, 0, BytesOf(content)).ok());
      objs.emplace_back(*id, content);
    }
    return objs;
  }

  // Tears the whole array down and formats an identical one on a new clock.
  void RebuildFixture() {
    router_.reset();
    transports_.clear();
    servers_.clear();
    drives_.clear();
    injectors_.clear();
    devices_.clear();
    SetUp();
  }

  // Shards holding each object's data or its group's parity.
  std::set<uint32_t> ShardsTouched(
      const std::vector<std::pair<ObjectId, std::string>>& objs) const {
    std::set<uint32_t> shards;
    for (const auto& [id, content] : objs) {
      const ShardMap::GidInfo* info = router_->map().Find(id);
      shards.insert(info->shard);
      if (info->group >= 0) shards.insert(router_->map().group(info->group).parity_shard);
    }
    return shards;
  }

  // Pumps RebuildTick until completion; returns tick count.
  int PumpRebuild(uint64_t budget) {
    int ticks = 0;
    while (true) {
      auto done = router_->RebuildTick(budget);
      S4_CHECK(done.ok());
      ++ticks;
      if (*done) return ticks;
      S4_CHECK(ticks < 10000);
    }
  }

  std::unique_ptr<SimClock> clock_;
  S4DriveOptions opts_;
  std::vector<std::unique_ptr<BlockDevice>> devices_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::vector<std::unique_ptr<S4Drive>> drives_;
  std::vector<std::unique_ptr<S4RpcServer>> servers_;
  std::vector<std::unique_ptr<LoopbackTransport>> transports_;
  std::unique_ptr<ShardRouter> router_;
};

TEST_F(ClusterShardTest, RoutingSpreadsObjectsAcrossShards) {
  auto objs = Populate(24);
  std::set<uint32_t> used;
  for (const auto& [id, content] : objs) {
    const ShardMap::GidInfo* info = router_->map().Find(id);
    ASSERT_NE(info, nullptr);
    used.insert(info->shard);
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
    EXPECT_EQ(StringOf(got), content);
  }
  EXPECT_EQ(used.size(), kShards);  // load spread across the array
  // Parity maintenance ran for every mutation.
  EXPECT_GT(router_->rstats().parity_deltas, 0u);
  EXPECT_EQ(router_->rstats().parity_skips, 0u);
}

TEST_F(ClusterShardTest, SyncCleanRemountPreservesRouting) {
  auto objs = Populate(12);
  ASSERT_OK(router_->Delete(objs[4].first));
  ASSERT_OK(router_->Sync());
  router_.reset();
  ASSERT_OK_AND_ASSIGN(
      router_, ShardRouter::Mount(Endpoints(), clock_.get(), User(100), RouterOpts()));
  for (const auto& [id, content] : objs) {
    if (id == objs[4].first) {
      EXPECT_EQ(router_->Read(id, 0, 64).status().code(),
                ErrorCode::kFailedPrecondition);
      continue;
    }
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
    EXPECT_EQ(StringOf(got), content);
  }
  // The remounted map keeps minting from the persisted floor.
  ASSERT_OK_AND_ASSIGN(ObjectId fresh, router_->Create({}));
  EXPECT_GT(fresh, objs.back().first);
  ASSERT_OK(router_->Write(fresh, 0, BytesOf("post-remount")));
  ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(fresh, 0, 64));
  EXPECT_EQ(StringOf(got), "post-remount");
}

TEST_F(ClusterShardTest, MountRefusesWithoutSyncCleanShutdown) {
  Populate(6);
  // No Sync: the drives hold creates the persisted map floor never covered.
  router_.reset();
  auto r = ShardRouter::Mount(Endpoints(), clock_.get(), User(100), RouterOpts());
  EXPECT_EQ(r.status().code(), ErrorCode::kDataCorruption);
}

TEST_F(ClusterShardTest, BatchKeepsPerSubOrderAcrossShards) {
  auto objs = Populate(6);
  std::vector<RpcRequest> batch;
  for (const auto& [id, content] : objs) {
    RpcRequest w;
    w.op = RpcOp::kWrite;
    w.object = id;
    w.offset = 0;
    w.data = BytesOf("batched!");
    batch.push_back(std::move(w));
    RpcRequest r;
    r.op = RpcOp::kRead;
    r.object = id;
    r.offset = 0;
    r.length = 64;
    batch.push_back(std::move(r));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, router_->CallBatch(std::move(batch)));
  ASSERT_EQ(resps.size(), objs.size() * 2);
  for (size_t i = 0; i < resps.size(); i += 2) {
    EXPECT_TRUE(resps[i].ok()) << resps[i].message;
    ASSERT_TRUE(resps[i + 1].ok()) << resps[i + 1].message;
    // The read follows its own shard's write: per-sub order is preserved.
    EXPECT_EQ(StringOf(resps[i + 1].data).substr(0, 8), "batched!");
  }
}

TEST_F(ClusterShardTest, GrowthEpochRoutesNewObjectsToNewShard) {
  auto objs = Populate(10);
  ASSERT_OK(router_->Sync());
  size_t fresh = AddDrive();
  ASSERT_OK(router_->AddShard(Endpoint(fresh)));
  EXPECT_EQ(router_->map().shard_count(), kShards + 1);
  // Old objects did not move...
  for (const auto& [id, content] : objs) {
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
    EXPECT_EQ(StringOf(got), content);
    EXPECT_LT(router_->map().Find(id)->shard, kShards);
  }
  // ...and new gids start landing on the grown array, including the spare.
  std::set<uint32_t> used;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
    ASSERT_OK(router_->Write(id, 0, BytesOf("grown")));
    used.insert(router_->map().Find(id)->shard);
  }
  EXPECT_TRUE(used.count(static_cast<uint32_t>(fresh)) > 0);
  ASSERT_OK(router_->Sync());
  // The grown map survives a remount.
  router_.reset();
  ASSERT_OK_AND_ASSIGN(router_, ShardRouter::Mount(Endpoints(kShards + 1), clock_.get(),
                                                   User(100), RouterOpts()));
  EXPECT_EQ(router_->map().shard_count(), kShards + 1);
}

TEST_F(ClusterShardTest, DegradedReadsServeCurrentAndHistory) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
  ASSERT_OK(router_->Write(id, 0, BytesOf("version-one.")));
  // Surround it with group siblings so reconstruction XORs real content.
  auto siblings = Populate(8);
  SimTime t1 = clock_->Now();
  clock_->Advance(kMinute);
  ASSERT_OK(router_->Write(id, 0, BytesOf("version-TWO!")));

  uint32_t shard = router_->map().Find(id)->shard;
  router_->FailShard(shard);
  EXPECT_EQ(router_->shard_state(shard), ShardState::kDead);

  // Current read reconstructs from parity + surviving members.
  ASSERT_OK_AND_ASSIGN(Bytes cur, router_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(cur), "version-TWO!");
  // History read inside the detection window also survives the device loss:
  // the parity object is itself a versioned S4 object.
  ASSERT_OK_AND_ASSIGN(Bytes old, router_->Read(id, 0, 64, t1));
  EXPECT_EQ(StringOf(old), "version-one.");
  // Degraded GetAttr comes from the lane directory.
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, router_->GetAttr(id));
  EXPECT_EQ(attrs.size, 12u);
  // Siblings on surviving shards read directly; siblings on the dead shard
  // reconstruct.
  for (const auto& [sid, content] : siblings) {
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(sid, 0, 64));
    EXPECT_EQ(StringOf(got), content) << sid;
  }
  EXPECT_GT(router_->rstats().degraded_reads, 0u);
  EXPECT_EQ(router_->rstats().shard_failures, 1u);
}

TEST_F(ClusterShardTest, DegradedWritesKeepObjectMutable) {
  auto objs = Populate(8);
  ObjectId id = objs[0].first;
  uint32_t shard = router_->map().Find(id)->shard;
  router_->FailShard(shard);

  ASSERT_OK(router_->Write(id, 0, BytesOf("degraded-mode overwrite")));
  ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "degraded-mode overwrite");
  ASSERT_OK_AND_ASSIGN(uint64_t new_size, router_->Append(id, BytesOf(" +tail")));
  EXPECT_EQ(new_size, 29u);
  ASSERT_OK_AND_ASSIGN(got, router_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "degraded-mode overwrite +tail");
  ASSERT_OK(router_->Truncate(id, 13));
  ASSERT_OK_AND_ASSIGN(got, router_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "degraded-mode");
  // Permission checks still hold: only the owner (or admin) authenticates.
  router_->set_creds(User(999));
  EXPECT_EQ(router_->Read(id, 0, 64).status().code(), ErrorCode::kPermissionDenied);
  router_->set_creds(User(100));
  // Degraded delete tombstones the lane record.
  ASSERT_OK(router_->Delete(objs[1].first));
  EXPECT_EQ(router_->Read(objs[1].first, 0, 64).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_GT(router_->rstats().degraded_writes, 0u);
}

TEST_F(ClusterShardTest, SurvivorAuditChainsVerifyAfterDeviceLoss) {
  auto objs = Populate(8);
  std::set<uint32_t> data_shards;
  for (const auto& [id, content] : objs) {
    data_shards.insert(router_->map().Find(id)->shard);
  }
  router_->FailShard(router_->map().Find(objs[0].first)->shard);
  ASSERT_OK(router_->Write(objs[0].first, 0, BytesOf("post-loss evidence")));
  // Outcome irrelevant: the read only has to leave audit evidence behind.
  (void)router_->Read(objs[0].first, 0, 64);

  for (size_t i = 0; i < kShards; ++i) {
    if (router_->shard_state(i) == ShardState::kDead) continue;
    // The external auditor's challenge protocol, straight at the survivor.
    S4Client auditor(transports_[i].get(), Admin());
    AuditChainState saved;
    EXPECT_OK(auditor.AuditChallenge(&saved));
    // The survivor's chronicle attributes data ops to the real principal
    // (user 100), not to the array controller.
    if (data_shards.count(static_cast<uint32_t>(i)) == 0) continue;
    AuditQuery q;
    q.user = 100;
    ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> recs,
                         drives_[i]->QueryAudit(Admin(), q));
    EXPECT_FALSE(recs.empty()) << "shard " << i;
  }
}

TEST_F(ClusterShardTest, RebuildRestoresShardUnderForegroundTraffic) {
  auto objs = Populate(12);
  ASSERT_OK(router_->Delete(objs[3].first));
  ASSERT_OK(router_->Sync());
  uint32_t shard = router_->map().Find(objs[0].first)->shard;
  router_->FailShard(shard);

  // Mutations continue while the shard is down...
  ASSERT_OK(router_->Write(objs[0].first, 0, BytesOf("updated while degraded")));

  size_t spare = AddDrive();
  ASSERT_OK(router_->AttachSpare(shard, Endpoint(spare)));
  EXPECT_EQ(router_->shard_state(shard), ShardState::kRebuilding);

  // ...and during the paced rebuild (foreground ops between ticks). A
  // 1-byte budget degenerates to one reconstructed object per tick, making
  // the pacing deterministic.
  int ticks = 0;
  while (true) {
    auto done = router_->RebuildTick(1);
    ASSERT_OK(done.status());
    ++ticks;
    if (*done) break;
    ASSERT_OK(router_->Write(objs[5].first, 0, BytesOf("foreground traffic")));
    ASSERT_LT(ticks, 10000);
  }
  EXPECT_GT(ticks, 1);  // the byte budget actually paced the rebuild
  EXPECT_EQ(router_->shard_state(shard), ShardState::kHealthy);
  EXPECT_FALSE(router_->rebuild_progress().active);

  // The spare is in allocation lockstep with the map.
  EXPECT_EQ(drives_[spare]->PeekNextObjectId(), router_->map().ExpectedNextBackend(shard));

  // Every object reads back with its latest content; tombstones held.
  for (const auto& [id, content] : objs) {
    if (id == objs[3].first) {
      EXPECT_EQ(router_->Read(id, 0, 64).status().code(),
                ErrorCode::kFailedPrecondition);
      continue;
    }
    std::string expect = content;
    if (id == objs[0].first) expect = "updated while degraded";
    if (id == objs[5].first) expect = "foreground traffic";
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
    EXPECT_EQ(StringOf(got), expect) << id;
  }
  // New creates route to the rebuilt shard again.
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
    ASSERT_OK(router_->Write(id, 0, BytesOf("fresh")));
  }
  ASSERT_OK(router_->Sync());
}

TEST_F(ClusterShardTest, HistoryReadsSurviveRebuildViaParity) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
  ASSERT_OK(router_->Write(id, 0, BytesOf("pre-loss.")));
  Populate(6);
  ASSERT_OK(router_->Sync());
  SimTime t1 = clock_->Now();
  clock_->Advance(kMinute);

  uint32_t shard = router_->map().Find(id)->shard;
  router_->FailShard(shard);
  size_t spare = AddDrive();
  ASSERT_OK(router_->AttachSpare(shard, Endpoint(spare)));
  PumpRebuild(1 << 20);

  // Current read hits the rebuilt spare directly.
  ASSERT_OK_AND_ASSIGN(Bytes cur, router_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(cur), "pre-loss.");
  // A history read older than the rebuild cannot come from the spare (its
  // version log starts at the rebuild); the router takes the parity path.
  ASSERT_OK_AND_ASSIGN(Bytes old, router_->Read(id, 0, 64, t1));
  EXPECT_EQ(StringOf(old), "pre-loss.");
}

TEST_F(ClusterShardTest, PowerCutDuringRebuildResumesIdempotently) {
  auto objs = Populate(12);
  ASSERT_OK(router_->Sync());
  uint32_t shard = router_->map().Find(objs[0].first)->shard;
  router_->FailShard(shard);

  size_t spare = AddDrive();
  ASSERT_OK(router_->AttachSpare(shard, Endpoint(spare)));
  // Let one tick land durably, then cut power on the SPARE at its very next
  // write command: the cut strikes mid-reconstruction, after real progress.
  ASSERT_OK_AND_ASSIGN(bool first_done, router_->RebuildTick(1));
  ASSERT_FALSE(first_done);
  injectors_[spare]->SchedulePowerCut(1);
  bool cut = false;
  for (int i = 0; i < 10000; ++i) {
    auto done = router_->RebuildTick(1);
    if (!done.ok()) {
      cut = true;
      break;
    }
    if (*done) break;
  }
  ASSERT_TRUE(cut);
  ASSERT_TRUE(injectors_[spare]->power_cut_fired());
  EXPECT_EQ(router_->shard_state(shard), ShardState::kDead);

  // Power back on, remount the spare, re-attach: the rebuild resumes from
  // the spare's own allocation cursor instead of starting over.
  RemountDrive(spare);
  ASSERT_OK(router_->AttachSpare(shard, Endpoint(spare)));
  uint64_t resumed_from = router_->rebuild_progress().entries_done;
  PumpRebuild(64 << 10);
  // EnsureStarted runs inside the first tick, so re-check after pumping.
  EXPECT_EQ(router_->shard_state(shard), ShardState::kHealthy);
  (void)resumed_from;

  EXPECT_EQ(drives_[spare]->PeekNextObjectId(), router_->map().ExpectedNextBackend(shard));
  for (const auto& [id, content] : objs) {
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
    EXPECT_EQ(StringOf(got), content) << id;
  }
  ASSERT_OK(router_->Sync());
  // And the array is sync-clean remountable afterwards.
  router_.reset();
  ASSERT_OK_AND_ASSIGN(
      router_, ShardRouter::Mount(Endpoints(), clock_.get(), User(100), RouterOpts()));
  ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(objs[7].first, 0, 64));
  EXPECT_EQ(StringOf(got), objs[7].second);
}

TEST_F(ClusterShardTest, PartitionPlaneWorksHealthyAndDegraded) {
  auto objs = Populate(6);
  ASSERT_OK(router_->PCreate("home", objs[0].first));
  ASSERT_OK(router_->PCreate("scratch", objs[1].first));
  EXPECT_EQ(router_->PCreate("home", objs[2].first).code(), ErrorCode::kAlreadyExists);
  ASSERT_OK_AND_ASSIGN(ObjectId mounted, router_->PMount("home"));
  EXPECT_EQ(mounted, objs[0].first);
  ASSERT_OK_AND_ASSIGN(auto list, router_->PList());
  EXPECT_EQ(list.size(), 2u);

  // The partition table object is parity-protected like everything else.
  uint32_t ptab_shard = router_->map().Find(kFirstUserObjectId)->shard;
  router_->FailShard(ptab_shard);
  ASSERT_OK_AND_ASSIGN(list, router_->PList());
  EXPECT_EQ(list.size(), 2u);
  ASSERT_OK(router_->PDelete("scratch"));
  ASSERT_OK_AND_ASSIGN(list, router_->PList());
  EXPECT_EQ(list.size(), 1u);
  ASSERT_OK_AND_ASSIGN(mounted, router_->PMount("home"));
  EXPECT_EQ(mounted, objs[0].first);
}

TEST_F(ClusterShardTest, FileSystemMountsTheArray) {
  // S4FileSystem programs against S4ClientApi, so an N-drive array mounts
  // exactly like one drive.
  ASSERT_OK_AND_ASSIGN(auto fs, S4FileSystem::Format(router_.get(), "root"));
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle file, fs->CreateFile(root, "hello.txt", 0644));
  ASSERT_OK(fs->WriteFile(file, 0, BytesOf("fs over shards")));
  ASSERT_OK(fs->Commit());
  ASSERT_OK_AND_ASSIGN(Bytes got, fs->ReadFile(file, 0, 64));
  EXPECT_EQ(StringOf(got), "fs over shards");
  ASSERT_OK_AND_ASSIGN(auto entries, fs->ReadDir(root));
  EXPECT_EQ(entries.size(), 1u);
  // Remount through PMount on the array.
  ASSERT_OK_AND_ASSIGN(auto fs2, S4FileSystem::Mount(router_.get(), "root"));
  ASSERT_OK_AND_ASSIGN(FileHandle root2, fs2->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle file2, fs2->Lookup(root2, "hello.txt"));
  ASSERT_OK_AND_ASSIGN(got, fs2->ReadFile(file2, 0, 64));
  EXPECT_EQ(StringOf(got), "fs over shards");
}

TEST_F(ClusterShardTest, PerEndpointNetCountersAndBusyAttribution) {
  Populate(8);
  ASSERT_OK(router_->Sync());
  for (size_t i = 0; i < kShards; ++i) {
    Counter* sent =
        drives_[i]->metrics().GetCounter("net.shard" + std::to_string(i) + ".messages_sent");
    EXPECT_GT(sent->value(), 0u) << "shard " << i;
  }
  const auto& busy = router_->attributed_busy();
  ASSERT_EQ(busy.size(), kShards);
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_GT(busy[i], 0) << "shard " << i;
  }
  ASSERT_OK(router_->MaintainShards());
}

TEST_F(ClusterShardTest, CreatesBlockWhileHomeShardIsDownThenResume) {
  auto objs = Populate(4);
  uint32_t next_shard = router_->map().NextCreateDataShard();
  router_->FailShard(next_shard);
  // The next gid's home shard is down: creates fail without consuming gids.
  ObjectId before = router_->map().next_gid();
  EXPECT_EQ(router_->Create({}).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(router_->map().next_gid(), before);
  // After the rebuild, the same gid mints on the same shard.
  size_t spare = AddDrive();
  ASSERT_OK(router_->AttachSpare(next_shard, Endpoint(spare)));
  PumpRebuild(1 << 20);
  ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
  EXPECT_EQ(id, before);
  EXPECT_EQ(router_->map().Find(id)->shard, next_shard);
  ASSERT_OK(router_->Write(id, 0, BytesOf("minted post-rebuild")));
  ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "minted post-rebuild");
  (void)objs;
}

TEST_F(ClusterShardTest, SyncWaitsForItsSlowestShard) {
  auto objs = Populate(8);
  ASSERT_EQ(ShardsTouched(objs).size(), kShards);
  const std::vector<SimDuration> busy0 = router_->attributed_busy();
  const SimTime t0 = clock_->Now();
  ASSERT_OK(router_->Sync());
  const SimDuration advance = clock_->Now() - t0;
  SimDuration sum = 0;
  SimDuration slowest = 0;
  for (size_t i = 0; i < kShards; ++i) {
    SimDuration d = router_->attributed_busy()[i] - busy0[i];
    EXPECT_GT(d, 0) << "shard " << i;
    sum += d;
    slowest = std::max(slowest, d);
  }
  // Every shard flushes its envelope on its own lane, all starting together.
  EXPECT_EQ(advance, slowest);
  EXPECT_LT(advance, sum);
}

TEST_F(ClusterShardTest, DegradedReadWaitsForItsSlowestFetch) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
  ASSERT_OK(router_->Write(id, 0, BytesOf("content of the lost shard")));
  Populate(8);  // fills id's parity group with siblings on other shards
  ASSERT_OK(router_->Sync());
  // Remount the array over transports that log every shard call's span.
  std::vector<CallSpan> log;
  std::vector<std::unique_ptr<SpanLoggingTransport>> logged;
  std::vector<ShardEndpoint> eps = Endpoints();
  for (size_t i = 0; i < kShards; ++i) {
    logged.push_back(
        std::make_unique<SpanLoggingTransport>(eps[i].transport, clock_.get(), i, &log));
    eps[i].transport = logged.back().get();
  }
  router_.reset();
  ASSERT_OK_AND_ASSIGN(router_,
                       ShardRouter::Mount(eps, clock_.get(), User(100), RouterOpts()));
  const ShardMap::GidInfo* info = router_->map().Find(id);
  ASSERT_GE(info->group, 0);
  const ShardMap::Group& group = router_->map().group(info->group);
  router_->FailShard(info->shard);

  log.clear();
  const SimTime t0 = clock_->Now();
  ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 64));
  const SimTime t1 = clock_->Now();
  EXPECT_EQ(StringOf(got), "content of the lost shard");

  // First the lane record (the read's length depends on it), then one
  // fan-out: the parity range plus every surviving member's range.
  ASSERT_EQ(log.size(), 1 + group.members.size());
  EXPECT_EQ(log[0].shard, group.parity_shard);
  EXPECT_EQ(log[0].start, t0);
  const SimTime fan_start = log[0].end;
  SimTime latest = fan_start;
  SimDuration sum = 0;
  std::set<size_t> fetched;
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_EQ(log[i].start, fan_start) << "fetch " << i;
    latest = std::max(latest, log[i].end);
    sum += log[i].end - log[i].start;
    fetched.insert(log[i].shard);
  }
  EXPECT_EQ(fetched.size(), group.members.size());
  EXPECT_EQ(fetched.count(info->shard), 0u);
  EXPECT_EQ(t1, latest);
  EXPECT_LT(t1 - fan_start, sum);
}

TEST_F(ClusterShardTest, FanOutTimingIsDeterministic) {
  auto run = [&] {
    auto objs = Populate(12);
    std::vector<RpcRequest> batch;
    for (const auto& [id, content] : objs) {
      RpcRequest a;
      a.op = RpcOp::kAppend;
      a.object = id;
      a.data = BytesOf("+batched");
      batch.push_back(std::move(a));
    }
    RpcRequest sync;
    sync.op = RpcOp::kSync;
    batch.push_back(std::move(sync));
    auto resps = router_->CallBatch(std::move(batch));
    S4_CHECK(resps.ok());
    S4_CHECK(router_->MaintainShards().ok());
    router_->FailShard(1);
    for (const auto& [id, content] : objs) {
      S4_CHECK(router_->Read(id, 0, 64).ok());
    }
    return std::make_pair(clock_->Now(), router_->attributed_busy());
  };
  auto first = run();
  RebuildFixture();
  auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ClusterShardTest, FanOutOnACallerLaneAdvancesOnlyThatLane) {
  auto objs = Populate(8);
  ASSERT_EQ(ShardsTouched(objs).size(), kShards);
  const std::vector<SimDuration> busy0 = router_->attributed_busy();
  const SimTime global = clock_->Now();
  SimTime lane_end = 0;
  {
    // The caller is itself on a lane, as an executor worker would be.
    SimClock::Lane lane(clock_.get(), global);
    ASSERT_OK(router_->Sync());
    lane_end = lane.now();
  }
  SimDuration slowest = 0;
  for (size_t i = 0; i < kShards; ++i) {
    slowest = std::max(slowest, router_->attributed_busy()[i] - busy0[i]);
  }
  EXPECT_EQ(lane_end - global, slowest);
  EXPECT_EQ(clock_->Now(), global);
}

}  // namespace
}  // namespace s4
