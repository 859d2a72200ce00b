// ShardRouter: sharded multi-drive S4 with XOR parity redundancy and paced
// online rebuild. Covers deterministic routing/remount, epoch growth,
// degraded current+historical reads after a device loss, survivor audit
// verification, budget-paced rebuild under foreground traffic, idempotent
// rebuild resume after a power cut on the spare, the parity rules (every
// mutation healthy and degraded, rebuilt parity, repair after a failed
// sub-op, a deleted member's owner), and the timing contract (requests to
// one shard queue on its busy-until timeline, requests to different shards
// overlap, and a call waits for its slowest shard).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
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

  bool operator==(const CallSpan&) const = default;
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
  // Two devices' busy-until timelines; they outlive every scope.
  std::vector<SimTime> busy(2, 0);
  // One request to `key` costing `cost`; returns when it started.
  auto request = [&](size_t key, SimDuration cost) {
    return clock.Occupy(&busy[key], [&] {
      SimTime start = clock.Now();
      clock.Advance(cost);
      return start;
    });
  };
  {
    SimClock::FanOut fan(&clock);
    EXPECT_EQ(fan.Run([&] { return request(0, 10); }), 100);
    EXPECT_EQ(fan.Run([&] { return request(1, 25); }), 100);  // other keys start together
    // A second request to key 0 waits until key 0's first one ends.
    EXPECT_EQ(fan.Run([&] { return request(0, 30); }), 110);
    EXPECT_EQ(clock.Now(), 100);  // the caller's clock waits for the scope's end
  }
  // Key 0 is busy until 140, key 1 until 125: the scope costs its slowest key.
  EXPECT_EQ(clock.Now(), 140);
  EXPECT_EQ(busy, (std::vector<SimTime>{140, 125}));
  {
    // A caller whose clock is behind a key's timeline queues on it; a key
    // already free starts at the caller's own time.
    SimClock::Lane client(&clock, 130);
    EXPECT_EQ(request(0, 5), 140);
    SimClock::Lane another(&clock, 130);
    EXPECT_EQ(request(1, 5), 130);
  }
  EXPECT_EQ(busy, (std::vector<SimTime>{145, 135}));
  EXPECT_EQ(clock.Now(), 140);  // lanes leave the global clock alone
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

  // `n` bytes that differ per seed and are never all zero.
  static Bytes Pattern(int seed, size_t n) {
    Bytes b(n);
    for (size_t i = 0; i < n; ++i) b[i] = static_cast<uint8_t>(seed * 37 + i * 11 + 1);
    return b;
  }

  // Another member of `id`'s parity group (never the partition table).
  ObjectId GroupSibling(ObjectId id) const {
    const ShardMap::GidInfo* info = router_->map().Find(id);
    S4_CHECK(info != nullptr && info->group >= 0);
    for (ObjectId m : router_->map().group(info->group).members) {
      if (m != id && m != kFirstUserObjectId) return m;
    }
    S4_CHECK(false);
    return 0;
  }

  // A write by user 999, whom no ACL admits: the data sub-op fails after its
  // parity delta was queued, so the router repairs the group.
  void DeniedWrite(ObjectId id, uint64_t offset = 0) {
    router_->set_creds(User(999));
    RpcRequest w;
    w.op = RpcOp::kWrite;
    w.object = id;
    w.offset = offset;
    w.data = BytesOf("intruder bytes");
    ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, router_->CallBatch({std::move(w)}));
    EXPECT_EQ(resps[0].code, ErrorCode::kPermissionDenied);
    router_->set_creds(User(100));
  }

  // Deletes a member, denies a write to a sibling so the router repairs the
  // group, then loses the deleted member's shard: its owner must still read
  // its history through the degraded path.
  void DeletedMemberOwnerSurvivesRepair(bool remount) {
    auto objs = Populate(9);
    const ObjectId deleted = objs[4].first;
    ASSERT_OK(router_->Delete(deleted));
    ASSERT_OK(router_->Sync());
    if (remount) {
      router_.reset();
      ASSERT_OK_AND_ASSIGN(
          router_, ShardRouter::Mount(Endpoints(), clock_.get(), User(100), RouterOpts()));
    }
    DeniedWrite(GroupSibling(deleted));
    EXPECT_EQ(router_->rstats().parity_repairs, 1u);
    router_->FailShard(router_->map().Find(deleted)->shard);
    EXPECT_OK(router_->GetVersionList(deleted).status());
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

  // Remounts the (sync-clean) array over transports that log every shard
  // call's span into span_log_.
  void MountLogged() {
    router_.reset();
    logged_.clear();
    std::vector<ShardEndpoint> eps = Endpoints();
    for (size_t i = 0; i < kShards; ++i) {
      logged_.push_back(std::make_unique<SpanLoggingTransport>(eps[i].transport, clock_.get(),
                                                               i, &span_log_));
      eps[i].transport = logged_.back().get();
    }
    auto router = ShardRouter::Mount(eps, clock_.get(), User(100), RouterOpts());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(*router);
  }

  // Each shard's time in span_log_: the sum of its calls' spans.
  std::vector<SimDuration> ShardTimes() const {
    std::vector<SimDuration> times(kShards, 0);
    for (const CallSpan& call : span_log_) times[call.shard] += call.end - call.start;
    return times;
  }

  // Round trips the caller waited through in span_log_: every serial call
  // starts at its own instant, and every request of one fan-out starts at
  // the fan's start.
  size_t Rounds() const {
    std::set<SimTime> starts;
    for (const CallSpan& call : span_log_) starts.insert(call.start);
    return starts.size();
  }

  // A parity group as its parity shard stores it.
  struct StoredGroup {
    std::vector<LaneImage> lanes;
    Bytes parity;  // past the lane directory, trailing zeros dropped
  };
  // Every group's stored lane records and parity, each checked against its
  // members' current bytes: the parity must be their XOR.
  std::vector<StoredGroup> StoredGroups() {
    auto trim = [](Bytes b) {
      while (!b.empty() && b.back() == 0) b.pop_back();
      return b;
    };
    std::vector<StoredGroup> out;
    for (size_t g = 0; g < router_->map().group_count(); ++g) {
      const ShardMap::Group& group = router_->map().group(static_cast<int32_t>(g));
      S4Drive* drive = drives_[group.parity_shard].get();
      auto attrs = drive->GetAttr(Admin(), group.parity_backend);
      S4_CHECK(attrs.ok());
      auto stored = drive->Read(Admin(), group.parity_backend, 0, attrs->size);
      S4_CHECK(stored.ok());
      StoredGroup sg;
      Bytes xor_of_members;
      for (size_t lane = 0; lane < group.members.size(); ++lane) {
        auto img = LaneImage::Decode(
            ByteSpan(*stored).subspan(lane * kLaneSlotBytes, kLaneSlotBytes));
        S4_CHECK(img.ok());
        sg.lanes.push_back(*img);
        auto member = router_->Read(group.members[lane], 0, 1 << 20);
        if (member.status().code() == ErrorCode::kFailedPrecondition) continue;  // deleted
        S4_CHECK(member.ok());
        if (xor_of_members.size() < member->size()) xor_of_members.resize(member->size(), 0);
        for (size_t i = 0; i < member->size(); ++i) xor_of_members[i] ^= (*member)[i];
      }
      if (stored->size() > kParityDataOffset) {
        sg.parity = trim(Bytes(stored->begin() + kParityDataOffset, stored->end()));
      }
      EXPECT_EQ(sg.parity, trim(xor_of_members)) << "group " << g;
      out.push_back(std::move(sg));
    }
    return out;
  }

  std::vector<CallSpan> span_log_;
  std::vector<std::unique_ptr<SpanLoggingTransport>> logged_;
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

TEST_F(ClusterShardTest, PerEndpointNetCounters) {
  Populate(8);
  ASSERT_OK(router_->Sync());
  for (size_t i = 0; i < kShards; ++i) {
    Counter* sent =
        drives_[i]->metrics().GetCounter("net.shard" + std::to_string(i) + ".messages_sent");
    EXPECT_GT(sent->value(), 0u) << "shard " << i;
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
  MountLogged();
  auto objs = Populate(8);
  ASSERT_EQ(ShardsTouched(objs).size(), kShards);
  span_log_.clear();
  const SimTime t0 = clock_->Now();
  ASSERT_OK(router_->Sync());
  const SimDuration advance = clock_->Now() - t0;
  const std::vector<SimDuration> times = ShardTimes();
  SimDuration sum = 0;
  SimDuration slowest = 0;
  for (size_t i = 0; i < kShards; ++i) {
    SimDuration d = times[i];
    EXPECT_GT(d, 0) << "shard " << i;
    sum += d;
    slowest = std::max(slowest, d);
  }
  // Every shard's envelope arrives at the Sync's start; the shards overlap.
  EXPECT_EQ(advance, slowest);
  EXPECT_LT(advance, sum);
}

TEST_F(ClusterShardTest, SyncFlaggedCallSyncsEveryHealthyShard) {
  auto objs = Populate(8);
  auto syncs = [&](size_t shard) {
    AuditQuery query;
    query.op = RpcOp::kSync;
    auto records = drives_[shard]->QueryAudit(Admin(), query);
    S4_CHECK(records.ok());
    return records->size();
  };
  for (bool degraded : {false, true}) {
    const ObjectId id = objs[degraded ? 1 : 0].first;
    if (degraded) router_->FailShard((router_->map().Find(id)->shard + 1) % kShards);
    std::vector<size_t> before(kShards);
    for (size_t i = 0; i < kShards; ++i) {
      if (router_->shard_state(i) == ShardState::kHealthy) before[i] = syncs(i);
    }
    RpcRequest write;
    write.op = RpcOp::kWrite;
    write.object = id;
    write.data = BytesOf("synced in the write's round trip");
    write.sync = true;
    ASSERT_OK_AND_ASSIGN(RpcResponse resp, router_->Call(std::move(write)));
    EXPECT_TRUE(resp.ok()) << resp.message;
    for (size_t i = 0; i < kShards; ++i) {
      if (router_->shard_state(i) != ShardState::kHealthy) continue;
      EXPECT_EQ(syncs(i), before[i] + 1) << "shard " << i << (degraded ? " (degraded)" : "");
    }
  }
}

TEST_F(ClusterShardTest, SyncFlaggedCallReportsAShardsFailedSync) {
  auto objs = Populate(8);
  const ShardMap::GidInfo* info = router_->map().Find(objs[0].first);
  // A shard the write itself does not touch: its only request is the Sync.
  uint32_t other = 0;
  while (other == info->shard || other == router_->map().group(info->group).parity_shard) {
    ++other;
  }
  injectors_[other]->SchedulePowerCut(1);
  RpcRequest write;
  write.op = RpcOp::kWrite;
  write.object = objs[0].first;
  write.data = BytesOf("not durable everywhere");
  write.sync = true;
  ASSERT_OK_AND_ASSIGN(RpcResponse resp, router_->Call(std::move(write)));
  EXPECT_TRUE(injectors_[other]->power_cut_fired());
  EXPECT_FALSE(resp.ok()) << "a shard's failed Sync must fail the call";
}

TEST_F(ClusterShardTest, SyncFlaggedCallSendsWhatABatchOfOpAndSyncSends) {
  // Per shard: frames and bytes sent, then the clock, after one mutation
  // carrying its sync either way.
  auto traffic = [&](bool flagged) {
    auto objs = Populate(8);
    RpcRequest write;
    write.op = RpcOp::kWrite;
    write.object = objs[3].first;
    write.data = BytesOf("one mutation, then durable");
    if (flagged) {
      write.sync = true;
      S4_CHECK(router_->Call(std::move(write)).ok());
    } else {
      RpcRequest sync;
      sync.op = RpcOp::kSync;
      S4_CHECK(router_->CallBatch({std::move(write), std::move(sync)}).ok());
    }
    std::vector<uint64_t> out;
    for (size_t i = 0; i < kShards; ++i) {
      const std::string prefix = "net.shard" + std::to_string(i) + ".";
      out.push_back(drives_[i]->metrics().CounterValue(prefix + "messages_sent"));
      out.push_back(drives_[i]->metrics().CounterValue(prefix + "bytes_sent"));
    }
    out.push_back(static_cast<uint64_t>(clock_->Now()));
    return out;
  };
  const std::vector<uint64_t> batched = traffic(false);
  RebuildFixture();
  EXPECT_EQ(traffic(true), batched);
}

TEST_F(ClusterShardTest, DegradedReadWaitsForItsSlowestFetch) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
  ASSERT_OK(router_->Write(id, 0, BytesOf("content of the lost shard")));
  Populate(8);  // fills id's parity group with siblings on other shards
  ASSERT_OK(router_->Sync());
  MountLogged();
  const std::vector<CallSpan>& log = span_log_;
  const ShardMap::GidInfo* info = router_->map().Find(id);
  ASSERT_GE(info->group, 0);
  const ShardMap::Group& group = router_->map().group(info->group);
  router_->FailShard(info->shard);

  span_log_.clear();
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
    MountLogged();
    span_log_.clear();
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
    return std::make_pair(clock_->Now(), span_log_);
  };
  auto first = run();
  RebuildFixture();
  auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ClusterShardTest, FanOutOnACallerLaneAdvancesOnlyThatLane) {
  MountLogged();
  auto objs = Populate(8);
  ASSERT_EQ(ShardsTouched(objs).size(), kShards);
  span_log_.clear();
  const SimTime global = clock_->Now();
  SimTime lane_end = 0;
  {
    // The caller is itself on a lane, as an executor worker would be.
    SimClock::Lane lane(clock_.get(), global);
    ASSERT_OK(router_->Sync());
    lane_end = lane.now();
  }
  const std::vector<SimDuration> times = ShardTimes();
  EXPECT_EQ(lane_end - global, *std::max_element(times.begin(), times.end()));
  EXPECT_EQ(clock_->Now(), global);
}

// Two clients, each on its own lane, read cached objects at the same
// instant. Reads of one shard queue on its busy-until timeline: the second
// starts when the first ends. Reads of two shards start together.
TEST_F(ClusterShardTest, ClientLanesQueueOnTheShardTheyShare) {
  auto objs = Populate(8);
  ASSERT_OK(router_->Sync());
  MountLogged();
  auto shard_of = [&](ObjectId id) { return router_->map().Find(id)->shard; };
  const ObjectId first = objs[0].first;
  ObjectId same = 0;
  ObjectId other = 0;
  for (const auto& [id, content] : objs) {
    if (id == first) continue;
    (shard_of(id) == shard_of(first) ? same : other) = id;
  }
  ASSERT_NE(same, 0u);
  ASSERT_NE(other, 0u);
  for (ObjectId id : {first, same, other}) ASSERT_OK(router_->Read(id, 0, 64).status());

  // Both clients' reads as the shards saw them.
  auto two_clients = [&](ObjectId second) {
    span_log_.clear();
    const SimTime t = clock_->Now();
    for (ObjectId id : {first, second}) {
      SimClock::Lane client(clock_.get(), t);
      S4_CHECK(router_->Read(id, 0, 64).ok());
      clock_->AbsorbLane(client.now());
    }
    S4_CHECK(span_log_.size() == 2);
    EXPECT_EQ(span_log_[0].start, t);
    return span_log_;
  };
  std::vector<CallSpan> one_shard = two_clients(same);
  EXPECT_EQ(one_shard[1].start, one_shard[0].end);
  std::vector<CallSpan> two_shards = two_clients(other);
  EXPECT_EQ(two_shards[1].start, two_shards[0].start);
}

// A client mutation applied to a model of the object's content and attrs.
void ApplyToModel(const RpcRequest& req, std::optional<Bytes>* content, Bytes* attrs) {
  Bytes& c = **content;
  switch (req.op) {
    case RpcOp::kWrite:
    case RpcOp::kXorWrite: {
      c.resize(std::max<size_t>(c.size(), req.offset + req.data.size()), 0);
      for (size_t i = 0; i < req.data.size(); ++i) {
        uint8_t& b = c[req.offset + i];
        b = req.op == RpcOp::kWrite ? req.data[i] : static_cast<uint8_t>(b ^ req.data[i]);
      }
      break;
    }
    case RpcOp::kAppend:
      c.insert(c.end(), req.data.begin(), req.data.end());
      break;
    case RpcOp::kTruncate:
      c.resize(req.length, 0);
      break;
    case RpcOp::kDelete:
      content->reset();
      break;
    case RpcOp::kSetAttr:
      *attrs = req.data;
      break;
    default:
      S4_CHECK(false);
  }
}

// Every mutation leaves parity equal to the XOR of its group's members and
// the lane record equal to the member's metadata, whether it ran healthy or
// degraded (then rebuilt): a second device loss is served exactly.
TEST_F(ClusterShardTest, EveryMutationKeepsParityExact) {
  auto op = [](RpcOp code, uint64_t offset, uint64_t length, Bytes data) {
    RpcRequest r;
    r.op = code;
    r.offset = offset;
    r.length = length;
    r.data = std::move(data);
    return r;
  };
  // The target holds 64 bytes and its siblings 200, so every delta below
  // lands inside a sibling's range.
  const std::vector<std::pair<const char*, RpcRequest>> table = {
      {"overlapping Write", op(RpcOp::kWrite, 32, 0, Pattern(90, 64))},
      {"XorWrite", op(RpcOp::kXorWrite, 16, 0, Pattern(91, 64))},
      {"Append", op(RpcOp::kAppend, 0, 0, Pattern(92, 32))},
      {"shrinking Truncate", op(RpcOp::kTruncate, 0, 10, {})},
      {"growing Truncate", op(RpcOp::kTruncate, 0, 150, {})},
      {"Delete", op(RpcOp::kDelete, 0, 0, {})},
      {"SetAttr", op(RpcOp::kSetAttr, 0, 0, BytesOf("attrs after SetAttr"))},
  };
  for (const auto& [name, mutation] : table) {
    for (bool degraded : {false, true}) {
      SCOPED_TRACE(std::string(name) + (degraded ? ", degraded then rebuilt" : ", healthy"));
      RebuildFixture();
      std::map<ObjectId, Bytes> content;
      std::vector<ObjectId> ids;
      for (int i = 0; i < 9; ++i) {
        ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
        content[id] = Pattern(i, i == 4 ? 64 : 200);
        ASSERT_OK(router_->Write(id, 0, content[id]));
        ids.push_back(id);
      }
      const ObjectId target = ids[4];
      const ObjectId sibling = GroupSibling(target);
      const uint32_t home = router_->map().Find(target)->shard;

      if (degraded) router_->FailShard(home);
      RpcRequest req = mutation;
      req.object = target;
      ASSERT_OK_AND_ASSIGN(RpcResponse resp, router_->Call(req));
      ASSERT_TRUE(resp.ok()) << resp.message;
      std::optional<Bytes> want = content[target];
      Bytes want_attrs;
      ApplyToModel(mutation, &want, &want_attrs);
      if (degraded) {
        ASSERT_OK(router_->AttachSpare(home, Endpoint(AddDrive())));
        PumpRebuild(1 << 20);
      }

      // A healthy SetAttr changes only the lane record, which only a loss of
      // the target's own shard reads.
      const bool own = !degraded && mutation.op == RpcOp::kSetAttr;
      router_->FailShard(own ? home : router_->map().Find(sibling)->shard);
      ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(sibling, 0, 4096));
      EXPECT_EQ(got, content[sibling]);
      auto read = router_->Read(target, 0, 4096);
      if (!want.has_value()) {
        EXPECT_EQ(read.status().code(), ErrorCode::kFailedPrecondition);
        continue;
      }
      ASSERT_OK(read.status());
      EXPECT_EQ(*read, *want);
      if (mutation.op == RpcOp::kSetAttr) {
        ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, router_->GetAttr(target));
        EXPECT_EQ(attrs.opaque, want_attrs);
      }
    }
  }
}

// A rebuild recomputes the lost shard's parity objects from their members,
// after degraded writes and under foreground appends; the rebuilt parity
// then serves a second loss.
TEST_F(ClusterShardTest, RebuiltParityServesASecondLoss) {
  std::map<ObjectId, Bytes> content;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, router_->Create({}));
    content[id] = Pattern(i, 100 + 10 * i);
    ASSERT_OK(router_->Write(id, 0, content[id]));
    ids.push_back(id);
  }
  ASSERT_OK(router_->Sync());
  const ShardMap::GidInfo* first = router_->map().Find(ids[0]);
  const uint32_t lost = router_->map().group(first->group).parity_shard;
  router_->FailShard(lost);
  // The lost shard's own members only reach parity; everyone else's deltas
  // to parity objects on the lost shard are skipped.
  for (size_t i = 0; i < ids.size(); ++i) {
    Bytes patch = Pattern(50 + static_cast<int>(i), 24);
    ASSERT_OK(router_->Write(ids[i], 8, patch));
    std::copy(patch.begin(), patch.end(), content[ids[i]].begin() + 8);
  }

  ASSERT_OK(router_->AttachSpare(lost, Endpoint(AddDrive())));
  for (int ticks = 0;; ++ticks) {
    ASSERT_LT(ticks, 10000);
    ASSERT_OK_AND_ASSIGN(bool done, router_->RebuildTick(1));
    if (done) break;
    ObjectId id = ids[static_cast<size_t>(ticks) % ids.size()];
    Bytes tail = Pattern(70 + ticks, 5);
    ASSERT_OK(router_->Append(id, tail).status());
    content[id].insert(content[id].end(), tail.begin(), tail.end());
  }

  // The first object's group has its parity on the rebuilt shard.
  router_->FailShard(first->shard);
  for (ObjectId id : ids) {
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 4096));
    EXPECT_EQ(got, content[id]) << id;
  }
}

// A data sub-op that fails after its parity delta was queued leaves the group
// recomputed from its members, so a later loss reconstructs every member.
TEST_F(ClusterShardTest, FailedSubOpRepairRestoresParity) {
  auto objs = Populate(9);
  const ObjectId target = objs[4].first;
  // One denied write overlaps the target's bytes; the other lands past every
  // member's end, so the repair must also cut parity's stale tail.
  DeniedWrite(target);
  DeniedWrite(target, 64);
  EXPECT_EQ(router_->rstats().parity_repairs, 2u);
  ASSERT_OK(router_->Write(target, 64, BytesOf("grown later")));
  objs[4].second.resize(64, '\0');
  objs[4].second += "grown later";
  router_->FailShard(router_->map().Find(target)->shard);
  for (const auto& [id, content] : objs) {
    ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(id, 0, 128));
    EXPECT_EQ(StringOf(got), content) << id;
  }
}

// A repair rewrites a deleted member's lane record; the owner it names must
// survive, or the degraded array refuses the owner its own history.
TEST_F(ClusterShardTest, ParityRepairKeepsADeletedMembersOwner) {
  DeletedMemberOwnerSurvivesRepair(/*remount=*/false);
}

// The same after a remount, when the router's lane cache starts empty.
TEST_F(ClusterShardTest, ParityRepairAfterMountKeepsADeletedMembersOwner) {
  DeletedMemberOwnerSurvivesRepair(/*remount=*/true);
}

// A healthy write to a deleted object changes nothing: the data shard audits
// the attempt and refuses it, and parity gets no delta and no repair.
TEST_F(ClusterShardTest, WriteToADeletedObjectTouchesNoParity) {
  auto objs = Populate(9);
  const ObjectId x = objs[4].first;
  ASSERT_OK(router_->Delete(x));
  ASSERT_OK(router_->Sync());
  const uint64_t deltas = router_->rstats().parity_deltas;
  EXPECT_EQ(router_->Write(x, 0, BytesOf("after the delete")).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(router_->rstats().parity_deltas, deltas);
  EXPECT_EQ(router_->rstats().parity_repairs, 0u);

  const ShardMap::GidInfo* info = router_->map().Find(x);
  AuditQuery q;
  q.object = info->backend;
  q.op = RpcOp::kWrite;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> recs, drives_[info->shard]->QueryAudit(Admin(), q));
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.back().user, 100u);
  EXPECT_EQ(recs.back().result, static_cast<uint8_t>(ErrorCode::kFailedPrecondition));
}

// Rebuilding a lost parity shard after a remount rewrites a deleted member's
// lane record while the lane cache is empty and no lane record is readable:
// the owner comes from the member's history on its data shard.
TEST_F(ClusterShardTest, ParityRebuildAfterMountKeepsADeletedMembersOwner) {
  auto objs = Populate(9);
  const ObjectId x = objs[4].first;
  ASSERT_OK(router_->Delete(x));
  ASSERT_OK(router_->Sync());
  router_.reset();
  ASSERT_OK_AND_ASSIGN(
      router_, ShardRouter::Mount(Endpoints(), clock_.get(), User(100), RouterOpts()));
  const ShardMap::GidInfo* info = router_->map().Find(x);
  const uint32_t parity = router_->map().group(info->group).parity_shard;
  router_->FailShard(parity);
  ASSERT_OK(router_->AttachSpare(parity, Endpoint(AddDrive())));
  PumpRebuild(1 << 20);
  router_->FailShard(info->shard);
  EXPECT_OK(router_->GetVersionList(x).status());
}

// A Create with the append linked to it, as S4FileSystem sends a create: the
// router forwards the new id without a flush, so the new member's lane record,
// the append and the append's parity delta share one fan. Two separate calls
// leave the same array with one more round trip.
TEST_F(ClusterShardTest, LinkedCreateSavesAFanAndLeavesTheSameArray) {
  struct Outcome {
    size_t rounds = 0;
    ObjectId made = 0;
    Bytes dir;
    Bytes dir_want;  // its Populate content, the appends, the new id
    std::vector<StoredGroup> groups;
  };
  auto run = [&](bool linked) {
    Outcome out;
    auto objs = Populate(6);
    const ObjectId dir = objs[2].first;
    S4_CHECK(router_->Sync().ok());
    MountLogged();
    S4_CHECK(router_->Append(dir, BytesOf("entries:")).ok());  // loads dir's lane
    span_log_.clear();
    RpcRequest create;
    create.op = RpcOp::kCreate;
    create.data = BytesOf("attrs");
    RpcRequest append;
    append.op = RpcOp::kAppend;
    append.object = dir;
    append.data = BytesOf("add:");
    if (linked) {
      append.link = true;
      auto resps = router_->CallBatch({std::move(create), std::move(append)});
      S4_CHECK(resps.ok() && (*resps)[0].ok() && (*resps)[1].ok());
      out.made = (*resps)[0].value;
    } else {
      auto made = router_->Create(create.data);
      S4_CHECK(made.ok());
      out.made = *made;
      AppendVarint(out.made, &append.data);
      S4_CHECK(router_->Append(dir, append.data).ok());
    }
    out.rounds = Rounds();
    out.dir_want = BytesOf(objs[2].second + "entries:add:");
    AppendVarint(out.made, &out.dir_want);
    auto content = router_->Read(dir, 0, 4096);
    S4_CHECK(content.ok());
    out.dir = std::move(*content);
    out.groups = StoredGroups();
    return out;
  };
  const Outcome separate = run(/*linked=*/false);
  RebuildFixture();
  const Outcome linked = run(/*linked=*/true);

  EXPECT_EQ(linked.rounds + 1, separate.rounds);
  EXPECT_EQ(linked.made, separate.made);
  EXPECT_EQ(linked.dir, linked.dir_want);
  EXPECT_EQ(separate.dir, separate.dir_want);
  ASSERT_EQ(linked.groups.size(), separate.groups.size());
  for (size_t g = 0; g < linked.groups.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    EXPECT_EQ(linked.groups[g].parity, separate.groups[g].parity);
    ASSERT_EQ(linked.groups[g].lanes.size(), separate.groups[g].lanes.size());
    for (size_t lane = 0; lane < linked.groups[g].lanes.size(); ++lane) {
      // The times differ: the separate append ran a round trip later.
      const LaneImage& a = linked.groups[g].lanes[lane];
      const LaneImage& b = separate.groups[g].lanes[lane];
      EXPECT_EQ(a.gid, b.gid);
      EXPECT_EQ(a.size, b.size);
      EXPECT_EQ(a.live, b.live);
      EXPECT_EQ(a.owner, b.owner);
      EXPECT_EQ(a.attrs, b.attrs);
    }
  }
}

// A Delete the data shard refuses skips the append linked to it: the router
// never sends the append (nor its Sync), repairs the group the Delete's delta
// touched, and parity stays the XOR of the members. A Delete that succeeds
// hands the append 0.
TEST_F(ClusterShardTest, LinkedAppendAfterARefusedDeleteIsSkipped) {
  auto objs = Populate(9);
  const ObjectId dir = objs[1].first;
  const ObjectId victim = objs[4].first;
  const ShardMap::GidInfo* dir_info = router_->map().Find(dir);
  auto audited = [&](uint32_t shard, RpcOp op) {
    AuditQuery q;
    q.op = op;
    auto recs = drives_[shard]->QueryAudit(Admin(), q);
    S4_CHECK(recs.ok());
    return recs->size();
  };
  const size_t dir_appends = audited(dir_info->shard, RpcOp::kAppend);
  std::vector<size_t> syncs(kShards);
  for (uint32_t i = 0; i < kShards; ++i) syncs[i] = audited(i, RpcOp::kSync);
  auto batch = [&](const Credentials& creds) {
    RpcRequest del;
    del.op = RpcOp::kDelete;
    del.object = victim;
    RpcRequest append;
    append.op = RpcOp::kAppend;
    append.object = dir;
    append.data = BytesOf("rm:");
    append.link = true;
    append.sync = true;
    router_->set_creds(creds);
    auto resps = router_->CallBatch({std::move(del), std::move(append)});
    router_->set_creds(User(100));
    S4_CHECK(resps.ok());
    return std::move(*resps);
  };

  std::vector<RpcResponse> refused = batch(User(999));  // no ACL admits user 999
  EXPECT_EQ(refused[0].code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(refused[1].code, ErrorCode::kFailedPrecondition);
  EXPECT_EQ(router_->rstats().parity_repairs, 1u);
  EXPECT_EQ(audited(dir_info->shard, RpcOp::kAppend), dir_appends) << "a skipped append is never sent";
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(audited(i, RpcOp::kSync), syncs[i]) << "shard " << i;
  }
  ASSERT_OK_AND_ASSIGN(Bytes dir_bytes, router_->Read(dir, 0, 4096));
  EXPECT_EQ(StringOf(dir_bytes), objs[1].second);
  ASSERT_OK_AND_ASSIGN(Bytes victim_bytes, router_->Read(victim, 0, 4096));
  EXPECT_EQ(StringOf(victim_bytes), objs[4].second);
  StoredGroups();

  std::vector<RpcResponse> done = batch(User(100));
  ASSERT_TRUE(done[0].ok()) << done[0].message;
  ASSERT_TRUE(done[1].ok()) << done[1].message;
  ASSERT_OK_AND_ASSIGN(dir_bytes, router_->Read(dir, 0, 4096));
  Bytes want = BytesOf(objs[1].second + "rm:");
  want.push_back(0);
  EXPECT_EQ(dir_bytes, want);
  StoredGroups();
}

// The router applies the drive's rule for where a link may stand.
TEST_F(ClusterShardTest, MisplacedLinkFlagIsRejected) {
  auto objs = Populate(2);
  RpcRequest append;
  append.op = RpcOp::kAppend;
  append.object = objs[0].first;
  append.data = BytesOf("+");
  append.link = true;
  ASSERT_OK_AND_ASSIGN(RpcResponse single, router_->Call(append));
  EXPECT_EQ(single.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(router_->CallBatch({append, append}).status().code(), ErrorCode::kInvalidArgument);
  RpcRequest write = append;
  write.op = RpcOp::kWrite;
  RpcRequest read;
  read.op = RpcOp::kRead;
  read.object = objs[1].first;
  EXPECT_EQ(router_->CallBatch({read, write}).status().code(), ErrorCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(Bytes got, router_->Read(objs[0].first, 0, 64));
  EXPECT_EQ(StringOf(got), objs[0].second);
}

}  // namespace
}  // namespace s4
