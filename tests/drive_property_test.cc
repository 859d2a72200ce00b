// Property tests: the drive's core invariants must hold across geometry and
// cache configurations, operation mixes, and crash points.
//
// Invariant 1 (current-state correctness): after any sequence of operations,
//   an object's bytes, attributes and ACL are exactly what an in-memory
//   oracle holds.
// Invariant 2 (history correctness): any version inside the window matches
//   the oracle's snapshot at that time, bytes, attributes and ACL alike.
// Invariant 3 (durability): after a crash, everything synced is intact, and
//   the usage table counts the same live and history sectors as at the Sync.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "tests/test_util.h"

namespace s4 {
namespace {

// (segment_sectors, block_cache_bytes, object_cache_bytes, sync_every, seed)
using DriveConfig = std::tuple<uint32_t, uint64_t, uint64_t, int, uint64_t>;

class DrivePropertyTest : public ::testing::TestWithParam<DriveConfig> {
 protected:
  void SetUp() override {
    auto [segment_sectors, block_cache, object_cache, sync_every, seed] = GetParam();
    opts_.segment_sectors = segment_sectors;
    opts_.block_cache_bytes = block_cache;
    opts_.object_cache_bytes = object_cache;
    opts_.detection_window = kHour;
    sync_every_ = sync_every;
    seed_ = seed;
    clock_ = std::make_unique<SimClock>(SimTime{1000000});
    device_ = std::make_unique<BlockDevice>((48ull << 20) / kSectorSize, clock_.get());
    auto drive = S4Drive::Format(device_.get(), clock_.get(), opts_);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    drive_ = std::move(*drive);
  }

  S4DriveOptions opts_;
  int sync_every_ = 8;
  uint64_t seed_ = 0;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<S4Drive> drive_;
};

// What the oracle knows of one object: its bytes, attributes and ACL.
struct ObjectState {
  Bytes content;
  Bytes opaque;
  SimTime create_time = 0;
  SimTime modify_time = 0;
  std::map<UserId, uint8_t> acl;
};

// An object's state as of an instant the test recorded.
struct Snapshot {
  ObjectId id;
  SimTime time;
  ObjectState state;
};

// The owner runs every op and keeps all its permissions, so it can read every
// version; SetAcl changes the other users' entries.
constexpr UserId kOwner = 100;
constexpr UserId kUsers[] = {kOwner, 101, 102, 103};

Credentials Owner() {
  Credentials c;
  c.user = kOwner;
  c.client = 1;
  return c;
}

// Checks the drive's bytes, attributes and ACL entries for `id`, now or at
// `at`, against the oracle's.
::testing::AssertionResult MatchesOracle(S4Drive& drive, ObjectId id, const ObjectState& want,
                                         std::optional<SimTime> at = std::nullopt) {
  const Credentials owner = Owner();
  auto bytes = drive.Read(owner, id, 0, want.content.size() + 100, at);
  if (!bytes.ok()) {
    return ::testing::AssertionFailure() << "read: " << bytes.status().ToString();
  }
  if (*bytes != want.content) {
    return ::testing::AssertionFailure() << "content differs: " << bytes->size() << " bytes, want "
                                         << want.content.size();
  }
  auto attrs = drive.GetAttr(owner, id, at);
  if (!attrs.ok()) {
    return ::testing::AssertionFailure() << "getattr: " << attrs.status().ToString();
  }
  if (attrs->size != want.content.size() || attrs->opaque != want.opaque ||
      attrs->create_time != want.create_time || attrs->modify_time != want.modify_time) {
    return ::testing::AssertionFailure()
           << "attrs differ: size " << attrs->size << " create " << attrs->create_time
           << " modify " << attrs->modify_time << ", want size " << want.content.size()
           << " create " << want.create_time << " modify " << want.modify_time << " (opaque "
           << (attrs->opaque == want.opaque ? "same" : "differs") << ")";
  }
  for (UserId user : kUsers) {
    auto entry = drive.GetAclByUser(owner, id, user, at);
    auto it = want.acl.find(user);
    bool same = it == want.acl.end()
                    ? entry.status().code() == ErrorCode::kNotFound
                    : entry.ok() && entry->perms == it->second;
    if (!same) {
      return ::testing::AssertionFailure()
             << "acl entry of user " << user << ": "
             << (entry.ok() ? std::to_string(entry->perms) : entry.status().ToString())
             << ", want " << (it == want.acl.end() ? "none" : std::to_string(it->second));
    }
  }
  return ::testing::AssertionSuccess();
}

// XORs `data` into `content` at `offset`, growing it with zeros as XorWrite
// does.
void XorInto(Bytes* content, uint64_t offset, const Bytes& data) {
  if (content->size() < offset + data.size()) {
    content->resize(offset + data.size(), 0);
  }
  for (size_t i = 0; i < data.size(); ++i) {
    (*content)[offset + i] ^= data[i];
  }
}

// Writes `data` into `content` at `offset`, growing it with zeros.
void WriteInto(Bytes* content, uint64_t offset, const Bytes& data) {
  if (content->size() < offset + data.size()) {
    content->resize(offset + data.size(), 0);
  }
  std::copy(data.begin(), data.end(), content->begin() + offset);
}

// The drive stamps a mutation with the instant its op body ran, which the
// caller only knows to lie in (t0, now]. Check that, then take the stamps
// into the oracle.
::testing::AssertionResult TakeStamps(S4Drive& drive, SimClock& clock, ObjectId id, SimTime t0,
                                      bool created, bool modified, ObjectState* state) {
  const SimTime t1 = clock.Now();
  auto attrs = drive.GetAttr(Owner(), id);
  if (!attrs.ok()) {
    return ::testing::AssertionFailure() << "getattr: " << attrs.status().ToString();
  }
  auto stamped = [&](SimTime got, bool moved, SimTime was) {
    return moved ? got > t0 && got <= t1 : got == was;
  };
  if (!stamped(attrs->create_time, created, state->create_time) ||
      !stamped(attrs->modify_time, modified, state->modify_time)) {
    return ::testing::AssertionFailure()
           << "stamps create " << attrs->create_time << " modify " << attrs->modify_time
           << ": each must lie in (" << t0 << ", " << t1 << "] if the op set it, else stay "
           << state->create_time << " / " << state->modify_time;
  }
  state->create_time = attrs->create_time;
  state->modify_time = attrs->modify_time;
  return ::testing::AssertionSuccess();
}

TEST_P(DrivePropertyTest, RandomOpsMatchOracle) {
  const Credentials alice = Owner();
  Rng rng(seed_);
  std::map<ObjectId, ObjectState> oracle;  // live objects
  std::vector<Snapshot> history;
  std::vector<ObjectId> live;

  for (int step = 0; step < 400; ++step) {
    clock_->Advance(kSecond);
    const SimTime t0 = clock_->Now();
    uint64_t action = rng.Below(100);
    ObjectId id = live.empty() ? kInvalidObjectId : live[rng.Below(live.size())];
    bool created = false;
    bool mutated = true;
    bool modified = true;  // the op moves the modify time
    if (action < 16 || live.empty()) {
      Bytes opaque = rng.RandomBytes(rng.Below(40));
      ASSERT_OK_AND_ASSIGN(id, drive_->Create(alice, opaque));
      live.push_back(id);
      oracle[id].opaque = opaque;
      oracle[id].acl[kOwner] = kPermAll;
      created = true;
    } else if (action < 46) {
      // Write at a random offset (possibly creating holes / extending).
      uint64_t offset = rng.Below(40000);
      Bytes data = rng.RandomBytes(1 + rng.Below(20000));
      ASSERT_OK(drive_->Write(alice, id, offset, data));
      WriteInto(&oracle[id].content, offset, data);
    } else if (action < 54) {
      uint64_t new_size = rng.Below(50000);
      ASSERT_OK(drive_->Truncate(alice, id, new_size));
      modified = new_size != oracle[id].content.size();
      oracle[id].content.resize(new_size, 0);
    } else if (action < 62) {
      Bytes data = rng.RandomBytes(1 + rng.Below(5000));
      ASSERT_OK(drive_->Append(alice, id, data).status());
      WriteInto(&oracle[id].content, oracle[id].content.size(), data);
    } else if (action < 68) {
      uint64_t offset = rng.Below(30000);
      Bytes data = rng.RandomBytes(1 + rng.Below(12000));
      ASSERT_OK(drive_->XorWrite(alice, id, offset, data));
      XorInto(&oracle[id].content, offset, data);
    } else if (action < 73) {
      Bytes opaque = rng.RandomBytes(rng.Below(200));
      ASSERT_OK(drive_->SetAttr(alice, id, opaque));
      oracle[id].opaque = opaque;
    } else if (action < 78) {
      AclEntry entry{kUsers[1 + rng.Below(3)], static_cast<uint8_t>(rng.Below(64))};
      ASSERT_OK(drive_->SetAcl(alice, id, entry));
      oracle[id].acl[entry.user] = entry.perms;
      modified = false;
    } else if (action < 85) {
      mutated = false;
      ASSERT_TRUE(MatchesOracle(*drive_, id, oracle[id])) << "object " << id << " step " << step;
    } else if (action < 91) {
      mutated = false;
      if (!history.empty()) {
        const Snapshot& snap = history[rng.Below(history.size())];
        ASSERT_TRUE(MatchesOracle(*drive_, snap.id, snap.state, snap.time))
            << "object " << snap.id << " @" << snap.time << " step " << step;
      }
    } else if (action < 95) {
      mutated = false;
      ASSERT_OK(drive_->Delete(alice, id));
      live.erase(std::find(live.begin(), live.end(), id));
      oracle.erase(id);
    } else {
      mutated = false;
      ASSERT_OK(drive_->Sync(alice));
    }
    if (mutated) {
      ASSERT_TRUE(TakeStamps(*drive_, *clock_, id, t0, created, modified, &oracle[id]))
          << "object " << id << " step " << step;
      history.push_back({id, clock_->Now(), oracle[id]});
    }
    if (sync_every_ > 0 && step % sync_every_ == sync_every_ - 1) {
      ASSERT_OK(drive_->Sync(alice));
    }
  }

  // Final sweep: every live object matches, every recorded version matches.
  for (const auto& [id, expect] : oracle) {
    ASSERT_TRUE(MatchesOracle(*drive_, id, expect)) << "final object " << id;
  }
  for (size_t i = 0; i < history.size(); i += 7) {
    const Snapshot& snap = history[i];
    ASSERT_TRUE(MatchesOracle(*drive_, snap.id, snap.state, snap.time))
        << "final history " << snap.id << " @" << snap.time;
  }
}

TEST_P(DrivePropertyTest, CrashPreservesSyncedState) {
  const Credentials alice = Owner();
  Rng rng(seed_ + 1000);
  std::map<ObjectId, ObjectState> synced_oracle;
  std::vector<Snapshot> history;  // every one synced before the next crash
  std::vector<ObjectId> live;

  for (int round = 0; round < 4; ++round) {
    // A burst of operations...
    std::map<ObjectId, ObjectState> oracle = synced_oracle;
    for (int step = 0; step < 60; ++step) {
      clock_->Advance(kSecond);
      const SimTime t0 = clock_->Now();
      uint64_t action = rng.Below(10);
      ObjectId id = live.empty() ? kInvalidObjectId : live[rng.Below(live.size())];
      bool created = false;
      bool modified = true;
      if (action < 3 || live.empty()) {
        ASSERT_OK_AND_ASSIGN(id, drive_->Create(alice, {}));
        live.push_back(id);
        oracle[id].acl[kOwner] = kPermAll;
        created = true;
      } else if (action < 6) {
        Bytes data = rng.RandomBytes(1 + rng.Below(12000));
        ASSERT_OK(drive_->Write(alice, id, 0, data));
        WriteInto(&oracle[id].content, 0, data);
      } else if (action < 7) {
        uint64_t offset = rng.Below(8000);
        Bytes data = rng.RandomBytes(1 + rng.Below(8000));
        ASSERT_OK(drive_->XorWrite(alice, id, offset, data));
        XorInto(&oracle[id].content, offset, data);
      } else if (action < 8) {
        Bytes opaque = rng.RandomBytes(rng.Below(200));
        ASSERT_OK(drive_->SetAttr(alice, id, opaque));
        oracle[id].opaque = opaque;
      } else if (action < 9) {
        AclEntry entry{kUsers[1 + rng.Below(3)], static_cast<uint8_t>(rng.Below(64))};
        ASSERT_OK(drive_->SetAcl(alice, id, entry));
        oracle[id].acl[entry.user] = entry.perms;
        modified = false;
      } else {
        Bytes data = rng.RandomBytes(1 + rng.Below(5000));
        ASSERT_OK(drive_->Append(alice, id, data).status());
        WriteInto(&oracle[id].content, oracle[id].content.size(), data);
      }
      ASSERT_TRUE(TakeStamps(*drive_, *clock_, id, t0, created, modified, &oracle[id]))
          << "round " << round << " object " << id;
      history.push_back({id, clock_->Now(), oracle[id]});
    }
    // ...synced...
    ASSERT_OK(drive_->Sync(alice));
    synced_oracle = oracle;
    const uint64_t live_sectors = drive_->usage_table().LiveSectorsTotal();
    const uint64_t history_sectors = drive_->usage_table().HistorySectorsTotal();
    // ...then a crash and remount.
    drive_.reset();
    auto drive = S4Drive::Mount(device_.get(), clock_.get(), opts_);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    drive_ = std::move(*drive);
    // Roll-forward counts every record at the length it was written at.
    EXPECT_EQ(drive_->usage_table().LiveSectorsTotal(), live_sectors) << "round " << round;
    EXPECT_EQ(drive_->usage_table().HistorySectorsTotal(), history_sectors)
        << "round " << round;
    // Everything synced must read back exactly, now and at recorded instants.
    for (const auto& [id, expect] : synced_oracle) {
      ASSERT_TRUE(MatchesOracle(*drive_, id, expect)) << "round " << round << " object " << id;
    }
    for (size_t i = round; i < history.size(); i += 5) {
      const Snapshot& snap = history[i];
      ASSERT_TRUE(MatchesOracle(*drive_, snap.id, snap.state, snap.time))
          << "round " << round << " object " << snap.id << " @" << snap.time;
    }
  }
}

std::string ConfigName(const ::testing::TestParamInfo<DriveConfig>& info) {
  auto [seg, bc, oc, sync, seed] = info.param;
  return "seg" + std::to_string(seg) + "_bc" + std::to_string(bc >> 10) + "k_oc" +
         std::to_string(oc >> 10) + "k_sync" + std::to_string(sync) + "_s" +
         std::to_string(seed);
}

const DriveConfig kConfigs[] = {
    // Paper-proportioned caches.
    DriveConfig{512, 2 << 20, 256 << 10, 8, 1},
    // Tiny caches: eviction and checkpoint churn on every step.
    DriveConfig{512, 64 << 10, 16 << 10, 8, 2},
    // Small segments: constant rollover.
    DriveConfig{128, 1 << 20, 128 << 10, 8, 3},
    // Large segments, rare syncs: big pending state.
    DriveConfig{2048, 4 << 20, 512 << 10, 50, 4},
    // Sync after every op: NFSv2-like.
    DriveConfig{512, 1 << 20, 128 << 10, 1, 5},
};

INSTANTIATE_TEST_SUITE_P(ConfigSweep, DrivePropertyTest, ::testing::ValuesIn(kConfigs),
                         ConfigName);

// Crash-and-clean stress: random creates, writes, truncates and deletes on a
// small disk with a short window, cleaner passes (each forcing compaction in
// one variant), and history reads at recorded in-window instants, with a
// Sync and a crash every 30 steps, so compaction moves, the sweep and
// roll-forward interleave at random. (seed, force_compaction)
using StressConfig = std::tuple<uint64_t, bool>;

class CrashCleanStressTest : public ::testing::TestWithParam<StressConfig> {};

TEST_P(CrashCleanStressTest, SyncedStateAndHistorySurviveCrashesAndCleaning) {
  const auto [seed, force_compaction] = GetParam();
  S4DriveOptions opts;
  opts.segment_sectors = 256;  // 128 KB
  opts.block_cache_bytes = 256 << 10;
  opts.object_cache_bytes = 32 << 10;
  opts.detection_window = 10 * kMinute;
  opts.waypoint_interval_sectors = 2;
  SimClock clock(SimTime{1000000});
  BlockDevice device((24ull << 20) / kSectorSize, &clock);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<S4Drive> drive, S4Drive::Format(&device, &clock, opts));
  Credentials admin;
  admin.admin_key = opts.admin_key;
  const Credentials alice = Owner();
  Rng rng(seed);
  std::map<ObjectId, ObjectState> oracle;  // live objects
  std::vector<Snapshot> history;
  std::vector<ObjectId> live;
  uint64_t sectors_copied = 0;  // by compaction, over every mount
  auto in_window = [&](const Snapshot& snap) {
    return snap.time > clock.Now() - opts.detection_window;
  };

  for (int step = 1; step <= 600; ++step) {
    clock.Advance((1 + static_cast<SimDuration>(rng.Below(8))) * kSecond);
    const SimTime t0 = clock.Now();
    const uint64_t action = rng.Below(100);
    ObjectId id = live.empty() ? kInvalidObjectId : live[rng.Below(live.size())];
    bool created = false;
    bool modified = true;
    if (action < 14 || live.empty()) {
      ASSERT_OK_AND_ASSIGN(id, drive->Create(alice, {}));
      live.push_back(id);
      oracle[id].acl[kOwner] = kPermAll;
      created = true;
    } else if (action < 54) {
      const uint64_t offset = rng.Below(24 << 10);
      Bytes data = rng.RandomBytes(1 + rng.Below(12 << 10));
      ASSERT_OK(drive->Write(alice, id, offset, data));
      WriteInto(&oracle[id].content, offset, data);
    } else if (action < 62) {
      const uint64_t new_size = rng.Below(32 << 10);
      ASSERT_OK(drive->Truncate(alice, id, new_size));
      modified = new_size != oracle[id].content.size();
      oracle[id].content.resize(new_size, 0);
    } else if (action < 70) {
      ASSERT_OK(drive->Delete(alice, id));
      live.erase(std::find(live.begin(), live.end(), id));
      oracle.erase(id);
      id = kInvalidObjectId;
    } else if (action < 82) {
      ASSERT_OK(drive->RunCleanerPass(force_compaction ? 2 : 4, force_compaction).status())
          << "step " << step;
      id = kInvalidObjectId;
    } else {
      std::vector<const Snapshot*> readable;
      for (const Snapshot& snap : history) {
        if (in_window(snap)) {
          readable.push_back(&snap);
        }
      }
      if (!readable.empty()) {
        const Snapshot& snap = *readable[rng.Below(readable.size())];
        ASSERT_TRUE(MatchesOracle(*drive, snap.id, snap.state, snap.time))
            << "object " << snap.id << " @" << snap.time << " step " << step;
      }
      id = kInvalidObjectId;
    }
    if (id != kInvalidObjectId) {
      ASSERT_TRUE(TakeStamps(*drive, clock, id, t0, created, modified, &oracle[id]))
          << "object " << id << " step " << step;
      history.push_back({id, clock.Now(), oracle[id]});
    }
    if (step % 30 == 0) {
      ASSERT_OK(drive->Sync(alice));
      sectors_copied += drive->metrics().CounterValue("cleaner.sectors_copied");
      drive.reset();
      ASSERT_OK_AND_ASSIGN(drive, S4Drive::Mount(&device, &clock, opts));
      EXPECT_EQ(drive->metrics().CounterValue("audit.chain_breaks"), 0u) << "step " << step;
      ASSERT_OK(drive->QueryAudit(admin, AuditQuery{}).status()) << "step " << step;
      for (const auto& [oid, want] : oracle) {
        ASSERT_TRUE(MatchesOracle(*drive, oid, want)) << "object " << oid << " step " << step;
      }
    }
  }

  // Everything deleted and aged out, the history pool drains to nothing.
  for (ObjectId id : live) {
    ASSERT_OK(drive->Delete(alice, id));
  }
  ASSERT_OK(drive->Sync(alice));
  clock.Advance(opts.detection_window + kMinute);
  for (int pass = 0; pass < 8 && drive->usage_table().HistorySectorsTotal() > 0; ++pass) {
    ASSERT_OK(drive->RunCleanerPass(4, force_compaction).status());
    clock.Advance(kMinute);
  }
  EXPECT_EQ(drive->usage_table().HistorySectorsTotal(), 0u);
  if (force_compaction) {
    EXPECT_GT(sectors_copied, 0u);
  }
}

std::string StressName(const ::testing::TestParamInfo<StressConfig>& info) {
  auto [seed, force_compaction] = info.param;
  return (force_compaction ? "compact_s" : "plain_s") + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashCleanStressTest,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 21), ::testing::Bool()),
                         StressName);

}  // namespace
}  // namespace s4
