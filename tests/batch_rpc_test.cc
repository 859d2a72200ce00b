// Batched RPC (kBatch) and group-commit write path, exercised end to end:
// S4Client::CallBatch -> one kBatch frame -> S4RpcServer -> per-sub dispatch,
// and S4FileSystem's sync discipline (the sync bit on an op's last frame,
// per op or every Nth op). Covers ordering, per-sub error isolation, linked
// sub-requests (an append that runs only after its predecessor succeeded and
// carries that op's value), audit completeness (every sub-op audited plus
// one envelope record), frame and round-trip counts, and durability at
// commit boundaries.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/fs/s4_fs.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

constexpr bool kLink = true;
constexpr bool kSync = true;

// One request as it went to the drive: its op and its link and sync bits.
struct Sub {
  RpcOp op = RpcOp::kInvalid;
  bool link = false;
  bool sync = false;
  bool operator==(const Sub&) const = default;
};

void PrintTo(const Sub& sub, std::ostream* os) {
  *os << RpcOpName(sub.op) << (sub.link ? "+link" : "") << (sub.sync ? "+sync" : "");
}

using Frame = std::vector<Sub>;  // a single-op frame holds one Sub
using Frames = std::vector<Frame>;

// Logs every frame on its way to the drive: a batch's sub-requests in order,
// or a single frame's one request.
class FrameLog : public RpcTransport {
 public:
  explicit FrameLog(RpcTransport* next) : next_(next) {}

  Result<Bytes> Call(ByteSpan request) override {
    Frame frame;
    if (IsBatchRequestFrame(request)) {
      if (auto batch = RpcBatchRequest::Decode(request); batch.ok()) {
        for (const RpcRequest& sub : batch->subs) {
          frame.push_back(Sub{sub.op, sub.link, sub.sync});
        }
      }
    } else if (auto req = RpcRequest::Decode(request); req.ok()) {
      frame.push_back(Sub{req->op, req->link, req->sync});
    }
    frames.push_back(std::move(frame));
    return next_->Call(request);
  }

  Frames frames;

 private:
  RpcTransport* next_;
};

class BatchRpcTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    WireStack();
  }

  // (Re)connects the RPC stack to the current drive_; used after remounts.
  void WireStack() {
    server_ = std::make_unique<S4RpcServer>(drive_.get());
    transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
    frame_log_ = std::make_unique<FrameLog>(transport_.get());
    client_ = std::make_unique<S4Client>(frame_log_.get(), User(100));
  }

  uint64_t AuditRecordsFor(RpcOp op) {
    AuditQuery query;
    query.op = op;
    auto records = drive_->QueryAudit(Admin(), query);
    EXPECT_TRUE(records.ok()) << records.status().ToString();
    return records.ok() ? records->size() : 0;
  }

  static RpcRequest WriteReq(ObjectId id, uint64_t offset, Bytes data) {
    RpcRequest req;
    req.op = RpcOp::kWrite;
    req.object = id;
    req.offset = offset;
    req.data = std::move(data);
    return req;
  }

  // An append to `id`, linked to the sub-request before it.
  static RpcRequest LinkedAppend(ObjectId id, Bytes data, bool sync = false) {
    RpcRequest req;
    req.op = RpcOp::kAppend;
    req.object = id;
    req.data = std::move(data);
    req.link = true;
    req.sync = sync;
    return req;
  }

  uint64_t Counter(const std::string& name) { return drive_->metrics().CounterValue(name); }

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<FrameLog> frame_log_;
  std::unique_ptr<S4Client> client_;
};

TEST_F(BatchRpcTest, BatchAppliesSubOpsInOrderWithOneRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  uint64_t msgs_before = drive_->metrics().CounterValue("net.messages_sent");

  // Overlapping writes: final contents prove in-order application.
  std::vector<RpcRequest> subs;
  subs.push_back(WriteReq(id, 0, BytesOf("aaaaaaaa")));
  subs.push_back(WriteReq(id, 4, BytesOf("bbbb")));
  subs.push_back(WriteReq(id, 6, BytesOf("cc")));
  RpcRequest sync;
  sync.op = RpcOp::kSync;
  subs.push_back(std::move(sync));

  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, client_->CallBatch(subs));
  ASSERT_EQ(resps.size(), 4u);
  for (const RpcResponse& r : resps) {
    EXPECT_TRUE(r.ok()) << static_cast<int>(r.code);
  }
  EXPECT_EQ(drive_->metrics().CounterValue("net.messages_sent"), msgs_before + 1)
      << "a batch must be one transport round-trip";

  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(id, 0, 8));
  EXPECT_EQ(StringOf(got), "aaaabbcc");
}

TEST_F(BatchRpcTest, PerSubErrorsAreIsolated) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));

  std::vector<RpcRequest> subs;
  subs.push_back(WriteReq(id, 0, BytesOf("first")));
  RpcRequest bad;  // well-formed sub-request that fails in the drive
  bad.op = RpcOp::kRead;
  bad.object = ~0ull;
  bad.length = 8;
  subs.push_back(std::move(bad));
  subs.push_back(WriteReq(id, 5, BytesOf("+last")));

  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, client_->CallBatch(subs));
  ASSERT_EQ(resps.size(), 3u);
  EXPECT_TRUE(resps[0].ok());
  EXPECT_EQ(resps[1].code, ErrorCode::kNotFound);
  EXPECT_TRUE(resps[2].ok());

  // Sub-ops after the failing one still applied.
  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(id, 0, 10));
  EXPECT_EQ(StringOf(got), "first+last");
}

TEST_F(BatchRpcTest, EveryAppliedSubOpIsAuditedPlusOneEnvelope) {
  uint64_t creates = AuditRecordsFor(RpcOp::kCreate);
  uint64_t envelopes = AuditRecordsFor(RpcOp::kBatch);

  const uint64_t n = 5;
  std::vector<RpcRequest> subs;
  for (uint64_t i = 0; i < n; ++i) {
    RpcRequest req;
    req.op = RpcOp::kCreate;
    subs.push_back(std::move(req));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, client_->CallBatch(subs));
  ASSERT_EQ(resps.size(), n);

  EXPECT_EQ(AuditRecordsFor(RpcOp::kCreate), creates + n)
      << "every sub-op in an applied batch must leave its own audit record";
  EXPECT_EQ(AuditRecordsFor(RpcOp::kBatch), envelopes + 1);

  // The envelope record counts its sub-ops in the length field and carries
  // the caller's credentials.
  AuditQuery query;
  query.op = RpcOp::kBatch;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> records,
                       drive_->QueryAudit(Admin(), query));
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().length, n);
  EXPECT_EQ(records.back().user, 100u);

  // The audit trail survives a crash once synced: remount and re-count.
  ASSERT_OK(client_->Sync());
  CrashAndRemount();
  WireStack();
  EXPECT_EQ(AuditRecordsFor(RpcOp::kCreate), creates + n);
  EXPECT_EQ(AuditRecordsFor(RpcOp::kBatch), envelopes + 1);
}

TEST_F(BatchRpcTest, ClientRejectsOversizedAndPassesEmptyBatches) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));

  uint64_t msgs_before = drive_->metrics().CounterValue("net.messages_sent");
  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> none, client_->CallBatch({}));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(drive_->metrics().CounterValue("net.messages_sent"), msgs_before)
      << "empty batch sent a frame";

  std::vector<RpcRequest> subs(RpcBatchRequest::kMaxSubRequests + 1,
                               WriteReq(id, 0, BytesOf("x")));
  auto resps = client_->CallBatch(subs);
  EXPECT_FALSE(resps.ok());
  EXPECT_EQ(resps.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(BatchRpcTest, BatchedWritesAreDurableAfterSyncSubOp) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  ASSERT_OK(client_->Sync());

  std::vector<RpcRequest> subs;
  for (uint64_t i = 0; i < 8; ++i) {
    subs.push_back(WriteReq(id, i * 8, Bytes(8, static_cast<uint8_t>('a' + i))));
  }
  RpcRequest sync;
  sync.op = RpcOp::kSync;
  subs.push_back(std::move(sync));
  uint64_t writes_before = device_->stats().writes;
  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, client_->CallBatch(subs));
  for (const RpcResponse& r : resps) {
    ASSERT_TRUE(r.ok());
  }
  uint64_t writes_for_batch = device_->stats().writes - writes_before;

  CrashAndRemount();
  WireStack();
  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(id, 0, 64));
  ASSERT_EQ(got.size(), 64u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i * 8], static_cast<uint8_t>('a' + i)) << "write " << i << " lost";
  }
  // Group commit: the whole batch journals into few chunk writes, far fewer
  // than one per sub-op.
  EXPECT_LT(writes_for_batch, subs.size() - 1)
      << "batched sub-ops should share chunk writes";
}

// A linked append runs after its predecessor and carries that op's value:
// the new object's id after a Create, 0 after a Delete.
TEST_F(BatchRpcTest, LinkedAppendCarriesItsPredecessorsValue) {
  ASSERT_OK_AND_ASSIGN(ObjectId dir, client_->Create({}));
  RpcRequest create;
  create.op = RpcOp::kCreate;
  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps,
                       client_->CallBatch({create, LinkedAppend(dir, BytesOf("add:"))}));
  ASSERT_EQ(resps.size(), 2u);
  ASSERT_TRUE(resps[0].ok()) << resps[0].message;
  ASSERT_TRUE(resps[1].ok()) << resps[1].message;
  const ObjectId made = resps[0].value;
  ASSERT_OK(drive_->GetAttr(Admin(), made).status()) << "the Create ran";
  Bytes want = BytesOf("add:");
  AppendVarint(made, &want);

  RpcRequest del;
  del.op = RpcOp::kDelete;
  del.object = made;
  ASSERT_OK_AND_ASSIGN(resps, client_->CallBatch({del, LinkedAppend(dir, BytesOf("rm:"))}));
  ASSERT_TRUE(resps[0].ok()) << resps[0].message;
  ASSERT_TRUE(resps[1].ok()) << resps[1].message;
  const Bytes rm = BytesOf("rm:");
  want.insert(want.end(), rm.begin(), rm.end());
  want.push_back(0);
  EXPECT_EQ(resps[1].value, want.size()) << "the append's own value is the new size";

  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(dir, 0, 64));
  EXPECT_EQ(got, want);
}

// A failed Create or Delete skips the append linked to it: the append reports
// kFailedPrecondition, changes nothing, runs no Sync despite its sync bit, and
// still leaves one audit record, counted as an op and a denial.
TEST_F(BatchRpcTest, FailedLeadSkipsItsLinkedAppend) {
  ASSERT_OK_AND_ASSIGN(ObjectId target, client_->Create({}));
  ASSERT_OK(client_->Append(target, BytesOf("before")).status());
  ASSERT_OK(client_->Sync());
  RpcRequest oversized_create;  // the drive caps an attribute blob
  oversized_create.op = RpcOp::kCreate;
  oversized_create.data = Bytes(4096, 0xAB);
  RpcRequest missing_delete;
  missing_delete.op = RpcOp::kDelete;
  missing_delete.object = target + 1000;
  for (const RpcRequest& lead : {oversized_create, missing_delete}) {
    SCOPED_TRACE(RpcOpName(lead.op));
    ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs_before, drive_->GetAttr(Admin(), target));
    const uint64_t appends = AuditRecordsFor(RpcOp::kAppend);
    const uint64_t syncs = AuditRecordsFor(RpcOp::kSync);
    const uint64_t writes = device_->stats().writes;
    const uint64_t ops = Counter("drive.ops_total");
    const uint64_t denied = Counter("drive.ops_denied");
    clock_->Advance(kSecond);

    ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps,
                         client_->CallBatch({lead, LinkedAppend(target, BytesOf("x"), kSync)}));
    ASSERT_EQ(resps.size(), 2u);
    EXPECT_FALSE(resps[0].ok());
    EXPECT_EQ(resps[1].code, ErrorCode::kFailedPrecondition);
    EXPECT_EQ(Counter("drive.ops_total"), ops + 2);
    EXPECT_EQ(Counter("drive.ops_denied"), denied + 1);
    EXPECT_EQ(device_->stats().writes, writes) << "a skipped append runs no Sync";

    EXPECT_EQ(AuditRecordsFor(RpcOp::kSync), syncs);
    AuditQuery query;
    query.op = RpcOp::kAppend;
    ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> records, drive_->QueryAudit(Admin(), query));
    ASSERT_EQ(records.size(), appends + 1);
    EXPECT_EQ(records.back().object, target);
    EXPECT_EQ(records.back().user, 100u);
    EXPECT_EQ(records.back().result, static_cast<uint8_t>(ErrorCode::kFailedPrecondition));

    ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(target, 0, 64));
    EXPECT_EQ(StringOf(got), "before");
    ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs_after, drive_->GetAttr(Admin(), target));
    EXPECT_EQ(attrs_after.size, attrs_before.size);
    EXPECT_EQ(attrs_after.modify_time, attrs_before.modify_time);
  }
}

TEST_F(BatchRpcTest, FrameLogRecordsEachSubRequestsBits) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  frame_log_->frames.clear();
  RpcRequest create;
  create.op = RpcOp::kCreate;
  ASSERT_OK(client_->CallBatch({create, LinkedAppend(id, BytesOf("r"), kSync)}).status());
  RpcRequest stable = WriteReq(id, 0, BytesOf("w"));
  stable.sync = true;
  ASSERT_OK(client_->Call(stable).status());
  EXPECT_EQ(frame_log_->frames,
            (Frames{{{RpcOp::kCreate}, {RpcOp::kAppend, kLink, kSync}},
                    {{RpcOp::kWrite, false, kSync}}}));
}

class GroupCommitFsTest : public BatchRpcTest {
 protected:
  void MakeFs(uint32_t group_ops) {
    S4FileSystemOptions opts;
    opts.group_commit_ops = group_ops;
    ASSERT_OK_AND_ASSIGN(fs_, S4FileSystem::Format(client_.get(), "root", opts));
  }

  // The frames `op` sends.
  template <typename Op>
  Frames FramesOf(Op op) {
    frame_log_->frames.clear();
    op();
    return frame_log_->frames;
  }

  std::unique_ptr<S4FileSystem> fs_;
};

TEST_F(GroupCommitFsTest, DeferredSyncsCoalesceAndCommitFlushes) {
  MakeFs(/*group_ops=*/8);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "log", 0644));

  Frames frames = FramesOf([&] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(fs_->WriteFile(f, i * 16, BytesOf("chunk-" + std::to_string(i))));
    }
  });
  const S4FileSystemStats& stats = fs_->stats();
  EXPECT_GT(stats.deferred_syncs, 0u);
  EXPECT_LT(stats.rpc_syncs, 21u) << "group commit should issue far fewer syncs than ops";
  // One frame per write, due sync or not: a due sync rides the write's frame.
  ASSERT_EQ(frames.size(), 20u);
  uint64_t synced = 0;
  for (const Frame& frame : frames) {
    ASSERT_EQ(frame.size(), 1u);
    EXPECT_EQ(frame[0].op, RpcOp::kWrite);
    synced += frame[0].sync ? 1 : 0;
  }
  EXPECT_EQ(synced, 20u / 8);

  ASSERT_OK(fs_->Commit());
  uint64_t syncs_after_commit = fs_->stats().rpc_syncs;
  ASSERT_OK(fs_->Commit());  // idempotent when nothing is pending
  EXPECT_EQ(fs_->stats().rpc_syncs, syncs_after_commit);
}

TEST_F(GroupCommitFsTest, CommittedStateSurvivesCrash) {
  MakeFs(/*group_ops=*/8);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "data", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("must survive")));
  ASSERT_OK(fs_->Commit());

  fs_.reset();
  CrashAndRemount();
  WireStack();
  ASSERT_OK_AND_ASSIGN(fs_, S4FileSystem::Mount(client_.get(), "root"));
  ASSERT_OK_AND_ASSIGN(root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle again, fs_->Lookup(root, "data"));
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(again, 0, 64));
  EXPECT_EQ(StringOf(got), "must survive");
}

TEST_F(GroupCommitFsTest, StrictModeStillSyncsEveryOp) {
  MakeFs(/*group_ops=*/1);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  uint64_t syncs_before = fs_->stats().rpc_syncs;
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "strict", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("x")));
  EXPECT_EQ(fs_->stats().rpc_syncs, syncs_before + 2);
  EXPECT_EQ(fs_->stats().deferred_syncs, 0u);
}

// Strict mode sends no standalone Sync: the sync bit rides each op's last
// frame. A create or a remove is one batch frame, the directory append linked
// to the object op.
TEST_F(GroupCommitFsTest, StrictModeSyncRidesEachOpsLastFrame) {
  MakeFs(/*group_ops=*/1);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK(fs_->ReadDir(root).status());  // cache the root: ops send only mutations

  const Frames create_frames = {{{RpcOp::kCreate}, {RpcOp::kAppend, kLink, kSync}}};
  const Frames remove_frames = {{{RpcOp::kDelete}, {RpcOp::kAppend, kLink, kSync}}};
  FileHandle f = 0;
  EXPECT_EQ(FramesOf([&] {
              ASSERT_OK_AND_ASSIGN(f, fs_->CreateFile(root, "f", 0644));
            }),
            create_frames);
  EXPECT_EQ(FramesOf([&] { ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("x"))); }),
            (Frames{{{RpcOp::kWrite, false, kSync}}}));
  EXPECT_EQ(FramesOf([&] { ASSERT_OK(fs_->Remove(root, "f")); }), remove_frames);

  // Removes pile up tombstones until the directory is compacted: then the
  // batch goes without the sync bit, and the rewrite's Truncate is the op's
  // last frame.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(FramesOf([&] {
                ASSERT_OK(fs_->CreateFile(root, "g" + std::to_string(i), 0644).status());
              }),
              create_frames);
  }
  int compactions = 0;
  for (int i = 0; i < 12; ++i) {
    Frames frames = FramesOf([&] { ASSERT_OK(fs_->Remove(root, "g" + std::to_string(i))); });
    if (frames.size() == 1) {
      EXPECT_EQ(frames, remove_frames);
      continue;
    }
    ++compactions;
    EXPECT_EQ(frames, (Frames{{{RpcOp::kDelete}, {RpcOp::kAppend, kLink}},
                              {{RpcOp::kWrite}},
                              {{RpcOp::kTruncate, false, kSync}}}));
  }
  EXPECT_GT(compactions, 0);
  ASSERT_OK_AND_ASSIGN(std::vector<DirEntry> entries, fs_->ReadDir(root));
  EXPECT_TRUE(entries.empty());
}

// A due op that fails syncs nothing, so the ops deferred before it stay
// pending for Commit().
TEST_F(GroupCommitFsTest, FailedDueOpLeavesItsGroupPendingForCommit) {
  MakeFs(/*group_ops=*/2);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK(fs_->CreateFile(root, "deferred", 0644).status());
  EXPECT_EQ(fs_->WriteFile(/*file=*/999999, 0, BytesOf("x")).code(), ErrorCode::kNotFound);
  EXPECT_EQ(FramesOf([&] { ASSERT_OK(fs_->Commit()); }), (Frames{{{RpcOp::kSync}}}));
}

// A sync that fails after its op applied fails the fs op, and the fs then
// re-reads the directory rather than trusting its cached parse.
TEST_F(GroupCommitFsTest, FailedSyncDropsTheCachedDirectory) {
  MakeFs(/*group_ops=*/1);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK(fs_->ReadDir(root).status());
  FaultInjector injector;
  device_->set_fault_injector(&injector);
  injector.SchedulePowerCut(1);  // the append's Sync is the first disk write
  EXPECT_EQ(fs_->CreateFile(root, "f", 0644).status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(injector.power_cut_fired());
  injector.PowerOn();
  device_->set_fault_injector(nullptr);
  EXPECT_OK(fs_->Lookup(root, "f").status()) << "the drive applied the append";
}

// The fused Sync leaves the audit records the paper's two RPCs left: the op's
// and the Sync's, and no envelope.
TEST_F(GroupCommitFsTest, StrictWriteAuditsWriteThenSync) {
  MakeFs(/*group_ops=*/1);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "f", 0644));
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> before,
                       drive_->QueryAudit(Admin(), AuditQuery{}));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("audited")));
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> after,
                       drive_->QueryAudit(Admin(), AuditQuery{}));
  ASSERT_GE(after.size(), before.size());
  std::vector<RpcOp> added;
  for (size_t i = before.size(); i < after.size(); ++i) {
    added.push_back(after[i].op);
    EXPECT_EQ(after[i].user, 100u);
    EXPECT_EQ(after[i].result, static_cast<uint8_t>(ErrorCode::kOk));
  }
  EXPECT_EQ(added, (std::vector<RpcOp>{RpcOp::kWrite, RpcOp::kSync}));
  EXPECT_EQ(after.back().object, kInvalidObjectId);
  EXPECT_EQ(after[before.size()].object, f);
}

}  // namespace
}  // namespace s4
