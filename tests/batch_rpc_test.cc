// Batched RPC (kBatch) and group-commit write path, exercised end to end:
// S4Client::CallBatch -> one kBatch frame -> S4RpcServer -> per-sub dispatch,
// and the S4FileSystem group-commit mode built on top of it. Covers ordering,
// per-sub error isolation, audit completeness (every sub-op audited plus one
// envelope record), round-trip counts, and durability at commit boundaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fs/s4_fs.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

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
    client_ = std::make_unique<S4Client>(transport_.get(), User(100));
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

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
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

class GroupCommitFsTest : public BatchRpcTest {
 protected:
  void MakeFs(uint32_t group_ops, bool batch_rpcs) {
    S4FileSystemOptions opts;
    opts.group_commit_ops = group_ops;
    opts.batch_rpcs = batch_rpcs;
    ASSERT_OK_AND_ASSIGN(fs_, S4FileSystem::Format(client_.get(), "root", opts));
  }

  std::unique_ptr<S4FileSystem> fs_;
};

TEST_F(GroupCommitFsTest, DeferredSyncsCoalesceAndCommitFlushes) {
  MakeFs(/*group_ops=*/8, /*batch_rpcs=*/true);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "log", 0644));

  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(fs_->WriteFile(f, i * 16, BytesOf("chunk-" + std::to_string(i))));
  }
  const S4FileSystemStats& stats = fs_->stats();
  EXPECT_GT(stats.deferred_syncs, 0u);
  EXPECT_GT(stats.rpc_batches, 0u);
  EXPECT_LT(stats.rpc_syncs, 21u) << "group commit should issue far fewer syncs than ops";

  ASSERT_OK(fs_->Commit());
  uint64_t syncs_after_commit = fs_->stats().rpc_syncs;
  ASSERT_OK(fs_->Commit());  // idempotent when nothing is pending
  EXPECT_EQ(fs_->stats().rpc_syncs, syncs_after_commit);
}

TEST_F(GroupCommitFsTest, CommittedStateSurvivesCrash) {
  MakeFs(/*group_ops=*/8, /*batch_rpcs=*/true);
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
  MakeFs(/*group_ops=*/1, /*batch_rpcs=*/false);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  uint64_t syncs_before = fs_->stats().rpc_syncs;
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "strict", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("x")));
  EXPECT_EQ(fs_->stats().rpc_syncs, syncs_before + 2);
  EXPECT_EQ(fs_->stats().deferred_syncs, 0u);
  EXPECT_EQ(fs_->stats().rpc_batches, 0u);
}

}  // namespace
}  // namespace s4
