// Hostile clients at the RPC boundary: truncated frames, corrupted CRCs,
// out-of-range opcodes, oversized payloads, and random garbage. The server
// must answer every frame with a well-formed error response, leave an audit
// record (op kInvalid) for the intrusion-diagnosis trail, and keep serving
// legitimate clients — never crash.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

class RpcHostileTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    server_ = std::make_unique<S4RpcServer>(drive_.get());
    transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
    client_ = std::make_unique<S4Client>(transport_.get(), User(100));
  }

  // A well-formed Create frame to mutate.
  Bytes ValidFrame() const {
    RpcRequest req;
    req.op = RpcOp::kCreate;
    req.creds.user = 100;
    req.creds.client = 1;
    return req.Encode();
  }

  // Re-seals a mutated frame so only the intended field is wrong.
  static Bytes Reseal(Bytes frame) {
    uint32_t crc = Crc32c(ByteSpan(frame.data(), frame.size() - 4));
    Encoder tail(4);
    tail.PutU32(crc);
    Bytes t = tail.Take();
    std::copy(t.begin(), t.end(), frame.end() - 4);
    return frame;
  }

  // Feeds a frame to the server and requires a decodable error response.
  ErrorCode ExpectRejected(ByteSpan frame) {
    Bytes response = server_->Handle(frame);
    auto resp = RpcResponse::Decode(response);
    EXPECT_TRUE(resp.ok()) << "rejection response must itself be well-formed: "
                           << resp.status().ToString();
    if (!resp.ok()) {
      return ErrorCode::kOk;
    }
    EXPECT_FALSE(resp->ok());
    return resp->code;
  }

  uint64_t RejectedAuditRecords() { return AuditRecordsFor(RpcOp::kInvalid); }

  uint64_t AuditRecordsFor(RpcOp op) {
    AuditQuery query;
    query.op = op;
    auto records = drive_->QueryAudit(Admin(), query);
    EXPECT_TRUE(records.ok()) << records.status().ToString();
    return records.ok() ? records->size() : 0;
  }

  // Hand-rolled kBatch frame whose declared count may lie about the payload.
  // Mirrors RpcBatchRequest::Encode's framing (magic + body + CRC trailer).
  static Bytes RawBatchFrame(uint64_t declared_count,
                             const std::vector<Bytes>& sub_frames,
                             ByteSpan trailing = {}) {
    Encoder body(64);
    body.PutVarint(declared_count);
    for (const Bytes& sub : sub_frames) {
      body.PutLengthPrefixed(sub);
    }
    body.PutBytes(trailing);
    Encoder out(body.size() + 12);
    out.PutU32(0x53344251);  // "S4BQ"
    out.PutBytes(body.bytes());
    out.PutU32(Crc32c(out.bytes()));
    return out.Take();
  }

  // The drive still serves a legitimate client after the abuse.
  void ExpectDriveHealthy() {
    auto id = client_->Create(BytesOf("post-abuse"));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_OK(client_->Write(*id, 0, BytesOf("still alive")));
    auto got = client_->Read(*id, 0, 64);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(StringOf(*got), "still alive");
  }

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<S4Client> client_;
};

TEST_F(RpcHostileTest, TruncatedFramesAreRejectedAndAudited) {
  Bytes frame = ValidFrame();
  uint64_t audited = RejectedAuditRecords();
  uint64_t rejects = 0;

  // Every prefix shorter than the minimum frame, plus mid-body truncations
  // (which also break the CRC).
  std::vector<size_t> cuts = {0, 1, 4, 7};
  for (size_t len = 8; len < frame.size(); len += 7) {
    cuts.push_back(len);
  }
  for (size_t len : cuts) {
    EXPECT_EQ(ExpectRejected(ByteSpan(frame.data(), len)), ErrorCode::kDataCorruption)
        << "prefix of " << len << " bytes";
    ++rejects;
  }
  // A CRC-valid frame whose body ends mid-field must also fail cleanly.
  Bytes sliced(frame.begin(), frame.begin() + 16);
  sliced.resize(20);
  EXPECT_EQ(ExpectRejected(Reseal(sliced)), ErrorCode::kDataCorruption);
  ++rejects;

  EXPECT_EQ(RejectedAuditRecords(), audited + rejects);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, CorruptedCrcIsRejectedAndAudited) {
  uint64_t audited = RejectedAuditRecords();
  // Flip one byte anywhere: body corruption and direct CRC-field corruption
  // are both caught by the frame checksum.
  for (size_t pos : {size_t{5}, size_t{10}}) {
    Bytes frame = ValidFrame();
    ASSERT_GT(frame.size(), pos + 4);
    frame[pos] ^= 0xFF;
    EXPECT_EQ(ExpectRejected(frame), ErrorCode::kDataCorruption);
  }
  Bytes frame = ValidFrame();
  frame[frame.size() - 1] ^= 0x01;  // the CRC itself
  EXPECT_EQ(ExpectRejected(frame), ErrorCode::kDataCorruption);

  EXPECT_EQ(RejectedAuditRecords(), audited + 3);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, OutOfRangeOpcodesAreRejectedAndAudited) {
  uint64_t audited = RejectedAuditRecords();
  // Byte 4 is the op code (after the 4-byte magic). 0 and 21..255 are not
  // Table-1 ops; resealing keeps the CRC valid so the op check itself fires.
  for (uint8_t op : {uint8_t{0}, uint8_t{21}, uint8_t{0x7F}, uint8_t{0xFF}}) {
    Bytes frame = ValidFrame();
    frame[4] = op;
    EXPECT_EQ(ExpectRejected(Reseal(std::move(frame))), ErrorCode::kInvalidArgument)
        << "op byte " << static_cast<int>(op);
  }
  EXPECT_EQ(RejectedAuditRecords(), audited + 4);

  // The audit trail records the rejection under the kInvalid marker with the
  // error that was returned to the wire.
  AuditQuery query;
  query.op = RpcOp::kInvalid;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> records, drive_->QueryAudit(Admin(), query));
  ASSERT_FALSE(records.empty());
  EXPECT_NE(records.back().result, static_cast<uint8_t>(ErrorCode::kOk));
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, UnknownRequestFlagIsRejectedAndAudited) {
  // The flags byte is the one byte the sync bit changes; it keeps the frame's
  // size.
  RpcRequest synced;
  synced.op = RpcOp::kCreate;
  synced.creds.user = 100;
  synced.creds.client = 1;
  synced.sync = true;
  Bytes plain = ValidFrame();
  Bytes flagged = synced.Encode();
  ASSERT_EQ(plain.size(), flagged.size());
  const size_t flags_at = static_cast<size_t>(
      std::mismatch(plain.begin(), plain.end(), flagged.begin()).first - plain.begin());
  ASSERT_EQ(plain[flags_at], 0);
  ASSERT_EQ(flagged[flags_at], 2);

  uint64_t audited = RejectedAuditRecords();
  uint64_t creates = AuditRecordsFor(RpcOp::kCreate);
  uint64_t syncs = AuditRecordsFor(RpcOp::kSync);
  for (uint8_t flags : {uint8_t{0x04}, uint8_t{0x06}, uint8_t{0x80}}) {
    Bytes frame = ValidFrame();
    frame[flags_at] = flags;
    EXPECT_EQ(ExpectRejected(Reseal(std::move(frame))), ErrorCode::kInvalidArgument)
        << "flags byte " << static_cast<int>(flags);
  }
  EXPECT_EQ(RejectedAuditRecords(), audited + 3) << "one kInvalid record per frame";
  EXPECT_EQ(AuditRecordsFor(RpcOp::kCreate), creates) << "a rejected frame runs no op";
  EXPECT_EQ(AuditRecordsFor(RpcOp::kSync), syncs);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, DeniedSyncFlaggedOpReturnsItsOwnErrorWithoutSyncing) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create(BytesOf("owned by 100")));
  uint64_t syncs = AuditRecordsFor(RpcOp::kSync);
  S4Client intruder(transport_.get(), User(200));
  RpcRequest req;
  req.op = RpcOp::kWrite;
  req.object = id;
  req.data = BytesOf("defaced");
  req.sync = true;
  ASSERT_OK_AND_ASSIGN(RpcResponse resp, intruder.Call(std::move(req)));
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(AuditRecordsFor(RpcOp::kSync), syncs) << "a failed op must not sync";

  AuditQuery query;
  query.op = RpcOp::kWrite;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> writes, drive_->QueryAudit(Admin(), query));
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].user, 200u);
  EXPECT_EQ(writes[0].result, static_cast<uint8_t>(ErrorCode::kPermissionDenied));
}

TEST_F(RpcHostileTest, OversizedFrameIsRejectedBeforeDecode) {
  uint64_t audited = RejectedAuditRecords();
  Bytes huge(S4RpcServer::kMaxFrameBytes + 1, 0xAB);
  EXPECT_EQ(ExpectRejected(huge), ErrorCode::kInvalidArgument);
  EXPECT_EQ(RejectedAuditRecords(), audited + 1);

  // At the cap the size gate passes and the CRC check takes over.
  Bytes at_cap(S4RpcServer::kMaxFrameBytes, 0xAB);
  EXPECT_EQ(ExpectRejected(at_cap), ErrorCode::kDataCorruption);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, RandomGarbageNeverCrashesTheServer) {
  Rng rng(1337);
  uint64_t audited = RejectedAuditRecords();
  int frames = 0;
  for (size_t size : {size_t{1}, size_t{8}, size_t{64}, size_t{512}, size_t{4096}}) {
    for (int i = 0; i < 8; ++i) {
      Bytes garbage = rng.RandomBytes(size);
      Bytes response = server_->Handle(garbage);
      ASSERT_OK_AND_ASSIGN(RpcResponse resp, RpcResponse::Decode(response));
      EXPECT_FALSE(resp.ok()) << "random garbage must never be accepted";
      ++frames;
    }
  }
  EXPECT_EQ(RejectedAuditRecords(), audited + frames);
  EXPECT_EQ(drive_->metrics().CounterValue("rpc.rejected_frames"), audited + frames);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, BatchWithTruncatedSubRequestIsRejectedAtomically) {
  uint64_t audited = RejectedAuditRecords();
  uint64_t creates = AuditRecordsFor(RpcOp::kCreate);

  // First sub-request is a perfectly valid Create; the second is cut short.
  // The whole envelope must be rejected before ANY sub-op dispatches: the
  // valid Create must leave no trace.
  Bytes good = ValidFrame();
  for (size_t cut : {size_t{0}, size_t{4}, good.size() / 2, good.size() - 1}) {
    Bytes truncated(good.begin(), good.begin() + cut);
    EXPECT_EQ(ExpectRejected(RawBatchFrame(2, {good, truncated})),
              ErrorCode::kDataCorruption)
        << "sub-request cut to " << cut << " bytes";
  }
  EXPECT_EQ(RejectedAuditRecords(), audited + 4);
  EXPECT_EQ(AuditRecordsFor(RpcOp::kCreate), creates) << "batch partially applied";
  EXPECT_EQ(AuditRecordsFor(RpcOp::kBatch), 0u);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, BatchCountFieldLiesAreRejected) {
  uint64_t audited = RejectedAuditRecords();
  Bytes good = ValidFrame();

  // Empty batch: nothing to apply, nothing to audit per-op.
  EXPECT_EQ(ExpectRejected(RawBatchFrame(0, {})), ErrorCode::kInvalidArgument);
  // Count beyond the hard cap, regardless of actual payload.
  EXPECT_EQ(ExpectRejected(RawBatchFrame(100000, {good})), ErrorCode::kInvalidArgument);
  // Count says 3 sub-requests, body carries 1: decode runs off the end.
  EXPECT_EQ(ExpectRejected(RawBatchFrame(3, {good})), ErrorCode::kDataCorruption);
  // Count says 1 but two follow: the second is trailing garbage.
  EXPECT_EQ(ExpectRejected(RawBatchFrame(1, {good, good})), ErrorCode::kDataCorruption);

  EXPECT_EQ(RejectedAuditRecords(), audited + 4);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, OversizedBatchIsRejected) {
  uint64_t audited = RejectedAuditRecords();
  uint64_t creates = AuditRecordsFor(RpcOp::kCreate);

  // One past the sub-request cap, every sub individually valid.
  Bytes good = ValidFrame();
  std::vector<Bytes> subs(RpcBatchRequest::kMaxSubRequests + 1, good);
  EXPECT_EQ(ExpectRejected(RawBatchFrame(subs.size(), subs)),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(RejectedAuditRecords(), audited + 1);
  EXPECT_EQ(AuditRecordsFor(RpcOp::kCreate), creates) << "capped batch partially applied";

  // At the cap the batch goes through whole.
  subs.resize(RpcBatchRequest::kMaxSubRequests);
  RpcBatchRequest batch;
  for (size_t i = 0; i < RpcBatchRequest::kMaxSubRequests; ++i) {
    RpcRequest req;
    req.op = RpcOp::kCreate;
    req.creds.user = 100;
    req.creds.client = 1;
    batch.subs.push_back(std::move(req));
  }
  Bytes response = server_->Handle(batch.Encode());
  ASSERT_OK_AND_ASSIGN(RpcBatchResponse resp, RpcBatchResponse::Decode(response));
  EXPECT_EQ(resp.subs.size(), RpcBatchRequest::kMaxSubRequests);
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, NestedBatchFramesAreRejected) {
  uint64_t audited = RejectedAuditRecords();
  Bytes good = ValidFrame();

  // A batch frame as a sub-request: sub-requests must be single-op frames.
  Bytes inner = RawBatchFrame(1, {good});
  EXPECT_EQ(ExpectRejected(RawBatchFrame(1, {inner})), ErrorCode::kDataCorruption);

  // A single-op frame whose op byte is kBatch (21): still out of range for
  // the single-frame decoder, so batches cannot smuggle themselves inline.
  Bytes op21 = ValidFrame();
  op21[4] = 21;
  EXPECT_EQ(ExpectRejected(Reseal(std::move(op21))), ErrorCode::kInvalidArgument);

  EXPECT_EQ(RejectedAuditRecords(), audited + 2);
  ExpectDriveHealthy();
}

// The link flag is legal only on an append that follows another sub-request
// of its batch. Anywhere else the whole frame is rejected, as malformed: one
// kInvalid record, and no sub-op applied.
TEST_F(RpcHostileTest, MisplacedLinkFlagRejectsTheWholeFrame) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create(BytesOf("target")));
  ASSERT_OK(client_->Append(id, BytesOf("kept")).status());
  RpcRequest create;
  create.op = RpcOp::kCreate;
  create.creds = User(100);
  RpcRequest append;
  append.op = RpcOp::kAppend;
  append.creds = User(100);
  append.object = id;
  append.data = BytesOf("+linked");
  append.link = true;
  RpcRequest write = append;
  write.op = RpcOp::kWrite;

  const uint64_t audited = RejectedAuditRecords();
  const uint64_t creates = AuditRecordsFor(RpcOp::kCreate);
  const uint64_t appends = AuditRecordsFor(RpcOp::kAppend);
  const uint64_t writes = AuditRecordsFor(RpcOp::kWrite);
  // A single frame has nothing to link to.
  EXPECT_EQ(ExpectRejected(append.Encode()), ErrorCode::kInvalidArgument);
  // A batch's first sub-request has no predecessor.
  RpcBatchRequest first;
  first.subs = {append, create};
  EXPECT_EQ(ExpectRejected(first.Encode()), ErrorCode::kInvalidArgument);
  // Only an append may be linked.
  RpcBatchRequest not_append;
  not_append.subs = {create, write};
  EXPECT_EQ(ExpectRejected(not_append.Encode()), ErrorCode::kInvalidArgument);

  EXPECT_EQ(RejectedAuditRecords(), audited + 3) << "one kInvalid record per frame";
  EXPECT_EQ(AuditRecordsFor(RpcOp::kCreate), creates) << "a rejected frame runs no sub-op";
  EXPECT_EQ(AuditRecordsFor(RpcOp::kAppend), appends);
  EXPECT_EQ(AuditRecordsFor(RpcOp::kWrite), writes);
  EXPECT_EQ(AuditRecordsFor(RpcOp::kBatch), 0u);
  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "kept");
  ExpectDriveHealthy();
}

// A zero-length read of a non-empty object returns no bytes, current or
// historical. Its last-block index once wrapped below zero, and the drive
// looped over 2^52 blocks.
TEST_F(RpcHostileTest, ZeroLengthReadReturnsNothing) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  ASSERT_OK(client_->Write(id, 0, BytesOf("not empty")));
  const SimTime written = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(client_->Write(id, 0, BytesOf("rewritten")));
  ASSERT_OK_AND_ASSIGN(Bytes current, client_->Read(id, 0, 0));
  EXPECT_TRUE(current.empty());
  S4Client recovery(transport_.get(), Admin());
  ASSERT_OK_AND_ASSIGN(Bytes past, recovery.Read(id, 0, 0, written));
  EXPECT_TRUE(past.empty());
  ExpectDriveHealthy();
}

TEST_F(RpcHostileTest, ValidFrameWithHostileFieldValuesFailsInTheDrive) {
  // Well-formed frames carrying absurd arguments exercise the drive's own
  // validation, not the frame codec: these are NOT audit-kInvalid rejects.
  uint64_t audited = RejectedAuditRecords();

  RpcRequest req;
  req.creds.user = 100;
  req.creds.client = 1;
  req.op = RpcOp::kRead;
  req.object = ~0ull;  // nonexistent object id
  req.offset = ~0ull;
  req.length = ~0ull;
  Bytes response = server_->Handle(req.Encode());
  ASSERT_OK_AND_ASSIGN(RpcResponse resp, RpcResponse::Decode(response));
  EXPECT_EQ(resp.code, ErrorCode::kNotFound);

  EXPECT_EQ(RejectedAuditRecords(), audited);  // audited as kRead, not kInvalid
  ExpectDriveHealthy();
}

}  // namespace
}  // namespace s4
