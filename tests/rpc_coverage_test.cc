// Table 1 conformance over the wire: every RPC round-trips through frame
// encode -> transport -> dispatch -> drive -> response encode, and the
// time-based access column matches the paper exactly.
#include <gtest/gtest.h>

#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

class RpcCoverageTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    server_ = std::make_unique<S4RpcServer>(drive_.get());
    transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
    alice_ = std::make_unique<S4Client>(transport_.get(), User(100));
    admin_client_ = std::make_unique<S4Client>(transport_.get(), Admin());
  }

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<S4Client> alice_;
  std::unique_ptr<S4Client> admin_client_;
};

TEST_F(RpcCoverageTest, AllNineteenOpsRoundTrip) {
  // Create / Write / Append / Read / Truncate.
  ASSERT_OK_AND_ASSIGN(ObjectId id, alice_->Create(BytesOf("attrs")));
  ASSERT_OK(alice_->Write(id, 0, BytesOf("hello ")));
  ASSERT_OK_AND_ASSIGN(uint64_t size, alice_->Append(id, BytesOf("world")));
  EXPECT_EQ(size, 11u);
  ASSERT_OK_AND_ASSIGN(Bytes got, alice_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "hello world");
  ASSERT_OK(alice_->Truncate(id, 5));

  // GetAttr / SetAttr.
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, alice_->GetAttr(id));
  EXPECT_EQ(attrs.size, 5u);
  EXPECT_EQ(StringOf(attrs.opaque), "attrs");
  ASSERT_OK(alice_->SetAttr(id, BytesOf("attrs2")));

  // SetACL / GetACLByUser / GetACLByIndex.
  ASSERT_OK(alice_->SetAcl(id, AclEntry{200, kPermRead}));
  ASSERT_OK_AND_ASSIGN(AclEntry by_user, alice_->GetAclByUser(id, 200));
  EXPECT_EQ(by_user.perms, kPermRead);
  ASSERT_OK_AND_ASSIGN(AclEntry by_index, alice_->GetAclByIndex(id, 0));
  EXPECT_EQ(by_index.user, 100u);

  // PCreate / PMount / PList / PDelete.
  ASSERT_OK(alice_->PCreate("vol0", id));
  ASSERT_OK_AND_ASSIGN(ObjectId mounted, alice_->PMount("vol0"));
  EXPECT_EQ(mounted, id);
  ASSERT_OK_AND_ASSIGN(auto partitions, alice_->PList());
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(partitions[0].first, "vol0");
  ASSERT_OK(alice_->PDelete("vol0"));

  // Sync / SetWindow / Flush / FlushO (admin) / Delete / GetVersionList.
  ASSERT_OK(alice_->Sync());
  ASSERT_OK(admin_client_->SetWindow(3 * kDay));
  ASSERT_OK(admin_client_->Flush(0, 1));
  ASSERT_OK(admin_client_->FlushObject(id, 0, 1));
  ASSERT_OK_AND_ASSIGN(auto versions, alice_->GetVersionList(id));
  EXPECT_GE(versions.size(), 4u);
  ASSERT_OK(alice_->Delete(id));
}

TEST_F(RpcCoverageTest, AuditChallengeRoundTripsOverTheWire) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, alice_->Create({}));
  ASSERT_OK(alice_->Write(id, 0, BytesOf("x")));
  ASSERT_OK(alice_->Sync());

  // The external auditor verifies the whole chain from genesis, then only
  // the new frames on the next challenge.
  AuditChainState saved;
  ASSERT_OK(admin_client_->AuditChallenge(&saved));
  EXPECT_GT(saved.next_seq, 0u);
  uint64_t seq = saved.next_seq;
  ASSERT_OK(alice_->Write(id, 0, BytesOf("y")));
  ASSERT_OK(admin_client_->AuditChallenge(&saved));
  EXPECT_GT(saved.next_seq, seq);

  // Challenges are an admin capability.
  AuditChainState theirs;
  EXPECT_EQ(alice_->AuditChallenge(&theirs).code(), ErrorCode::kPermissionDenied);
}

TEST_F(RpcCoverageTest, TimeBasedAccessColumnMatchesTable1) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, alice_->Create(BytesOf("v1-attrs")));
  ASSERT_OK(alice_->Write(id, 0, BytesOf("version one")));
  ASSERT_OK(alice_->SetAcl(id, AclEntry{200, kPermRead | kPermRecovery}));
  ASSERT_OK(alice_->PCreate("snap", id));
  SimTime t1 = clock_->Now();
  clock_->Advance(kMinute);
  ASSERT_OK(alice_->Write(id, 0, BytesOf("version TWO")));
  ASSERT_OK(alice_->SetAttr(id, BytesOf("v2-attrs")));
  ASSERT_OK(alice_->SetAcl(id, AclEntry{200, kPermRead}));
  ASSERT_OK(alice_->PDelete("snap"));

  // "yes" rows: Read, GetAttr, GetACLByUser, GetACLByIndex, PList, PMount.
  ASSERT_OK_AND_ASSIGN(Bytes old_data, alice_->Read(id, 0, 64, t1));
  EXPECT_EQ(StringOf(old_data), "version one");
  ASSERT_OK_AND_ASSIGN(ObjectAttrs old_attrs, alice_->GetAttr(id, t1));
  EXPECT_EQ(StringOf(old_attrs.opaque), "v1-attrs");
  ASSERT_OK_AND_ASSIGN(AclEntry old_acl, alice_->GetAclByUser(id, 200, t1));
  EXPECT_EQ(old_acl.perms, kPermRead | kPermRecovery);
  ASSERT_OK_AND_ASSIGN(AclEntry old_acl_i, alice_->GetAclByIndex(id, 1, t1));
  EXPECT_EQ(old_acl_i.user, 200u);
  ASSERT_OK_AND_ASSIGN(auto old_parts, alice_->PList(t1));
  ASSERT_EQ(old_parts.size(), 1u);
  ASSERT_OK_AND_ASSIGN(ObjectId old_mount, alice_->PMount("snap", t1));
  EXPECT_EQ(old_mount, id);
  // The partition is gone in the present.
  EXPECT_EQ(alice_->PMount("snap").status().code(), ErrorCode::kNotFound);
}

TEST_F(RpcCoverageTest, AdminOpsRequireAdminOverTheWire) {
  EXPECT_EQ(alice_->SetWindow(kDay).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(alice_->Flush(0, 1).code(), ErrorCode::kPermissionDenied);
  ASSERT_OK_AND_ASSIGN(ObjectId id, alice_->Create({}));
  EXPECT_EQ(alice_->FlushObject(id, 0, 1).code(), ErrorCode::kPermissionDenied);
}

TEST_F(RpcCoverageTest, ErrorsSurviveTheWire) {
  // Error codes and messages cross the transport intact.
  auto missing = alice_->Read(424242, 0, 10);
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(missing.status().message().empty());
  auto bad_attr = alice_->Create(Bytes(10000, 0));
  EXPECT_EQ(bad_attr.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(RpcCoverageTest, TransportCountsRequestsSentAndResponsesReceived) {
  // Each Call is exactly one request out and one response back; responses
  // must not be double-counted as sent traffic.
  auto net = [this](const char* name) {
    return drive_->metrics().CounterValue(std::string("net.") + name);
  };
  ASSERT_OK_AND_ASSIGN(ObjectId id, alice_->Create({}));
  EXPECT_EQ(net("messages_sent"), 1u);
  EXPECT_EQ(net("messages_received"), 1u);

  // A large write is request-heavy: payload travels in the request.
  uint64_t sent_before = net("bytes_sent");
  uint64_t received_before = net("bytes_received");
  Bytes big(1 << 20, 0x33);
  ASSERT_OK(alice_->Write(id, 0, big));
  EXPECT_EQ(net("messages_sent"), 2u);
  EXPECT_EQ(net("messages_received"), 2u);
  EXPECT_GT(net("bytes_sent") - sent_before, big.size());
  EXPECT_LT(net("bytes_received") - received_before, 1024u);

  // A large read is response-heavy: payload travels in the response.
  sent_before = net("bytes_sent");
  received_before = net("bytes_received");
  ASSERT_OK_AND_ASSIGN(Bytes got, alice_->Read(id, 0, big.size()));
  EXPECT_EQ(got.size(), big.size());
  EXPECT_EQ(net("messages_sent"), 3u);
  EXPECT_EQ(net("messages_received"), 3u);
  EXPECT_LT(net("bytes_sent") - sent_before, 1024u);
  EXPECT_GT(net("bytes_received") - received_before, big.size());
}

TEST_F(RpcCoverageTest, ResponseRoundTripsEveryErrorCode) {
  // Regression: RpcResponse::Decode used to bound-check the code byte
  // against kInternal (10), so a legitimate kUnavailable (11) response —
  // e.g. the drive reporting a transient device error — failed to decode
  // and surfaced to the client as DATA_CORRUPTION instead.
  for (uint8_t raw = 0; raw < kNumErrorCodes; ++raw) {
    RpcResponse resp;
    resp.code = static_cast<ErrorCode>(raw);
    resp.message = "detail";
    Bytes frame = resp.Encode();
    auto decoded = RpcResponse::Decode(frame);
    ASSERT_OK(decoded.status()) << "code " << ErrorCodeName(resp.code);
    EXPECT_EQ(decoded->code, resp.code);
  }
}

TEST_F(RpcCoverageTest, GarbageFramesGetErrorResponses) {
  Rng rng(71);
  for (int i = 0; i < 20; ++i) {
    Bytes garbage = rng.RandomBytes(16 + rng.Below(256));
    Bytes response = server_->Handle(garbage);
    ASSERT_OK_AND_ASSIGN(RpcResponse resp, RpcResponse::Decode(response));
    EXPECT_FALSE(resp.ok());
  }
  // The drive is still healthy afterwards.
  ASSERT_OK(alice_->Create({}).status());
}

}  // namespace
}  // namespace s4
