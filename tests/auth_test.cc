// Authenticated access (paper section 3.2): the device verifies each request
// came from a valid (client, user) pair — MAC verification, replay defense,
// identity binding, and trustworthy audit attribution.
#include <gtest/gtest.h>

#include "src/rpc/auth.h"
#include "src/rpc/client.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

TEST(SipHashTest, ReferenceVector) {
  // The SipHash-2-4 reference test vector (key 000102...0f over bytes
  // 00 01 .. 3e) — first entry: empty input.
  MacKey key;
  for (int i = 0; i < 16; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(SipHash24(key, {}), 0x726fdb47dd0e0e31ull);
  Bytes one = {0x00};
  EXPECT_EQ(SipHash24(key, one), 0x74f839c593dc67fdull);
  Bytes eight = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  EXPECT_EQ(SipHash24(key, eight), 0x93f5f5799a932462ull);
}

TEST(SipHashTest, KeySensitivity) {
  MacKey a{};
  MacKey b{};
  b[0] = 1;
  Bytes data = BytesOf("same message");
  EXPECT_NE(SipHash24(a, data), SipHash24(b, data));
}

class AuthTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    server_ = std::make_unique<S4RpcServer>(drive_.get());
    gateway_ = std::make_unique<AuthGateway>(server_.get());
    transport_ = std::make_unique<AuthLoopbackTransport>(gateway_.get(), clock_.get());
    for (int i = 0; i < 16; ++i) {
      alice_key_[i] = static_cast<uint8_t>(0xA0 + i);
    }
    gateway_->RegisterPrincipal(/*client=*/1, /*user=*/100, alice_key_);
    signer_ = std::make_unique<SigningTransport>(transport_.get(), 1, 100, alice_key_);
    client_ = std::make_unique<S4Client>(signer_.get(), User(100, 1));
  }

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<AuthGateway> gateway_;
  std::unique_ptr<AuthLoopbackTransport> transport_;
  std::unique_ptr<SigningTransport> signer_;
  std::unique_ptr<S4Client> client_;
  MacKey alice_key_;
};

TEST_F(AuthTest, SignedRequestsGoThrough) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  ASSERT_OK(client_->Write(id, 0, BytesOf("authenticated data")));
  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "authenticated data");
}

TEST_F(AuthTest, UnsignedFramesRejected) {
  // A bare request frame (no envelope) bounces off the gateway.
  RpcRequest req;
  req.op = RpcOp::kCreate;
  req.creds = User(100, 1);
  ASSERT_OK_AND_ASSIGN(Bytes frame, transport_->Call(req.Encode()));
  ASSERT_OK_AND_ASSIGN(RpcResponse resp, RpcResponse::Decode(frame));
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);
}

TEST_F(AuthTest, ForgedMacRejected) {
  signer_->CorruptNextMac();
  EXPECT_EQ(client_->Create({}).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(gateway_->rejected_bad_mac(), 1u);
  // Subsequent honest requests still work.
  ASSERT_OK(client_->Create({}).status());
}

TEST_F(AuthTest, ReplayRejected) {
  ASSERT_OK(client_->Create({}).status());
  ASSERT_OK_AND_ASSIGN(Bytes frame, signer_->ReplayLast());
  ASSERT_OK_AND_ASSIGN(RpcResponse resp, RpcResponse::Decode(frame));
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(gateway_->rejected_replay(), 1u);
}

TEST_F(AuthTest, CannotSpeakForAnotherUser) {
  // Alice's key signs a request claiming to be user 200.
  SigningTransport impostor(transport_.get(), 1, 100, alice_key_);
  Credentials forged;
  forged.client = 1;
  forged.user = 200;  // claims bob inside the frame
  S4Client bad_client(&impostor, forged);
  EXPECT_EQ(bad_client.Create({}).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(gateway_->rejected_identity_mismatch(), 1u);
}

TEST_F(AuthTest, SignedBatchesGoThrough) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  std::vector<RpcRequest> subs(2);
  for (RpcRequest& sub : subs) {
    sub.op = RpcOp::kAppend;
    sub.object = id;
  }
  subs[0].data = BytesOf("signed ");
  subs[1].data = BytesOf("batch");
  ASSERT_OK_AND_ASSIGN(std::vector<RpcResponse> resps, client_->CallBatch(std::move(subs)));
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_TRUE(resps[0].ok()) << resps[0].message;
  EXPECT_TRUE(resps[1].ok()) << resps[1].message;
  ASSERT_OK_AND_ASSIGN(Bytes got, client_->Read(id, 0, 64));
  EXPECT_EQ(StringOf(got), "signed batch");
}

TEST_F(AuthTest, BatchCannotSpeakForAnotherUserInAnySubRequest) {
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  AuditQuery appends;
  appends.op = RpcOp::kAppend;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> before, drive_->QueryAudit(Admin(), appends));
  // Alice's key signs a batch whose second sub-request claims to be user 200.
  std::vector<RpcRequest> subs(2);
  for (RpcRequest& sub : subs) {
    sub.op = RpcOp::kAppend;
    sub.object = id;
    sub.data = BytesOf("x");
    sub.creds = User(100, 1);
  }
  subs[1].creds.user = 200;
  EXPECT_EQ(client_->CallBatchPrestamped(std::move(subs)).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(gateway_->rejected_identity_mismatch(), 1u);
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> after, drive_->QueryAudit(Admin(), appends));
  EXPECT_EQ(after.size(), before.size()) << "no sub-op reached the drive";
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(Admin(), id));
  EXPECT_EQ(attrs.size, 0u);
}

TEST_F(AuthTest, UnknownPrincipalRejected) {
  MacKey mallory_key{};
  SigningTransport mallory(transport_.get(), 9, 666, mallory_key);
  S4Client bad_client(&mallory, User(666, 9));
  EXPECT_EQ(bad_client.Create({}).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(gateway_->rejected_unknown_principal(), 1u);
}

TEST_F(AuthTest, RevocationCutsAccess) {
  ASSERT_OK(client_->Create({}).status());
  gateway_->RevokePrincipal(1, 100);
  EXPECT_EQ(client_->Create({}).status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(AuthTest, AuditAttributionIsTrustworthy) {
  // With authentication, audit records can only name principals that really
  // issued requests: forged-identity attempts never reach the drive.
  ASSERT_OK_AND_ASSIGN(ObjectId id, client_->Create({}));
  ASSERT_OK(client_->Write(id, 0, BytesOf("x")));
  SigningTransport impostor(transport_.get(), 1, 100, alice_key_);
  Credentials forged = User(200, 1);
  S4Client bad_client(&impostor, forged);
  (void)bad_client.Write(id, 0, BytesOf("forged"));  // must be rejected; audited below

  AuditQuery as_bob;
  as_bob.user = 200;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> bob_records,
                       drive_->QueryAudit(Admin(), as_bob));
  EXPECT_TRUE(bob_records.empty());  // nothing was ever attributed to user 200
}

}  // namespace
}  // namespace s4
