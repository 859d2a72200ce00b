// The security perimeter: ACL enforcement, the Recovery flag, admin-only
// commands, the audit log, and the space-exhaustion throttle.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace s4 {
namespace {

TEST_F(DriveTest, AclDeniesOtherUsers) {
  Credentials alice = User(100);
  Credentials mallory = User(666);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("private")));

  EXPECT_EQ(drive_->Read(mallory, id, 0, 64).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->Write(mallory, id, 0, BytesOf("x")).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->Delete(mallory, id).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->SetAttr(mallory, id, {}).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->SetAcl(mallory, id, AclEntry{666, kPermAll}).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DriveTest, AclGrantsAfterSetAcl) {
  Credentials alice = User(100);
  Credentials bob = User(200);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("shared")));
  ASSERT_OK(drive_->SetAcl(alice, id, AclEntry{200, kPermRead}));
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(bob, id, 0, 64));
  EXPECT_EQ(StringOf(got), "shared");
  // Read-only: writes still denied.
  EXPECT_EQ(drive_->Write(bob, id, 0, BytesOf("x")).code(), ErrorCode::kPermissionDenied);
}

TEST_F(DriveTest, RecoveryFlagGatesHistoryAccess) {
  // Section 3.4: users may read history-pool versions only when the Recovery
  // flag is set; otherwise only the administrator can.
  Credentials alice = User(100);
  Credentials bob = User(200);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("draft v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("draft v2")));

  // Bob gets read access WITHOUT the Recovery flag.
  ASSERT_OK(drive_->SetAcl(alice, id, AclEntry{200, kPermRead}));
  EXPECT_EQ(drive_->Read(bob, id, 0, 64, t1).status().code(), ErrorCode::kPermissionDenied);
  // The owner created the object with Recovery set: allowed.
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64, t1));
  EXPECT_EQ(StringOf(got), "draft v1");
  // The administrator can always read history.
  ASSERT_OK_AND_ASSIGN(Bytes admin_got, drive_->Read(Admin(), id, 0, 64, t1));
  EXPECT_EQ(StringOf(admin_got), "draft v1");
}

TEST_F(DriveTest, ClearingRecoveryFlagHidesOldVersionsFromOwner) {
  // A user may mark data unrecoverable-by-users (embarrassing drafts): even
  // valid credentials then cannot resurrect old versions — only the admin.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("unsent angry email")));
  ASSERT_OK(drive_->SetAcl(alice, id, AclEntry{100, kPermAllNoRecovery}));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("polite version")));

  EXPECT_EQ(drive_->Read(alice, id, 0, 64, t1).status().code(),
            ErrorCode::kPermissionDenied);
  ASSERT_OK_AND_ASSIGN(Bytes admin_got, drive_->Read(Admin(), id, 0, 64, t1));
  EXPECT_EQ(StringOf(admin_got), "unsent angry email");
}

TEST_F(DriveTest, CompromisedCredentialsCannotDestroyHistory) {
  // The core guarantee: an intruder with the owner's credentials can delete
  // and overwrite, but every prior version stays reconstructible.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("system log: intruder logged in")));
  SimTime before_attack = clock_->Now();
  clock_->Advance(kSecond);

  // "Intruder" scrubs the log and deletes the object with stolen creds.
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("system log: nothing happened")));
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Delete(alice, id));

  // No non-admin RPC can remove the history.
  EXPECT_EQ(drive_->Flush(alice, 0, clock_->Now()).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->FlushObject(alice, id, 0, clock_->Now()).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->SetWindow(alice, 0).code(), ErrorCode::kPermissionDenied);

  ASSERT_OK_AND_ASSIGN(Bytes evidence, drive_->Read(Admin(), id, 0, 64, before_attack));
  EXPECT_EQ(StringOf(evidence), "system log: intruder logged in");
}

TEST_F(DriveTest, AuditLogRecordsAllOperations) {
  Credentials alice = User(100, /*client=*/7);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("data")));
  (void)drive_->Read(alice, id, 0, 4);  // result unused, audit trail is the point
  (void)drive_->Read(User(666, 9), id, 0, 4);  // denied, still audited

  AuditQuery all;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> records, drive_->QueryAudit(Admin(), all));
  ASSERT_GE(records.size(), 4u);

  AuditQuery by_client;
  by_client.client = 7;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> mine, drive_->QueryAudit(Admin(), by_client));
  EXPECT_GE(mine.size(), 3u);
  for (const auto& r : mine) {
    EXPECT_EQ(r.client, 7u);
  }

  // The denied read by the intruder is in the log with its failure code.
  AuditQuery intruder;
  intruder.client = 9;
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> bad, drive_->QueryAudit(Admin(), intruder));
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].op, RpcOp::kRead);
  EXPECT_EQ(bad[0].result, static_cast<uint8_t>(ErrorCode::kPermissionDenied));
}

TEST_F(DriveTest, AuditLogNotReadableByUsers) {
  Credentials alice = User(100);
  EXPECT_EQ(drive_->QueryAudit(alice, AuditQuery{}).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->Read(alice, kAuditLogObjectId, 0, 64).status().code(),
            ErrorCode::kPermissionDenied);
  // And never writable, even by its "owner" semantics.
  EXPECT_EQ(drive_->Write(alice, kAuditLogObjectId, 0, BytesOf("forged")).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(drive_->Delete(alice, kAuditLogObjectId).code(), ErrorCode::kPermissionDenied);
}

TEST_F(DriveTest, AuditLogSurvivesCrash) {
  Credentials alice = User(100, 7);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("data")));
  // Audit records ride segment writes in whole blocks; durability is at
  // device-checkpoint granularity. Checkpoint, then crash.
  ASSERT_OK(drive_->WriteCheckpoint());
  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(std::vector<AuditRecord> records,
                       drive_->QueryAudit(Admin(), AuditQuery{}));
  bool saw_create = false;
  bool saw_write = false;
  for (const auto& r : records) {
    saw_create |= r.op == RpcOp::kCreate && r.object == id;
    saw_write |= r.op == RpcOp::kWrite && r.object == id;
  }
  EXPECT_TRUE(saw_create);
  EXPECT_TRUE(saw_write);
}

TEST_F(DriveTest, AdminFlushDestroysVersionsInRange) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v2")));
  SimTime t2 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v3")));

  // Purge the middle version (t1, t2]: v1's contents (superseded in range)
  // become unreadable; v3 (current) unaffected.
  ASSERT_OK(drive_->FlushObject(Admin(), id, t1, t2));
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, t1).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_OK_AND_ASSIGN(Bytes cur, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(cur), "v3");
}

TEST_F(DriveTest, SetWindowAdjustsDetectionWindow) {
  ASSERT_OK(drive_->SetWindow(Admin(), 3 * kDay));
  EXPECT_EQ(drive_->detection_window(), 3 * kDay);
}

TEST_F(DriveTest, ThrottleEngagesWhenSpaceLow) {
  // Fill most of the small disk from one greedy client; once utilisation
  // crosses the threshold its writes get delayed and eventually refused,
  // while a light client keeps working.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.cleaner_enabled = false;       // let pressure build
    o.detection_window = 365 * kDay; // nothing expires
    return o;
  }(), 24ull << 20);

  Credentials greedy = User(1, /*client=*/1);
  Credentials light = User(2, /*client=*/2);
  ASSERT_OK_AND_ASSIGN(ObjectId gobj, drive_->Create(greedy, {}));
  ASSERT_OK_AND_ASSIGN(ObjectId lobj, drive_->Create(light, {}));

  Rng rng(3);
  Bytes chunk = rng.RandomBytes(256 * 1024);
  bool throttled = false;
  for (int i = 0; i < 200; ++i) {
    Status s = drive_->Append(greedy, gobj, chunk).status();
    if (s.code() == ErrorCode::kThrottled) {
      throttled = true;
      break;
    }
    if (s.code() == ErrorCode::kOutOfSpace) {
      break;
    }
  }
  EXPECT_TRUE(throttled);
  EXPECT_GT(drive_->metrics().CounterValue("throttle.delays") +
                drive_->metrics().CounterValue("throttle.rejects"),
            0u);
  // The light client still gets service.
  EXPECT_OK(drive_->Write(light, lobj, 0, BytesOf("still fine")));
}

}  // namespace
}  // namespace s4
