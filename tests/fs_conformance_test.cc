// FileSystemApi conformance suite, parameterised over every server
// implementation: the S4/NFS translator (through the full RPC stack) and
// both personalities of the FFS-like baseline. The benchmarks compare these
// systems, so they must implement identical semantics.
#include <gtest/gtest.h>

#include <memory>

#include "src/baseline/ffs_like.h"
#include "src/fs/s4_fs.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

enum class Backend { kS4, kFfsSync, kFfsAsync };

std::string BackendName(Backend b) {
  switch (b) {
    case Backend::kS4:
      return "S4";
    case Backend::kFfsSync:
      return "FfsSync";
    case Backend::kFfsAsync:
      return "FfsAsync";
  }
  return "?";
}

class FsConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>(SimTime{1000000});
    device_ = std::make_unique<BlockDevice>((64ull << 20) / kSectorSize, clock_.get());
    switch (GetParam()) {
      case Backend::kS4: {
        S4DriveOptions opts;
        opts.segment_sectors = 512;
        opts.detection_window = kHour;
        auto drive = S4Drive::Format(device_.get(), clock_.get(), opts);
        ASSERT_TRUE(drive.ok()) << drive.status().ToString();
        drive_ = std::move(*drive);
        server_ = std::make_unique<S4RpcServer>(drive_.get());
        transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
        Credentials user;
        user.user = 100;
        user.client = 1;
        client_ = std::make_unique<S4Client>(transport_.get(), user);
        auto fs = S4FileSystem::Format(client_.get(), "root");
        ASSERT_TRUE(fs.ok()) << fs.status().ToString();
        s4_fs_ = std::move(*fs);
        fs_ = s4_fs_.get();
        break;
      }
      case Backend::kFfsSync:
      case Backend::kFfsAsync: {
        FfsOptions opts;
        opts.sync_metadata = GetParam() == Backend::kFfsSync;
        auto fs = FfsLikeServer::Format(device_.get(), clock_.get(), opts);
        ASSERT_TRUE(fs.ok()) << fs.status().ToString();
        ffs_ = std::move(*fs);
        fs_ = ffs_.get();
        break;
      }
    }
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<S4Drive> drive_;
  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<S4Client> client_;
  std::unique_ptr<S4FileSystem> s4_fs_;
  std::unique_ptr<FfsLikeServer> ffs_;
  FileSystemApi* fs_ = nullptr;
};

TEST_P(FsConformanceTest, BasicFileLifecycle) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "file", 0640));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("hello")));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, fs_->GetAttr(f));
  EXPECT_EQ(attr.size, 5u);
  EXPECT_EQ(attr.mode, 0640u);
  EXPECT_EQ(attr.type, FileType::kFile);
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, 100));
  EXPECT_EQ(StringOf(got), "hello");
  ASSERT_OK(fs_->Remove(root, "file"));
  EXPECT_EQ(fs_->Lookup(root, "file").status().code(), ErrorCode::kNotFound);
}

TEST_P(FsConformanceTest, DuplicateCreateRejected) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK(fs_->CreateFile(root, "x", 0644).status());
  EXPECT_EQ(fs_->CreateFile(root, "x", 0644).status().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs_->Mkdir(root, "x", 0755).status().code(), ErrorCode::kAlreadyExists);
}

TEST_P(FsConformanceTest, NestedDirectories) {
  ASSERT_OK_AND_ASSIGN(FileHandle leaf, MakeDirs(fs_, "/a/b/c/d"));
  ASSERT_OK(fs_->CreateFile(leaf, "deep", 0644).status());
  ASSERT_OK_AND_ASSIGN(FileHandle found, ResolvePath(fs_, "/a/b/c/d/deep"));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, fs_->GetAttr(found));
  EXPECT_EQ(attr.type, FileType::kFile);
}

TEST_P(FsConformanceTest, OverwriteMiddleOfFile) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "f", 0644));
  Rng rng(9);
  Bytes data = rng.RandomBytes(20000);
  ASSERT_OK(fs_->WriteFile(f, 0, data));
  Bytes patch = rng.RandomBytes(5000);
  ASSERT_OK(fs_->WriteFile(f, 7000, patch));
  std::copy(patch.begin(), patch.end(), data.begin() + 7000);
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, data.size()));
  EXPECT_EQ(got, data);
}

TEST_P(FsConformanceTest, TruncateShrinkAndExtend) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "f", 0644));
  Rng rng(10);
  Bytes data = rng.RandomBytes(10000);
  ASSERT_OK(fs_->WriteFile(f, 0, data));
  ASSERT_OK(fs_->SetSize(f, 3000));
  ASSERT_OK_AND_ASSIGN(FileAttr attr, fs_->GetAttr(f));
  EXPECT_EQ(attr.size, 3000u);
  ASSERT_OK(fs_->SetSize(f, 8000));
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, 8000));
  ASSERT_EQ(got.size(), 8000u);
  for (size_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(got[i], data[i]) << i;
  }
  for (size_t i = 3000; i < 8000; ++i) {
    ASSERT_EQ(got[i], 0) << i;
  }
}

TEST_P(FsConformanceTest, RenameWithinAndAcross) {
  ASSERT_OK_AND_ASSIGN(FileHandle a, MakeDirs(fs_, "/a"));
  ASSERT_OK_AND_ASSIGN(FileHandle b, MakeDirs(fs_, "/b"));
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(a, "one", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("payload")));
  ASSERT_OK(fs_->Rename(a, "one", a, "two"));
  ASSERT_OK(fs_->Rename(a, "two", b, "three"));
  ASSERT_OK(fs_->Rename(b, "three", b, "three"));  // onto itself: a no-op
  ASSERT_OK_AND_ASSIGN(FileHandle moved, ResolvePath(fs_, "/b/three"));
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(moved, 0, 64));
  EXPECT_EQ(StringOf(got), "payload");
  EXPECT_EQ(fs_->Lookup(a, "one").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs_->Lookup(a, "two").status().code(), ErrorCode::kNotFound);
}

TEST_P(FsConformanceTest, SymlinkRoundTrip) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle l, fs_->Symlink(root, "lnk", "/some/where"));
  ASSERT_OK_AND_ASSIGN(std::string target, fs_->ReadLink(l));
  EXPECT_EQ(target, "/some/where");
}

TEST_P(FsConformanceTest, ReadDirListsEverything) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK(fs_->CreateFile(root, "f1", 0644).status());
  ASSERT_OK(fs_->Mkdir(root, "d1", 0755).status());
  ASSERT_OK(fs_->Symlink(root, "l1", "t").status());
  ASSERT_OK_AND_ASSIGN(std::vector<DirEntry> entries, fs_->ReadDir(root));
  EXPECT_EQ(entries.size(), 3u);
}

TEST_P(FsConformanceTest, SparseFileReadsZeros) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "sparse", 0644));
  ASSERT_OK(fs_->WriteFile(f, 1 << 20, BytesOf("end")));
  ASSERT_OK_AND_ASSIGN(Bytes hole, fs_->ReadFile(f, 500000, 64));
  for (uint8_t byte : hole) {
    ASSERT_EQ(byte, 0);
  }
}

TEST_P(FsConformanceTest, LargeFileThroughIndirection) {
  // Exceeds the FFS direct-block reach (48KB) and single-indirect boundary.
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "big", 0644));
  Rng rng(11);
  Bytes data = rng.RandomBytes(3 * 1024 * 1024);
  for (uint64_t off = 0; off < data.size(); off += 64 * 1024) {
    uint64_t n = std::min<uint64_t>(64 * 1024, data.size() - off);
    ASSERT_OK(fs_->WriteFile(f, off, ByteSpan(data).subspan(off, n)));
  }
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, data.size()));
  EXPECT_EQ(got, data);
}

TEST_P(FsConformanceTest, ManySmallFilesChurn) {
  Rng rng(12);
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  std::map<std::string, Bytes> oracle;
  for (int step = 0; step < 300; ++step) {
    uint64_t action = rng.Below(10);
    if (action < 5 || oracle.empty()) {
      std::string name = "c" + std::to_string(step);
      Bytes data = rng.RandomBytes(1 + rng.Below(6000), 0.3);
      ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, name, 0644));
      ASSERT_OK(fs_->WriteFile(f, 0, data));
      oracle[name] = std::move(data);
    } else if (action < 8) {
      auto it = oracle.begin();
      std::advance(it, rng.Below(oracle.size()));
      ASSERT_OK_AND_ASSIGN(FileHandle f, ResolvePath(fs_, "/" + it->first));
      ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, it->second.size() + 10));
      ASSERT_EQ(got, it->second) << it->first;
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.Below(oracle.size()));
      ASSERT_OK(fs_->Remove(root, it->first));
      oracle.erase(it);
    }
  }
  ASSERT_OK_AND_ASSIGN(std::vector<DirEntry> entries, fs_->ReadDir(root));
  EXPECT_EQ(entries.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FsConformanceTest,
                         ::testing::Values(Backend::kS4, Backend::kFfsSync,
                                           Backend::kFfsAsync),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return BackendName(param_info.param);
                         });

}  // namespace
}  // namespace s4
