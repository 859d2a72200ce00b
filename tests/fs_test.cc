// S4/NFS translation layer tests, exercising the full stack:
// S4FileSystem -> S4Client -> RPC transport -> S4RpcServer -> S4Drive.
#include <gtest/gtest.h>

#include "src/fs/nfs_wrapper.h"
#include "src/fs/s4_fs.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

class FsTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    server_ = std::make_unique<S4RpcServer>(drive_.get());
    transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
    client_ = std::make_unique<S4Client>(transport_.get(), User(100));
    ASSERT_OK_AND_ASSIGN(fs_, S4FileSystem::Format(client_.get(), "root"));
  }

  std::unique_ptr<S4RpcServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<S4Client> client_;
  std::unique_ptr<S4FileSystem> fs_;
};

TEST_F(FsTest, CreateWriteReadFile) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "hello.txt", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("file contents")));
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, 64));
  EXPECT_EQ(StringOf(got), "file contents");
  ASSERT_OK_AND_ASSIGN(FileHandle again, fs_->Lookup(root, "hello.txt"));
  EXPECT_EQ(again, f);
}

TEST_F(FsTest, DirectoryTree) {
  ASSERT_OK_AND_ASSIGN(FileHandle dir, MakeDirs(fs_.get(), "/usr/local/bin"));
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(dir, "tool", 0755));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("#!/bin/sh")));
  ASSERT_OK_AND_ASSIGN(FileHandle resolved, ResolvePath(fs_.get(), "/usr/local/bin/tool"));
  EXPECT_EQ(resolved, f);
  ASSERT_OK_AND_ASSIGN(FileAttr attr, fs_->GetAttr(resolved));
  EXPECT_EQ(attr.type, FileType::kFile);
  EXPECT_EQ(attr.mode, 0755u);
  EXPECT_EQ(attr.size, 9u);
}

TEST_F(FsTest, RemoveAndReaddir) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(fs_->CreateFile(root, "f" + std::to_string(i), 0644).status());
  }
  ASSERT_OK(fs_->Remove(root, "f7"));
  ASSERT_OK(fs_->Remove(root, "f13"));
  ASSERT_OK_AND_ASSIGN(std::vector<DirEntry> entries, fs_->ReadDir(root));
  EXPECT_EQ(entries.size(), 18u);
  EXPECT_EQ(fs_->Lookup(root, "f7").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs_->Remove(root, "f7").code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, RenameReplacesTarget) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle a, fs_->CreateFile(root, "a", 0644));
  ASSERT_OK(fs_->WriteFile(a, 0, BytesOf("contents of a")));
  ASSERT_OK_AND_ASSIGN(FileHandle b, fs_->CreateFile(root, "b", 0644));
  (void)b;
  ASSERT_OK(fs_->Rename(root, "a", root, "b"));
  ASSERT_OK_AND_ASSIGN(FileHandle now_b, fs_->Lookup(root, "b"));
  EXPECT_EQ(now_b, a);
  EXPECT_EQ(fs_->Lookup(root, "a").status().code(), ErrorCode::kNotFound);
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(now_b, 0, 64));
  EXPECT_EQ(StringOf(got), "contents of a");
}

TEST_F(FsTest, RenameAcrossDirectories) {
  ASSERT_OK_AND_ASSIGN(FileHandle src, MakeDirs(fs_.get(), "/src"));
  ASSERT_OK_AND_ASSIGN(FileHandle dst, MakeDirs(fs_.get(), "/dst"));
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(src, "file", 0644));
  ASSERT_OK(fs_->Rename(src, "file", dst, "moved"));
  ASSERT_OK_AND_ASSIGN(FileHandle got, fs_->Lookup(dst, "moved"));
  EXPECT_EQ(got, f);
  EXPECT_EQ(fs_->Lookup(src, "file").status().code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, RmdirOnlyWhenEmpty) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle d, fs_->Mkdir(root, "dir", 0755));
  ASSERT_OK(fs_->CreateFile(d, "occupant", 0644).status());
  EXPECT_EQ(fs_->Rmdir(root, "dir").code(), ErrorCode::kFailedPrecondition);
  ASSERT_OK(fs_->Remove(d, "occupant"));
  ASSERT_OK(fs_->Rmdir(root, "dir"));
  EXPECT_EQ(fs_->Lookup(root, "dir").status().code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, Symlinks) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle l, fs_->Symlink(root, "link", "/target/path"));
  ASSERT_OK_AND_ASSIGN(std::string target, fs_->ReadLink(l));
  EXPECT_EQ(target, "/target/path");
  ASSERT_OK_AND_ASSIGN(FileAttr attr, fs_->GetAttr(l));
  EXPECT_EQ(attr.type, FileType::kSymlink);
}

TEST_F(FsTest, TruncateAndExtend) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "f", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("0123456789")));
  ASSERT_OK(fs_->SetSize(f, 4));
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, 64));
  EXPECT_EQ(StringOf(got), "0123");
}

TEST_F(FsTest, ManyFilesAcrossDirectories) {
  // A PostMark-shaped smoke test through the whole stack.
  Rng rng(11);
  std::vector<std::pair<FileHandle, Bytes>> files;
  for (int d = 0; d < 5; ++d) {
    ASSERT_OK_AND_ASSIGN(FileHandle dir, MakeDirs(fs_.get(), "/d" + std::to_string(d)));
    for (int i = 0; i < 40; ++i) {
      ASSERT_OK_AND_ASSIGN(FileHandle f,
                           fs_->CreateFile(dir, "file" + std::to_string(i), 0644));
      Bytes data = rng.RandomBytes(512 + rng.Below(8 * 1024));
      ASSERT_OK(fs_->WriteFile(f, 0, data));
      files.emplace_back(f, std::move(data));
    }
  }
  for (const auto& [f, data] : files) {
    ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(f, 0, data.size()));
    ASSERT_EQ(got, data);
  }
}

TEST_F(FsTest, FileSystemSurvivesDriveCrash) {
  ASSERT_OK_AND_ASSIGN(FileHandle dir, MakeDirs(fs_.get(), "/home/user"));
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(dir, "doc.txt", 0644));
  ASSERT_OK(fs_->WriteFile(f, 0, BytesOf("important document")));
  // NFSv2: the write already hit stable storage; no explicit sync needed.

  CrashAndRemount();
  server_ = std::make_unique<S4RpcServer>(drive_.get());
  transport_ = std::make_unique<LoopbackTransport>(server_.get(), clock_.get());
  client_ = std::make_unique<S4Client>(transport_.get(), User(100));
  ASSERT_OK_AND_ASSIGN(fs_, S4FileSystem::Mount(client_.get(), "root"));

  ASSERT_OK_AND_ASSIGN(FileHandle resolved, ResolvePath(fs_.get(), "/home/user/doc.txt"));
  ASSERT_OK_AND_ASSIGN(Bytes got, fs_->ReadFile(resolved, 0, 64));
  EXPECT_EQ(StringOf(got), "important document");
}

TEST_F(FsTest, DirCompactionKeepsEntries) {
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  // Create and delete many files so tombstones force compaction.
  for (int round = 0; round < 5; ++round) {
    std::vector<std::string> names;
    for (int i = 0; i < 30; ++i) {
      std::string name = "tmp" + std::to_string(round) + "_" + std::to_string(i);
      ASSERT_OK(fs_->CreateFile(root, name, 0644).status());
      names.push_back(name);
    }
    for (const auto& name : names) {
      ASSERT_OK(fs_->Remove(root, name));
    }
  }
  ASSERT_OK(fs_->CreateFile(root, "survivor", 0644).status());
  ASSERT_OK_AND_ASSIGN(std::vector<DirEntry> entries, fs_->ReadDir(root));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "survivor");
  // The directory stream was rewritten small.
  ASSERT_OK_AND_ASSIGN(FileHandle root2, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileAttr attr, fs_->GetAttr(root2));
  EXPECT_LT(attr.size, 1024u);
}

TEST_F(FsTest, RpcLayerChargesNetworkTime) {
  SimTime before = clock_->Now();
  ASSERT_OK_AND_ASSIGN(FileHandle root, fs_->Root());
  ASSERT_OK_AND_ASSIGN(FileHandle f, fs_->CreateFile(root, "f", 0644));
  Rng rng(1);
  Bytes big = rng.RandomBytes(1 << 20);
  ASSERT_OK(fs_->WriteFile(f, 0, big));
  SimTime elapsed = clock_->Now() - before;
  // 1MB at 12.5MB/s is at least 80ms of wire time.
  EXPECT_GT(elapsed, 80 * kMillisecond);
  EXPECT_GT(drive_->metrics().CounterValue("net.bytes_sent"), 1u << 20);
}

}  // namespace
}  // namespace s4
