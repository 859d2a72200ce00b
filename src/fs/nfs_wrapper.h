// NfsServerWrapper: turns any FileSystemApi into a "remote NFS server" by
// charging the network model for each operation's request and reply.
//
// Used for:
//   - the S4-enhanced NFS server configuration (Figure 1b): the NFS-to-S4
//     translation runs next to the drive, so only the NFS operation itself
//     crosses the wire;
//   - the FFS-like / ext2-like baseline NFS servers of Figures 3-4.
#ifndef S4_SRC_FS_NFS_WRAPPER_H_
#define S4_SRC_FS_NFS_WRAPPER_H_

#include "src/fs/file_system.h"
#include "src/sim/net_model.h"
#include "src/sim/sim_clock.h"

namespace s4 {

class NfsServerWrapper : public FileSystemApi {
 public:
  NfsServerWrapper(FileSystemApi* backend, SimClock* clock, NetModel model = NetModel())
      : backend_(backend), clock_(clock), model_(model) {}

  Result<FileHandle> Root() override {
    Charge(64, 64);
    return backend_->Root();
  }
  Result<FileHandle> Lookup(FileHandle dir, const std::string& name) override {
    Charge(64 + name.size(), 96);
    return backend_->Lookup(dir, name);
  }
  Result<FileHandle> CreateFile(FileHandle dir, const std::string& name,
                                uint32_t mode) override {
    Charge(96 + name.size(), 128);
    return backend_->CreateFile(dir, name, mode);
  }
  Result<FileHandle> Mkdir(FileHandle dir, const std::string& name, uint32_t mode) override {
    Charge(96 + name.size(), 128);
    return backend_->Mkdir(dir, name, mode);
  }
  Status Remove(FileHandle dir, const std::string& name) override {
    Charge(64 + name.size(), 64);
    return backend_->Remove(dir, name);
  }
  Status Rmdir(FileHandle dir, const std::string& name) override {
    Charge(64 + name.size(), 64);
    return backend_->Rmdir(dir, name);
  }
  Status Rename(FileHandle from_dir, const std::string& from_name, FileHandle to_dir,
                const std::string& to_name) override {
    Charge(96 + from_name.size() + to_name.size(), 64);
    return backend_->Rename(from_dir, from_name, to_dir, to_name);
  }
  Result<Bytes> ReadFile(FileHandle file, uint64_t offset, uint64_t length) override {
    // NFSv2 caps transfers; the evaluation used 4KB read/write sizes.
    Charge(64, 96 + length);
    return backend_->ReadFile(file, offset, length);
  }
  Status WriteFile(FileHandle file, uint64_t offset, ByteSpan data) override {
    Charge(96 + data.size(), 96);
    return backend_->WriteFile(file, offset, data);
  }
  Result<FileAttr> GetAttr(FileHandle file) override {
    Charge(64, 128);
    return backend_->GetAttr(file);
  }
  Status SetSize(FileHandle file, uint64_t size) override {
    Charge(96, 96);
    return backend_->SetSize(file, size);
  }
  Result<std::vector<DirEntry>> ReadDir(FileHandle dir) override {
    auto r = backend_->ReadDir(dir);
    Charge(64, 64 + (r.ok() ? r->size() * 32 : 0));
    return r;
  }
  Result<FileHandle> Symlink(FileHandle dir, const std::string& name,
                             const std::string& target) override {
    Charge(96 + name.size() + target.size(), 128);
    return backend_->Symlink(dir, name, target);
  }
  Result<std::string> ReadLink(FileHandle link) override {
    Charge(64, 128);
    return backend_->ReadLink(link);
  }

 private:
  void Charge(uint64_t request_bytes, uint64_t reply_bytes) {
    clock_->Advance(model_.TransferCost(request_bytes));
    clock_->Advance(model_.TransferCost(reply_bytes));
  }

  FileSystemApi* backend_;
  SimClock* clock_;
  NetModel model_;
};

}  // namespace s4

#endif  // S4_SRC_FS_NFS_WRAPPER_H_
