// Seed-corpus generator for the fuzz targets. Deterministic (fixed Rng
// seeds, no wall clock): the same binary always regenerates byte-identical
// corpora, so the committed files under tests/corpora/ can be refreshed with
//
//   make_fuzz_corpora <repo-root>/tests/corpora
//
// whenever a wire format changes, and
//
//   make_fuzz_corpora --check <repo-root>/tests/corpora
//
// exits 1 when the committed files differ from a fresh run (a wire-format
// change without regenerated seeds). Seeds are valid frames (so the fuzzer
// starts deep inside the parsers), plus truncations and bit-flips of them
// (so the error paths are seeded too).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/audit/audit_chain.h"
#include "src/audit/audit_log.h"
#include "src/fs/dir_format.h"
#include "src/journal/entry.h"
#include "src/rpc/messages.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace s4 {
namespace {

// Each base case verbatim, a truncated copy, and a bit-flipped copy, by file
// name.
using Corpus = std::map<std::string, Bytes>;

Corpus WithMutations(const std::vector<Bytes>& bases, uint64_t rng_seed) {
  Corpus corpus;
  auto add = [&corpus](Bytes data) {
    char name[32];
    std::snprintf(name, sizeof(name), "seed_%03zu.bin", corpus.size());
    corpus.emplace(name, std::move(data));
  };
  Rng rng(rng_seed);
  for (const Bytes& base : bases) {
    add(base);
    if (base.size() > 2) {
      add(Bytes(base.begin(),
                base.begin() + static_cast<long>(1 + rng.Below(base.size() - 1))));
      Bytes flipped = base;
      flipped[rng.Below(flipped.size())] ^= uint8_t(1u << rng.Below(8));
      add(std::move(flipped));
    }
  }
  return corpus;
}

std::vector<Bytes> RpcFrameBases() {
  std::vector<Bytes> bases;

  RpcRequest read;
  read.op = RpcOp::kRead;
  read.creds = Credentials{100, 7};
  read.object = 42;
  read.offset = 4096;
  read.length = 512;
  read.at = 123456789;  // time-based access variant
  bases.push_back(read.Encode());

  RpcRequest write;
  write.op = RpcOp::kWrite;
  write.creds = Credentials{100, 7};
  write.object = 42;
  write.data = BytesOf("self-securing storage keeps every version");
  bases.push_back(write.Encode());

  RpcRequest pmount;
  pmount.op = RpcOp::kPMount;
  pmount.creds = Credentials{200, 1};
  pmount.name = "vol0";
  bases.push_back(pmount.Encode());

  RpcRequest setacl;
  setacl.op = RpcOp::kSetAcl;
  setacl.creds = Credentials{100, 7};
  setacl.object = 42;
  setacl.acl_entry = AclEntry{200, 3};
  bases.push_back(setacl.Encode());

  RpcResponse ok;
  ok.code = ErrorCode::kOk;
  ok.data = BytesOf("payload");
  ok.value = 42;
  bases.push_back(ok.Encode());

  RpcResponse err;
  err.code = ErrorCode::kUnavailable;  // regression: the once-rejected code
  err.message = "device off";
  bases.push_back(err.Encode());

  RpcResponse listing;
  listing.code = ErrorCode::kOk;
  listing.partitions = {{"vol0", 42}, {"vol1", 43}};
  listing.versions = {{1000, 1}, {2000, 0}};
  bases.push_back(listing.Encode());

  RpcBatchRequest batch;
  batch.subs = {read, write, pmount};
  bases.push_back(batch.Encode());

  RpcBatchResponse bresp;
  bresp.subs = {ok, err};
  bases.push_back(bresp.Encode());

  RpcRequest stable = write;  // a write made durable in its own round trip
  stable.sync = true;
  bases.push_back(stable.Encode());

  // A file create as S4FileSystem sends it: the directory append linked to
  // the Create, which completes the record with the new id.
  RpcRequest create;
  create.op = RpcOp::kCreate;
  create.creds = Credentials{100, 7};
  create.data = BytesOf("nfs attrs");
  RpcRequest linked;
  linked.op = RpcOp::kAppend;
  linked.creds = Credentials{100, 7};
  linked.object = 42;
  linked.data = EncodeDirRecordWithoutHandle({DirRecord::Op::kAdd, FileType::kFile, 0, "new"});
  linked.link = true;
  linked.sync = true;
  RpcBatchRequest fused;
  fused.subs = {create, linked};
  bases.push_back(fused.Encode());

  // Must be rejected: the link flag on a batch's first sub-request.
  RpcBatchRequest misplaced;
  misplaced.subs = {linked, create};
  bases.push_back(misplaced.Encode());

  return bases;
}

std::vector<Bytes> JournalEntryBases() {
  std::vector<Bytes> bases;

  JournalEntry create;
  create.type = JournalEntryType::kCreate;
  create.time = 1000;
  create.new_blob = BytesOf("attrs");
  Encoder e1;
  create.EncodeTo(&e1);
  bases.push_back(e1.Take());

  JournalEntry write;
  write.type = JournalEntryType::kWrite;
  write.time = 2000;
  write.old_size = 0;
  write.new_size = 8192;
  write.blocks = {{0, kNullAddr, 111}, {1, kNullAddr, 112}};
  Encoder e2;
  write.EncodeTo(&e2);
  bases.push_back(e2.Take());

  JournalEntry trunc;
  trunc.type = JournalEntryType::kTruncate;
  trunc.time = 3000;
  trunc.old_size = 8192;
  trunc.new_size = 4096;
  trunc.blocks = {{1, 112, kNullAddr}};
  Encoder e3;
  trunc.EncodeTo(&e3);
  bases.push_back(e3.Take());

  JournalEntry ckpt;
  ckpt.type = JournalEntryType::kCheckpoint;
  ckpt.time = 4000;
  ckpt.checkpoint_addr = 777;
  ckpt.checkpoint_sectors = 3;
  Encoder e4;
  ckpt.EncodeTo(&e4);
  bases.push_back(e4.Take());

  // A whole "sector": several entries back to back, as the replayer sees it.
  Encoder seq;
  create.EncodeTo(&seq);
  write.EncodeTo(&seq);
  trunc.EncodeTo(&seq);
  ckpt.EncodeTo(&seq);
  bases.push_back(seq.Take());

  // A compaction move: one block copied, the size unchanged.
  JournalEntry move;
  move.type = JournalEntryType::kMove;
  move.time = 5000;
  move.old_size = move.new_size = 4096;
  move.blocks = {{0, 111, 913}};
  Encoder e5;
  move.EncodeTo(&e5);
  bases.push_back(e5.Take());

  return bases;
}

std::vector<Bytes> DirFormatBases() {
  std::vector<Bytes> bases;

  Bytes stream;
  auto append = [&stream](const DirRecord& r) {
    Bytes rec = EncodeDirRecord(r);
    stream.insert(stream.end(), rec.begin(), rec.end());
  };
  append({DirRecord::Op::kAdd, FileType::kFile, 10, "readme.txt"});
  bases.push_back(stream);
  append({DirRecord::Op::kAdd, FileType::kDirectory, 11, "src"});
  append({DirRecord::Op::kAdd, FileType::kFile, 12, "a.out"});
  append({DirRecord::Op::kRemove, FileType::kFile, 12, "a.out"});
  bases.push_back(stream);  // adds + a tombstone

  // A compaction-worthy stream: many adds/removes of the same name.
  Bytes churn;
  for (int i = 0; i < 12; ++i) {
    DirRecord add{DirRecord::Op::kAdd, FileType::kFile,
                  static_cast<FileHandle>(100 + i), "churn"};
    Bytes rec = EncodeDirRecord(add);
    churn.insert(churn.end(), rec.begin(), rec.end());
    DirRecord rm{DirRecord::Op::kRemove, FileType::kFile,
                 static_cast<FileHandle>(100 + i), "churn"};
    rec = EncodeDirRecord(rm);
    churn.insert(churn.end(), rec.begin(), rec.end());
  }
  bases.push_back(churn);

  return bases;
}

std::vector<Bytes> AuditChainBases() {
  std::vector<Bytes> bases;

  auto record = [](uint64_t i) {
    AuditRecord rec;
    rec.time = static_cast<SimTime>(10000 + i * 31);
    rec.client = static_cast<ClientId>(1 + i % 4);
    rec.user = static_cast<UserId>(100 + i);
    rec.op = (i % 3 == 0) ? RpcOp::kWrite : RpcOp::kRead;
    rec.object = 7 + i;
    rec.offset = i * 512;
    rec.length = 64 + i;
    rec.result = static_cast<uint8_t>(i % 2);
    rec.time_based = i % 5 == 0;
    return rec;
  };

  // Single frame from genesis.
  {
    AuditChainState state;
    Encoder enc;
    AppendChainFrame(record(0), &state, &enc);
    bases.push_back(enc.Take());
  }
  // A multi-frame chain, as the verifier walks it at mount.
  {
    AuditChainState state;
    Encoder enc;
    for (uint64_t i = 0; i < 8; ++i) {
      AppendChainFrame(record(i), &state, &enc);
    }
    bases.push_back(enc.Take());
  }
  // A chain NOT starting at genesis (frames from a challenge round mid-way
  // through the object): from-genesis scanning must reject it cleanly.
  {
    AuditChainState state;
    state.next_seq = 40;
    state.next_offset = 1337;
    state.link = 0xABCD1234;
    Encoder enc;
    for (uint64_t i = 0; i < 3; ++i) {
      AppendChainFrame(record(i), &state, &enc);
    }
    bases.push_back(enc.Take());
  }
  // A legacy (unframed) record stream, which the chained scanner must
  // classify rather than crash on and the legacy decoder must accept.
  {
    Encoder enc;
    for (uint64_t i = 0; i < 6; ++i) {
      record(i).EncodeTo(&enc);
    }
    bases.push_back(enc.Take());
  }

  return bases;
}

struct Target {
  const char* name;
  std::vector<Bytes> bases;
  uint64_t seed;
};

std::vector<Target> Targets() {
  std::vector<Target> targets;
  targets.push_back({"rpc_frame", RpcFrameBases(), 0x5345454431u});
  targets.push_back({"journal_entry", JournalEntryBases(), 0x5345454432u});
  targets.push_back({"dir_format", DirFormatBases(), 0x5345454433u});
  targets.push_back({"audit_chain", AuditChainBases(), 0x5345454434u});
  return targets;
}

int Generate(const std::filesystem::path& out_root) {
  for (const Target& t : Targets()) {
    std::filesystem::path dir = out_root / t.name;
    std::filesystem::create_directories(dir);
    for (const auto& [name, data] : WithMutations(t.bases, t.seed)) {
      std::ofstream out(dir / name, std::ios::binary);
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size()));
      S4_CHECK(out.good());
    }
    std::printf("%s: %zu base case(s)\n", t.name, t.bases.size());
  }
  return 0;
}

// Compares a fresh run with the files under `root`: every file a fresh run
// writes must be there with the same bytes, and no other seed_*.bin may be
// (checked-in crash inputs under other names are left alone).
int Check(const std::filesystem::path& root) {
  int stale = 0;
  for (const Target& t : Targets()) {
    const std::filesystem::path dir = root / t.name;
    const Corpus fresh = WithMutations(t.bases, t.seed);
    for (const auto& [name, data] : fresh) {
      std::ifstream in(dir / name, std::ios::binary);
      Bytes committed((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      if (!in.is_open() || committed != data) {
        std::fprintf(stderr, "%s/%s: %s\n", t.name, name.c_str(),
                     in.is_open() ? "differs from a fresh run" : "missing");
        ++stale;
      }
    }
    std::error_code ec;
    for (const auto& ent : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = ent.path().filename().string();
      if (name.rfind("seed_", 0) == 0 && fresh.count(name) == 0) {
        std::fprintf(stderr, "%s/%s: not written by a fresh run\n", t.name, name.c_str());
        ++stale;
      }
    }
  }
  if (stale > 0) {
    std::fprintf(stderr,
                 "%d stale corpus file(s): delete the unwritten ones, then regenerate with "
                 "make_fuzz_corpora <root>\n",
                 stale);
    return 1;
  }
  std::printf("corpora match a fresh run\n");
  return 0;
}

}  // namespace
}  // namespace s4

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) {
    return s4::Check(argv[2]);
  }
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s [--check] <corpus-root> (e.g. tests/corpora)\n",
                 argv[0]);
    return 2;
  }
  return s4::Generate(argv[1]);
}
