// Crash-safety of the serving daemon (DESIGN.md #11): SIGKILL the real
// example_serving_daemon process mid-ingest and prove that every append
// the server ACKNOWLEDGED over the wire survives reopening the store —
// the wire ack inherits the WAL's crash-atomic batch guarantee.
//
// This is an end-to-end test of the real binary (fork/exec, --port-file
// handshake), not an in-process simulation: the kill arrives at a random
// moment relative to socket writes, WAL appends, and background freezes.
// It needs the daemon binary: CMake sets WT_DAEMON_BIN in this test's
// ctest environment whenever the examples are built, so tier-1 runs it.
// Run by hand without the variable, the test SKIPs. WT_INSPECT_BIN
// additionally runs the offline wt_inspect --fsck audit over the
// survivor directory.
#include <gtest/gtest.h>

#if !defined(__linux__)
TEST(ServingCrashTest, RequiresLinux) { GTEST_SKIP() << "epoll server"; }
#else

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/client.hpp"

namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() /
           ("wt_serving_crash_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Spawns the daemon, waits for the port file, returns (pid, port).
std::pair<pid_t, uint16_t> SpawnDaemon(const std::string& bin,
                                       const fs::path& dir,
                                       const fs::path& port_file) {
  const std::string dir_flag = "--dir=" + dir.string();
  const std::string port_flag = "--port-file=" + port_file.string();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: exec the daemon on an ephemeral port, WAL-synced so an ack
    // means bytes reached the disk, not just the page cache.
    ::execl(bin.c_str(), bin.c_str(), dir_flag.c_str(), "--port=0",
            port_flag.c_str(), "--sync-wal", "--memtable-limit=512",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Parent: the daemon publishes its port via tmp+rename, so a readable
  // file is always a complete number.
  for (int spin = 0; spin < 20000; ++spin) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port != 0) return {pid, static_cast<uint16_t>(port)};
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return {pid, 0};
}

}  // namespace

TEST(ServingCrashTest, AckedAppendsSurviveSigkill) {
  const char* bin = std::getenv("WT_DAEMON_BIN");
  if (bin == nullptr) {
    GTEST_SKIP() << "set WT_DAEMON_BIN to the example_serving_daemon binary";
  }
  TempDir dir("acked");
  const fs::path store = dir.path / "store";
  const fs::path port_file = dir.path / "port";
  auto [pid, port] = SpawnDaemon(bin, store, port_file);
  ASSERT_GT(pid, 0);
  ASSERT_NE(port, 0) << "daemon never published its port";

  // Concurrent writers streaming appends; each records the values whose
  // acks it RECEIVED. The SIGKILL lands while all of them are mid-flight.
  constexpr int kWriters = 3;
  std::vector<std::vector<std::string>> acked(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w, port = port] {
      auto client = wt::net::Client::Connect(port);
      if (!client.ok()) return;
      for (uint64_t i = 0;; ++i) {
        std::vector<std::string> vals;
        for (int j = 0; j < 4; ++j) {
          vals.push_back("writer" + std::to_string(w) + "/batch" +
                         std::to_string(i) + "/v" + std::to_string(j));
        }
        auto resp = client->Call(wt::net::MsgType::kAppend, i, 0,
                                 wt::net::Client::StringsPayload(vals));
        if (!resp.ok()) return;  // daemon died mid-call: batch not acked
        wt::net::WireStatus st;
        wt::net::PayloadReader r(nullptr, 0);
        if (!wt::net::Client::DecodeStatus(*resp, &st, &r) ||
            st != wt::net::WireStatus::kOk) {
          return;
        }
        for (std::string& v : vals) acked[w].push_back(std::move(v));
      }
    });
  }

  // Let ingest run, then kill without ceremony.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  for (auto& t : writers) t.join();

  size_t total_acked = 0;
  for (const auto& a : acked) total_acked += a.size();
  ASSERT_GT(total_acked, 0u) << "no acks before the kill: test proved nothing";

  // Reopen the directory: WAL replay must restore every acknowledged
  // value (the ack was sent only after the crash-atomic WAL append).
  auto reopened = wtrie::Engine<wt::ByteCodec>::Open({.dir = store.string()});
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  // Snapshots cover the frozen prefix; freeze the replayed WAL tail first.
  ASSERT_TRUE((*reopened)->Flush().ok());
  auto snap = (*reopened)->GetSnapshot();
  for (int w = 0; w < kWriters; ++w) {
    for (const std::string& v : acked[w]) {
      auto rank = snap.Rank(v, snap.size());
      ASSERT_TRUE(rank.ok());
      EXPECT_EQ(*rank, 1u) << "acked value lost after SIGKILL: " << v;
    }
  }

  // Offline audit: the survivor directory must be internally consistent.
  if (const char* inspect = std::getenv("WT_INSPECT_BIN")) {
    const std::string cmd =
        std::string(inspect) + " --fsck " + store.string();
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "wt_inspect --fsck failed";
  }
}

#endif  // __linux__
