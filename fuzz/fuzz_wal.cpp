// Fuzz target: the WAL record parser (engine/wal.hpp ParseWalBytes).
//
// ParseWalBytes is the exact function recovery runs over whatever bytes a
// crash left in a WAL generation, so its contract is the harness's assertion
// budget: never abort, never read outside [data, data+size), stop cleanly
// at the first torn/corrupt record. The harness walks every parsed record
// and touches every bit length so ASan sees any out-of-bounds backing
// buffer a parser bug let through.

#include <cstddef>
#include <cstdint>

#include "engine/wal.hpp"
#include "fuzz_common.hpp"

bool wt_fuzz_accepted = false;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::vector<wtrie::engine::WalRecord> records =
      wtrie::engine::ParseWalBytes(reinterpret_cast<const char*>(data), size);
  // "Accepted" = at least one intact record: a valid seed log must keep
  // replaying; a checksum-broken one must parse to nothing.
  wt_fuzz_accepted = !records.empty();
  uint64_t sink = 0;
  for (const wtrie::engine::WalRecord& r : records) {
    sink += r.first;
    for (const wt::BitString& s : r.strings) {
      sink += s.size();
      if (s.size() > 0) sink += s.Get(s.size() - 1) ? 1 : 0;
    }
  }
  // Keep the reads observable so the loop cannot be optimized away.
  volatile uint64_t keep = sink;
  (void)keep;
  return 0;
}
