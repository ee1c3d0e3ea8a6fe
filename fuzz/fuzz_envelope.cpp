// Fuzz target: the versioned envelope reader (common/serialize.hpp
// VersionedEnvelope::Read) driven with the engine manifest's magic and
// version — the first thing that touches a MANIFEST at Open.
//
// Read's contract: never abort, never allocate the untrusted length up
// front, and classify every malformed input into one of the four error
// codes. The harness additionally cross-checks the classifier: whenever
// Read says kOk the payload must really match the checksum and length the
// header claimed.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/serialize.hpp"
#include "engine/manifest.hpp"
#include "fuzz_common.hpp"

bool wt_fuzz_accepted = false;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using wtrie::engine::Manifest;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  uint32_t tag = 0;
  std::string payload;
  const wt::VersionedEnvelope::ReadError err = wt::VersionedEnvelope::Read(
      in, Manifest::kMagic, Manifest::kVersion, &tag, &payload);
  wt_fuzz_accepted = (err == wt::VersionedEnvelope::ReadError::kOk);
  if (wt_fuzz_accepted) {
    // kOk promises a verified payload: the header carried the version,
    // length and FNV-1a 'Read' just vouched for. Re-derive them from the
    // raw input and abort (a fuzzer finding) on any disagreement.
    wt::EnvelopeHeader hdr;
    if (size < sizeof(hdr)) std::abort();
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.version != Manifest::kVersion) std::abort();
    if (payload.size() != hdr.payload_len) std::abort();
    if (wt::Fnv1a(payload.data(), payload.size()) != hdr.checksum) {
      std::abort();
    }
  }
  return 0;
}
