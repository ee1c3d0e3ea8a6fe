// Fuzz target: the v5 image parse path — storage/image.hpp
// ImageReader::Parse plus core/wavelet_trie.hpp WaveletTrie::LoadImage
// borrowing a trie out of the blob. The image is the one persisted format:
// engine segments and Sequence::Save files both parse through here.
//
// The interesting surface is VerifyMode::kNone: the engine's pager opens
// mmapped segments that way (hash already checked at save time), relying
// on Parse's structural bounds checks and LoadImage's per-section
// consistency checks alone to keep arbitrary bytes from driving a read
// outside the blob. So the harness runs the whole load under kNone —
// every failure must come back as a clean false, and ASan must stay
// silent. kFull supplies the accepted/rejected verdict for the corpus
// regression: a valid seed must still load, a byte-flipped one must die
// at the checksum.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/wavelet_trie.hpp"
#include "fuzz_common.hpp"
#include "storage/image.hpp"

bool wt_fuzz_accepted = false;

namespace {

bool TryLoad(const uint8_t* base, size_t size, wt::storage::VerifyMode mode) {
  wt::storage::ImageReader r;
  if (wt::storage::ImageReader::Parse(base, size, mode, &r) !=
      wt::storage::ImageError::kOk) {
    return false;
  }
  wt::WaveletTrie trie;
  if (!trie.LoadImage(r)) return false;
  // Touch the borrowed trie's summary stats — cheap reads over every
  // section ASan can police. (Queries stay out of scope: post-checksum
  // content is trusted by design, and kNone skips the checksum.)
  volatile size_t keep = trie.size() + trie.SizeInBits();
  (void)keep;
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Parse requires an 8-aligned base (mmap pages and u64 heap buffers both
  // are); fuzzer inputs are not, so stage through an aligned copy.
  std::vector<uint64_t> aligned((size + 7) / 8);
  if (size > 0) std::memcpy(aligned.data(), data, size);
  const uint8_t* base = reinterpret_cast<const uint8_t*>(aligned.data());

  wt_fuzz_accepted = TryLoad(base, size, wt::storage::VerifyMode::kFull);
  (void)TryLoad(base, size, wt::storage::VerifyMode::kNone);
  return 0;
}
