// Test helper: round-trips one succinct component through a v5 image
// (storage/image.hpp), the library's only persisted format.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "core/wavelet_trie.hpp"
#include "storage/image.hpp"
#include "storage/pager.hpp"

namespace wt::test_util {

/// The image bytes of `x`. A WaveletTrie writes its own sections; any
/// other component is wrapped in one section (tag 1).
template <typename T>
std::string ImageBytes(const T& x) {
  storage::ImageWriter w;
  if constexpr (std::is_same_v<T, WaveletTrie>) {
    x.SaveImage(w);
  } else {
    w.BeginSection(1);
    x.SaveImage(w);
    w.EndSection();
  }
  return w.Finish(/*codec_id=*/0, /*n=*/0, /*encoded_bits=*/0);
}

/// An 8-aligned heap blob holding `bytes`.
inline std::shared_ptr<const storage::Blob> BlobOf(const std::string& bytes) {
  auto blob = std::make_shared<storage::HeapBlob>(bytes.size());
  std::memcpy(blob->mutable_data(), bytes.data(), bytes.size());
  return blob;
}

/// Borrows a T back out of `blob` (written by ImageBytes); false when the
/// image does not parse or load. The blob must outlive *out.
template <typename T>
bool LoadFromImage(const storage::Blob& blob, T* out,
                   storage::VerifyMode verify = storage::VerifyMode::kFull) {
  storage::ImageReader r;
  if (storage::ImageReader::Parse(blob.data(), blob.size(), verify, &r) !=
      storage::ImageError::kOk) {
    return false;
  }
  if constexpr (!std::is_same_v<T, WaveletTrie>) {
    if (!r.OpenSection(1)) return false;
  }
  return out->LoadImage(r);
}

}  // namespace wt::test_util
