// MUST NOT COMPILE (ctest WILL_FAIL): a sequence policy without the
// capability flags (kMutable/kFullyDynamic/...) does not model
// SequencePolicy — the facade's compile-time gates depend on them.
#include "common/layout_contracts.hpp"
#include "core/wavelet_trie.hpp"

namespace {

struct FlaglessPolicy {
  using Trie = wt::WaveletTrie;
  // no kMutable / kFullyDynamic / kName
};

static_assert(wt::contracts::SequencePolicy<FlaglessPolicy>);

}  // namespace

int main() { return 0; }
