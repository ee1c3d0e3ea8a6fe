// One translation unit that pulls in the library's entire public surface —
// every api/, core/, engine/, storage/, io/, common/, and util/ header —
// so single-TU analyzers have something to chew on:
//
//   * clang-tidy runs over this file (via the exported compile_commands)
//     and, through HeaderFilterRegex, reports findings in every header it
//     drags in;
//   * the clang -Wthread-safety CI job gets the whole locking surface
//     analyzed even if some header were missed by the test binaries;
//   * building it in the regular (GCC) build proves all headers coexist
//     in one TU — no include-order traps, no duplicate definitions.
//
// layout_contracts.hpp also runs its static_assert audit as a side effect.

#include "api/cursor.hpp"
#include "api/result.hpp"
#include "api/sequence.hpp"
#include "common/layout_contracts.hpp"
#include "common/thread_annotations.hpp"
#include "core/batch_dedup.hpp"
#include "core/btree_sequence.hpp"
#include "core/codec.hpp"
#include "core/dynamic_wavelet_tree_fixed.hpp"
#include "core/dynamic_wavelet_trie.hpp"
#include "core/huffman_wavelet_tree.hpp"
#include "core/inverted_index.hpp"
#include "core/lex_sequence.hpp"
#include "core/naive.hpp"
#include "core/wavelet_tree.hpp"
#include "core/wavelet_trie.hpp"
#include "engine/engine.hpp"
#include "io/vfs.hpp"
#include "net/admission.hpp"
#include "net/client.hpp"
#include "net/clock.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "util/entropy.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"
#include "util/zipf.hpp"

int main() { return 0; }
