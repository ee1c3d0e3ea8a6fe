// Quickstart: the unified indexed-sequence-of-strings API in five minutes.
//
// Build & run:   cmake -B build && cmake --build build
//                ./build/example_quickstart
//
// The sequence model (paper Section 1): a list of strings where order and
// multiplicity matter, supporting Access / Rank / Select plus the prefix
// variants, in compressed space, with optional dynamic updates. One facade,
// three policies (src/api/sequence.hpp):
//
//   wtrie::Sequence<wtrie::Static>      — immutable, smallest (Theorem 3.7)
//   wtrie::Sequence<wtrie::AppendOnly>  — streaming ingest (Theorem 4.3)
//   wtrie::Sequence<wtrie::Dynamic>     — Insert/Delete (Theorem 4.4)
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "api/sequence.hpp"

int main() {
  // ------------------------------------------------ static construction
  // Values are encoded into prefix-free binary strings by the codec
  // (ByteCodec by default), and built through the word-parallel bulk path.
  const std::vector<std::string> log = {
      "api/users", "api/orders", "web/home",   "api/users",
      "web/cart",  "api/users",  "api/orders", "web/home",
  };
  wtrie::Sequence<wtrie::Static> seq(log);

  std::printf("sequence length: %zu, distinct strings: %zu\n", seq.size(),
              seq.NumDistinct());

  // Access: the string at a position. Out-of-range positions return an
  // error instead of aborting — the public boundary is bounds-checked.
  std::printf("Access(3) = %s\n", seq.Access(3).value().c_str());
  if (auto bad = seq.Access(999); !bad.ok()) {
    std::printf("Access(999) -> error: %s\n", bad.status().message());
  }

  // Rank: occurrences of a string before a position.
  std::printf("Rank(\"api/users\", 6) = %zu\n",
              seq.Rank("api/users", 6).value());

  // Select: position of the k-th occurrence (0-based); kNotFound past the
  // last occurrence.
  if (auto pos = seq.Select("api/users", 2); pos.ok()) {
    std::printf("Select(\"api/users\", 2) = %zu\n", *pos);
  }

  // Prefix operations: count / locate strings by shared prefix.
  std::printf("RankPrefix(\"api/\", 8) = %zu\n",
              seq.RankPrefix("api/", 8).value());
  if (auto pos = seq.SelectPrefix("api/", 3); pos.ok()) {
    std::printf("SelectPrefix(\"api/\", 3) = %zu\n", *pos);
  }

  // Range analytics (paper Section 5), as cursors.
  std::printf("distinct values in [2, 7):\n");
  auto distinct = seq.Distinct(2, 7).value();
  while (distinct.Next()) {
    std::printf("  %-12s x%zu\n", distinct.value().c_str(), distinct.count());
  }
  if (auto m = seq.Majority(0, 6); m.ok()) {
    std::printf("majority of [0, 6): %s (%zu times)\n", m->first.c_str(),
                m->second);
  }
  auto scan = seq.Scan(0, 3).value();
  while (scan.Next()) {
    std::printf("scan[%zu] = %s\n", scan.position(), scan.value().c_str());
  }

  // ------------------------------------------------ lifecycle: Thaw/Freeze
  // A static sequence re-opens under a mutable policy (rebuilt from its
  // leaf dictionary), takes updates, and freezes back into the compact
  // static form.
  auto dyn = seq.Thaw<wtrie::Dynamic>();
  (void)dyn.Insert("api/payments", 4);  // brand new string: alphabet grows
  std::printf("after insert: distinct = %zu, Access(4) = %s\n",
              dyn.NumDistinct(), dyn.Access(4).value().c_str());
  (void)dyn.Delete(4);  // last occurrence: the alphabet shrinks back
  std::printf("after delete: distinct = %zu, size = %zu\n", dyn.NumDistinct(),
              dyn.size());
  wtrie::Sequence<wtrie::Static> frozen = dyn.Freeze();

  // ------------------------------------------------ persistence
  // Save/Load work for every policy (mutable ones persist through their
  // canonical static image); corrupt bytes are a recoverable error.
  std::stringstream file;
  if (frozen.Save(file).ok()) {
    auto loaded = wtrie::Sequence<wtrie::Static>::Load(file);
    std::printf("reloaded: size = %zu, Access(0) = %s\n", loaded->size(),
                loaded->Access(0).value().c_str());
  }
  std::stringstream garbage("not a wtrie stream");
  if (auto bad = wtrie::Sequence<wtrie::Static>::Load(garbage); !bad.ok()) {
    std::printf("loading garbage -> error: %s\n", bad.status().message());
  }

  // Space accounting.
  std::printf("static: %zu bits; thawed dynamic: %zu bits\n",
              frozen.SizeInBits(), dyn.SizeInBits());
  return 0;
}
