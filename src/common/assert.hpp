// Lightweight always-on and debug-only check macros.
//
// Following the database-engineering convention (no exceptions on hot paths),
// precondition violations are programming errors and abort with a message.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace wt::internal {

[[noreturn]] inline void AssertFail(const char* expr, const char* file,
                                    int line, const char* msg) {
  // The process is about to abort, so the message goes straight out.
  std::fprintf(  // wt-lint: allow(raw-stderr) crash path before abort
      stderr, "wt: assertion `%s` failed at %s:%d%s%s\n", expr, file, line,
      msg[0] ? ": " : "", msg);
  std::abort();
}

}  // namespace wt::internal

/// Always-on check for cheap preconditions (bounds, non-empty, ...).
#define WT_ASSERT(cond)                                              \
  do {                                                               \
    if (!(cond)) ::wt::internal::AssertFail(#cond, __FILE__, __LINE__, ""); \
  } while (0)

/// Always-on check with an explanatory message.
#define WT_ASSERT_MSG(cond, msg)                                      \
  do {                                                                \
    if (!(cond)) ::wt::internal::AssertFail(#cond, __FILE__, __LINE__, msg); \
  } while (0)

/// Debug-only check for expensive invariants (full-structure validation).
#ifndef NDEBUG
#define WT_DASSERT(cond) WT_ASSERT(cond)
#else
#define WT_DASSERT(cond) \
  do {                   \
  } while (0)
#endif
