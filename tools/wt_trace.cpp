// wt_trace — span-trace export CLI (DESIGN.md #13).
//
//   wt_trace <trace.bin>                  convert a saved binary snapshot
//                                         to Chrome/Perfetto trace_event
//                                         JSON on stdout
//   wt_trace --port <port>                fetch a live daemon's kTrace
//                                         snapshot and convert it
//   wt_trace --validate <trace.bin>       structural audit instead of
//   wt_trace --validate --port <port>     conversion (see below)
//   ... --save <trace.bin>                also write the raw snapshot
//                                         bytes (fetch modes only)
//
// The JSON output loads directly into chrome://tracing or
// https://ui.perfetto.dev: begin/end slots become "B"/"E" duration slices
// nested by timestamp on their thread's track, instants become "i" marks,
// and the dotted span name splits into category ("engine", "wal", "pager",
// "serving") and slice name. Span/parent ids and the argument word ride
// in "args" so a click on any slice shows the linkage wt_top's slow-pane
// join uses.
//
// --validate runs ValidateTraceSnapshot (obs/trace.hpp) — monotone
// timestamps, no duplicate begin/end per span id, matched halves agree on
// name and thread, every compaction parented under a freeze or tier-merge
// — and prints a per-name event census. Exit codes: 0 valid, 1 invalid or
// unreadable, 2 usage. The CI daemon smoke validates a live daemon's
// snapshot with it, so a CI failure reproduces locally from the .bin file.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

#if defined(__linux__)
#include "net/client.hpp"
#endif

namespace {

bool ReadFileBytes(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return false;
  const std::streamoff size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  in.read(out->data(), size);
  return in.gcount() == size;
}

#if defined(__linux__)
bool FetchTrace(uint16_t port, std::string* out) {
  wtrie::Result<wt::net::Client> c = wt::net::Client::Connect(port);
  if (!c.ok()) {
    std::fprintf(stderr, "cannot connect to port %u: %s\n", port,
                 c.status().message());
    return false;
  }
  wtrie::Result<wt::net::Frame> f =
      c->Call(wt::net::MsgType::kTrace, /*request_id=*/1, /*deadline_ms=*/0,
              "");
  if (!f.ok()) {
    std::fprintf(stderr, "kTrace call failed: %s\n", f.status().message());
    return false;
  }
  wt::net::WireStatus st{};
  wt::net::PayloadReader r("", 0);
  if (!wt::net::Client::DecodeStatus(*f, &st, &r) ||
      st != wt::net::WireStatus::kOk || !r.Str(out)) {
    std::fprintf(stderr, "malformed kTrace reply\n");
    return false;
  }
  return true;
}
#endif

/// Splits "engine.freeze" into category "engine" + slice name "freeze".
void SplitName(wt::obs::TraceName name, std::string* cat, std::string* leaf) {
  const std::string full = wt::obs::TraceNameString(name);
  const size_t dot = full.find('.');
  *cat = full.substr(0, dot);
  *leaf = dot == std::string::npos ? full : full.substr(dot + 1);
}

int EmitJson(const wt::obs::TraceSnapshot& snap, std::FILE* out) {
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const wt::obs::TraceWireEvent& e : snap.events) {
    std::string cat, leaf;
    SplitName(static_cast<wt::obs::TraceName>(e.name), &cat, &leaf);
    const char* ph = "i";
    if (e.kind == static_cast<uint8_t>(wt::obs::TraceKind::kBegin)) ph = "B";
    if (e.kind == static_cast<uint8_t>(wt::obs::TraceKind::kEnd)) ph = "E";
    if (!first) std::fputs(",", out);
    first = false;
    // trace_event timestamps are microseconds; keep nanosecond precision
    // with a fractional part.
    std::fprintf(out,
                 "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                 "\"ts\":%" PRIu64 ".%03u,\"pid\":1,\"tid\":%u",
                 leaf.c_str(), cat.c_str(), ph, e.ts_ns / 1000,
                 static_cast<unsigned>(e.ts_ns % 1000), e.tid);
    if (ph[0] == 'i') std::fputs(",\"s\":\"t\"", out);
    std::fprintf(out,
                 ",\"args\":{\"span_id\":\"%" PRIx64
                 "\",\"parent_id\":\"%" PRIx64 "\",\"arg\":%" PRIu64 "}}",
                 e.span_id, e.parent_id, e.arg);
  }
  std::fprintf(out,
               "\n],\"otherData\":{\"dropped_events\":\"%" PRIu64 "\"}}\n",
               snap.dropped);
  return 0;
}

int Validate(const wt::obs::TraceSnapshot& snap) {
  uint64_t by_name[wt::obs::kTraceNameCount] = {};
  for (const wt::obs::TraceWireEvent& e : snap.events) {
    if (e.name < wt::obs::kTraceNameCount) by_name[e.name]++;
  }
  std::printf("events   %zu\n", snap.events.size());
  std::printf("dropped  %" PRIu64 "\n", snap.dropped);
  for (uint8_t n = 0; n < wt::obs::kTraceNameCount; ++n) {
    if (by_name[n] == 0) continue;
    std::printf("  %-24s %" PRIu64 "\n",
                wt::obs::TraceNameString(static_cast<wt::obs::TraceName>(n)),
                by_name[n]);
  }
  std::string err;
  if (!wt::obs::ValidateTraceSnapshot(snap, &err)) {
    std::fprintf(stderr, "INVALID: %s\n", err.c_str());
    return 1;
  }
  std::printf("valid\n");
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--validate] <trace.bin>\n"
               "       %s [--validate] --port <port> [--save <trace.bin>]\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool validate = false;
  const char* file = nullptr;
  const char* save = nullptr;
  long port = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = std::strtol(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save = argv[++i];
    } else if (std::strncmp(argv[i], "--save=", 7) == 0) {
      save = argv[i] + 7;
    } else if (argv[i][0] != '-' && file == nullptr) {
      file = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if ((file == nullptr) == (port < 0)) return Usage(argv[0]);

  std::string bytes;
  if (file != nullptr) {
    if (!ReadFileBytes(file, &bytes)) {
      std::fprintf(stderr, "%s: unreadable\n", file);
      return 1;
    }
  } else {
#if defined(__linux__)
    if (port <= 0 || port > 65535 ||
        !FetchTrace(static_cast<uint16_t>(port), &bytes)) {
      return 1;
    }
#else
    std::fprintf(stderr, "--port needs the Linux serving layer\n");
    return 2;
#endif
  }
  if (save != nullptr) {
    std::ofstream out(save, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      std::fprintf(stderr, "%s: write failed\n", save);
      return 1;
    }
  }

  wt::obs::TraceSnapshot snap;
  if (!wt::obs::ParseTraceSnapshot(bytes.data(), bytes.size(), &snap)) {
    std::fprintf(stderr, "trace snapshot failed to parse\n");
    return 1;
  }
  if (validate) return Validate(snap);
  return EmitJson(snap, stdout);
}
