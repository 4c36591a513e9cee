// skiptrie_cli — run ad-hoc workloads against the SkipTrie from the shell.
//
//   skiptrie_cli [--bits B] [--threads N] [--ops N] [--prefill N]
//                [--space N] [--mix read|read-heavy|balanced|write-heavy]
//                [--dist uniform|zipf|clustered|sequential]
//                [--mode dcss|cas] [--seed S] [--batch N] [--validate]
//
// --batch N > 1 routes every operation through the batched API (DESIGN.md
// §3.6): each drawn op type issues N keys through one DescentCursor.
//
// Prints the workload summary (throughput + the paper's step counters) and,
// with --validate, runs the structural invariant checker afterwards.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/bitops.h"
#include "core/skiptrie.h"
#include "core/validate.h"
#include "workload/driver.h"

using namespace skiptrie;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--bits B] [--threads N] [--ops N] [--prefill N]\n"
               "          [--space N] [--mix M] [--dist D] [--mode dcss|cas]\n"
               "          [--seed S] [--batch N] [--validate]\n",
               argv0);
  std::exit(2);
}

uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const uint64_t v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  WorkloadConfig wc;
  wc.threads = 2;
  wc.ops_per_thread = 100000;
  wc.key_space = 1u << 20;
  wc.prefill = 1u << 14;
  bool validate = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--bits") {
      cfg.universe_bits = static_cast<uint32_t>(parse_u64(next(), "--bits"));
    } else if (a == "--threads") {
      wc.threads = static_cast<uint32_t>(parse_u64(next(), "--threads"));
    } else if (a == "--ops") {
      wc.ops_per_thread = parse_u64(next(), "--ops");
    } else if (a == "--prefill") {
      wc.prefill = parse_u64(next(), "--prefill");
    } else if (a == "--space") {
      wc.key_space = parse_u64(next(), "--space");
    } else if (a == "--seed") {
      wc.seed = parse_u64(next(), "--seed");
    } else if (a == "--batch") {
      wc.batch_size = static_cast<uint32_t>(parse_u64(next(), "--batch"));
    } else if (a == "--mix") {
      const std::string m = next();
      if (m == "read") wc.mix = OpMix::read_only();
      else if (m == "read-heavy") wc.mix = OpMix::read_heavy();
      else if (m == "balanced") wc.mix = OpMix::balanced();
      else if (m == "write-heavy") wc.mix = OpMix::write_heavy();
      else usage(argv[0]);
    } else if (a == "--dist") {
      const std::string d = next();
      if (d == "uniform") wc.dist = KeyDist::kUniform;
      else if (d == "zipf") wc.dist = KeyDist::kZipf;
      else if (d == "clustered") wc.dist = KeyDist::kClustered;
      else if (d == "sequential") wc.dist = KeyDist::kSequential;
      else usage(argv[0]);
    } else if (a == "--mode") {
      const std::string m = next();
      if (m == "dcss") cfg.dcss_mode = DcssMode::kDcss;
      else if (m == "cas") cfg.dcss_mode = DcssMode::kCasFallback;
      else usage(argv[0]);
    } else if (a == "--validate") {
      validate = true;
    } else {
      usage(argv[0]);
    }
  }
  if (cfg.universe_bits < 4 || cfg.universe_bits > 64) usage(argv[0]);
  const uint64_t maxk = universe_mask(cfg.universe_bits);
  if (wc.key_space == 0 || wc.key_space - 1 > maxk) wc.key_space = maxk;

  SkipTrie t(cfg);
  const WorkloadResult r = run_workload(t, wc);
  std::printf("B=%u threads=%u mode=%s dist=%s batch=%u\n",
              cfg.universe_bits, wc.threads,
              cfg.dcss_mode == DcssMode::kDcss ? "dcss" : "cas",
              key_dist_name(wc.dist), wc.batch_size);
  std::printf("%s\n", r.summary().c_str());
  std::printf("final size=%zu trie_entries=%zu\n", t.size(),
              t.trie().entry_count());

  if (validate) {
    const auto errors = validate_structure(t);
    if (errors.empty()) {
      std::printf("validate: OK\n");
    } else {
      std::printf("validate: %zu violations\n", errors.size());
      for (const auto& e : errors) std::printf("  %s\n", e.c_str());
      return 1;
    }
  }
  return 0;
}
