// ampc_lint — repo-invariant static analysis for the AMPC codebase.
//
// The repository's headline contract is that every simulated cost and
// every algorithm output is a pure function of (input, seed, config):
// the determinism matrix (tests/sharding_determinism_test.cc) and every
// BENCH_*.json gate bit-identical outputs across machines x threads x
// faults. Those invariants were enforced only dynamically — a stray
// rand() or an uncharged ShardedStore access in src/core/ silently
// corrupts the cost model until a bench happens to notice. ampc_lint
// enforces them statically, at build time, on every PR.
//
// The tool is a self-contained tokenizing scanner (no libclang): it
// strips comments/strings/preprocessor noise, builds the #include graph
// of the tree, and walks the token stream of every file under src/,
// tools/, bench/, and tests/ checking the rules below. Diagnostics are
// clang-style `file:line: error[rule-id]: message` plus a JSON report.
//
// Rules (see Rules() for the one-line summaries):
//
//   determinism —
//     det-rand            banned nondeterminism primitives: rand(),
//                         srand(), std::random_device, std::mt19937,
//                         time(), clock(), gettimeofday(). All
//                         randomness must flow through common/random.h
//                         (seeded Mix64/Hash64/Rng).
//     det-wallclock       std::chrono (and the *_clock types) outside
//                         common/timer.h and bench/ wall-clock call
//                         sites. Simulated time must come from the cost
//                         model, never the host clock.
//     det-unordered-iter  range-iteration over std::unordered_map/set
//                         in output-affecting paths (src/core/,
//                         src/graph/, src/baselines/, and headers
//                         reachable only from them): hash-table order
//                         is libstdc++-version- and seed-dependent.
//     det-ptr-key         std::map/std::set keyed by a pointer type:
//                         iteration order follows the allocator.
//
//   cost-model purity (output-affecting paths only) —
//     core-store-direct   calling ShardedStore/kv::Store data methods
//                         (Lookup/Put/Contains/RecordBytes) directly
//                         instead of going through the charged
//                         MachineContext entrypoints (Lookup,
//                         LookupManyAsync, and DriveLookupPipelined
//                         over it) or the Cluster phase runners; and
//                         taking a machine's query cache with
//                         MachineCaches::ForMachine or
//                         ShardedStore::QueryCacheFor instead of
//                         MachineContext::DerivedCache / Lookup, which
//                         hand out none in a pull round (the caches
//                         take no lock).
//     core-make-store     constructing kv::Placement / ShardMap /
//                         ShardedStore directly instead of minting
//                         stores via Cluster::MakeStore, which is the
//                         only path that attaches caches, replicas and
//                         the shared shard map.
//
//   conventions —
//     metric-zero-guard   a Metrics::Add of a non-grandfathered counter
//                         outside any conditional: new (event/feature)
//                         counters must be zero-rate-guarded so a
//                         zero-rate config's metric output is
//                         byte-identical to a build without the feature
//                         (the PR 9 convention).
//     config-off-doc      a ClusterConfig knob whose doc comment does
//                         not document its off-state (bit-identical /
//                         disables / historical baseline wording).
//     config-dump         a ClusterConfig knob missing from the
//                         `ampc_cli --lint-config` dump — keeps the
//                         mechanically checkable knob inventory in sync
//                         with the struct.
//     bench-gate          a bench/micro_*.cc without a failing gate
//                         (`return 1` / `exit(1)` path): every
//                         microbench must be able to fail CI when its
//                         invariant regresses.
//     bad-suppression     an ampc-lint annotation that is malformed or
//                         lacks the mandatory justification.
//
// Suppression: any rule can be silenced at a specific site with an
// allow annotation naming the rule id, a colon, and a justification —
// for example:
//
//     // ampc-lint: allow(det-rand): replaying a recorded entropy trace
//
// either trailing on the offending line or in the comment block
// directly above it (a standalone annotation anchors to the next code
// line). The justification is mandatory; an empty one is itself an error
// (bad-suppression). Suppressed findings still appear in the JSON
// report, marked suppressed, so exceptions stay auditable.
#pragma once

#include <string>
#include <vector>

namespace ampc::lint {

/// One finding. `suppressed` findings don't fail the run but are kept
/// in the report so every `allow` stays auditable.
struct Diagnostic {
  std::string file;  // path relative to the scan root
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
  bool suppressed = false;
  std::string justification;  // of the suppression, when suppressed

  /// Clang-style one-line rendering: `file:line: error[rule]: message`.
  std::string ToString() const;
};

/// Scanner configuration.
struct Options {
  /// Tree root. Scanning and reporting are relative to this directory.
  std::string root = ".";
  /// Relative paths (files or directories) to scan. Empty = the default
  /// roots: src, tools, bench, tests. Directories named "lint_fixtures"
  /// are always skipped — they hold intentional violations.
  std::vector<std::string> paths;
};

/// A rule's identity for listings and the JSON report.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule the scanner knows, in reporting order.
const std::vector<RuleInfo>& Rules();

/// Scan result.
struct Report {
  std::vector<Diagnostic> diagnostics;  // file order, then line order
  int files_scanned = 0;
  int include_edges = 0;  // resolved in-tree #include edges

  /// Unsuppressed findings — the count that fails the build.
  int errors() const;

  /// The machine-readable report (rule inventory, per-rule counts, and
  /// every diagnostic with its suppression state).
  std::string ToJson() const;
};

/// Runs every rule over the tree. Never throws; unreadable files are
/// skipped (a missing tree yields an empty report).
Report Run(const Options& options);

}  // namespace ampc::lint
