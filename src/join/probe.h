#ifndef AQP_JOIN_PROBE_H_
#define AQP_JOIN_PROBE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "join/exact_index.h"
#include "join/join_types.h"
#include "join/qgram_index.h"
#include "storage/tuple_store.h"
#include "text/gram_order.h"
#include "text/qgram.h"

namespace aqp {
namespace join {

/// \brief Knobs for the approximate probe (ablation switches; the
/// defaults are the paper's algorithm).
struct ApproxProbeOptions {
  /// §2.2's optimization: only the first g-k+1 grams may *insert*
  /// candidates into T(t); the remaining k-1 grams only increment
  /// counters of existing candidates. Sound because a tuple sharing
  /// none of the first g-k+1 grams can share at most k-1 < k grams.
  bool insert_phase_optimization = true;
  /// Process probe grams in ascending posting-frequency order
  /// ("reverse frequency order"), so the insert phase consumes the
  /// rarest — shortest — posting lists and T(t) stays small.
  bool rare_grams_first = true;
};

/// \brief Bounds of the filtered kernel for one probe gram count g,
/// under the scratch's (measure, threshold). Every entry is the same
/// function at the same arguments the kernel would otherwise evaluate
/// per probe, so memoizing them changes no decision. All are filled
/// when the bounds are first used, so the posting loop only reads them.
struct ProbeBounds {
  bool ready = false;
  /// LengthBandFor(measure, g, threshold).
  GramCountBand band;
  /// PrefixLengthFor(measure, g, threshold): grams that may insert.
  size_t insert_end = 0;
  /// MinOverlapForThreshold(measure, g, threshold).
  size_t k = 0;
  /// MinPairOverlap(measure, g, s, threshold) per stored gram count s
  /// from 0 to the band's end (UINT32_MAX when even full overlap falls
  /// short, as it does outside the band): 4 B per feasible gram count.
  std::vector<uint32_t> required;
  /// The same for every s past the table: UINT32_MAX past a bounded
  /// band. Only the overlap coefficient's band is unbounded, and its
  /// table ends at s = g, past which min(g, s) = g and the bound no
  /// longer depends on s.
  uint32_t required_beyond = 0;

  /// MinPairOverlap for a stored gram count `s`.
  uint32_t RequiredOverlap(size_t s) const {
    return s < required.size() ? required[s] : required_beyond;
  }
};

/// \brief Reusable probe working memory.
///
/// One approximate probe needs a ranked gram list (unfiltered kernel;
/// the filtered kernel reads a precomputed ordered prefix), the T(t)
/// candidate counter table, and the filtered kernel's bounds; all are
/// kept (capacity and contents) when the caller passes the same
/// scratch to every probe, so steady-state probing neither hashes nor
/// allocates. Owned by one single-threaded prober (e.g. a
/// HybridJoinCore).
///
/// T(t) is dense: one counter per stored tuple of the probed index, so
/// it costs 4 B per stored tuple and never more than the largest index
/// the scratch has probed. Between probes every counter is 0.
struct ApproxProbeScratch {
  /// One `rank << 32 | gram position` key per probe gram. The
  /// unfiltered kernel ranks by live posting frequency ("reverse
  /// frequency order"); the probe entry point without an ordered prefix
  /// ranks a filtered probe by the index's gram order
  /// (text::OrderedPrefixInto) here.
  std::vector<uint64_t> ranked;
  /// The ordered prefix computed by that entry point.
  std::vector<uint32_t> prefix;
  /// The filtered kernel's posting lists of the probe's ordered prefix
  /// (null for a gram the index does not hold), resolved as one batch
  /// before the scan.
  std::vector<const std::vector<GramPosting>*> lists;
  /// T(t), indexed by stored TupleId: 0 = not a candidate, n = n shared
  /// grams seen so far (a membership mark of 1 under prefix filtering),
  /// or the rejected sentinel of a filtered kernel without prefix
  /// filtering.
  std::vector<uint32_t> counters;
  /// Ids whose counter the probe made nonzero, in discovery order. The
  /// probe zeroes exactly these counters before it returns and keeps the
  /// list until the next probe begins. Under prefix filtering it holds
  /// exactly the candidates.
  std::vector<storage::TupleId> touched;
  /// Filtered kernel bounds per probe gram count, valid for
  /// (bounds_measure, bounds_threshold) and cleared only when a probe
  /// brings another predicate.
  std::vector<ProbeBounds> bounds;
  text::SimilarityMeasure bounds_measure = text::SimilarityMeasure::kJaccard;
  double bounds_threshold = -1.0;

  /// Heap bytes held (capacities), for memory accounting.
  size_t ApproximateMemoryUsage() const;
};

/// \brief Work counters for one approximate probe, feeding the Table 1
/// cost model.
struct ApproxProbeStats {
  uint64_t grams = 0;                ///< |q(t)| of the probe
  uint64_t postings_scanned = 0;     ///< Σ posting-list lengths touched
  uint64_t candidates = 0;           ///< |T(t)| (positionally rejected
                                     ///< tuples excluded)
  uint64_t verified = 0;             ///< candidates submitted to
                                     ///< verification (merges the
                                     ///< bounded intersection
                                     ///< abandons included)
  uint64_t matches = 0;              ///< pairs passing the threshold
  uint64_t length_skipped = 0;       ///< posting entries pruned by the
                                     ///< length filter
  uint64_t position_rejected = 0;    ///< posting entries pruned by
                                     ///< the positional filter (under
                                     ///< prefix filtering every entry
                                     ///< failing the bound; otherwise
                                     ///< each tuple once, at discovery)

  void MergeFrom(const ApproxProbeStats& other);
};

/// \brief Probes the exact index with a join-attribute value whose
/// 64-bit hash is already known (the probing tuple's store cached it
/// at Add time — the hot path never re-hashes).
///
/// Appends one JoinMatch (kind kExact, similarity 1.0) per stored tuple
/// whose attribute equals `key` to `*out`; returns the number appended.
/// The append-style interface lets the batched executor reuse one match
/// buffer across a whole batch instead of allocating per probe.
size_t ProbeExactInto(const ExactIndex& index, std::string_view key,
                      uint64_t key_hash, Side probe_side,
                      storage::TupleId probe_id, std::vector<JoinMatch>* out);

/// Hashing overload for callers without a cached key hash.
inline size_t ProbeExactInto(const ExactIndex& index, std::string_view key,
                             Side probe_side, storage::TupleId probe_id,
                             std::vector<JoinMatch>* out) {
  return ProbeExactInto(index, key, Fnv1a64(key), probe_side, probe_id, out);
}

/// Convenience wrapper returning a fresh vector (tests, one-off code).
std::vector<JoinMatch> ProbeExact(const ExactIndex& index,
                                  std::string_view key, Side probe_side,
                                  storage::TupleId probe_id);

/// \brief Probes the q-gram index with a probe tuple's join-attribute
/// value — the SSHJoin NEXT() kernel (§2.2).
///
/// Implements candidate generation via counted gram lookups with the
/// insert-phase optimization, then verifies every candidate with the
/// exact coefficient computed from (probe size, candidate size,
/// overlap). The result is exactly the set of stored tuples with
/// sim(probe, stored) >= spec.sim_threshold; matches whose strings are
/// bytewise equal are flagged kExact (similarity 1.0), the rest
/// kApproximate.
///
/// When the index was built with a filter (payload layout), the probe
/// runs the filtered kernel instead, under the index's filter config
/// and gram order: probe grams are scanned ascending in that fixed
/// global order, out-of-band candidates are length-skipped before
/// touching T(t), positionally hopeless candidates are rejected at
/// discovery (with prefix indexing, before touching T(t) as well), and
/// with prefix indexing only the probe's g-k+1 prefix
/// grams are scanned (candidates then verified by a gram-set
/// intersection that gives up once the pair's minimum overlap is out
/// of reach — such a pair cannot match, and every pair that can gets
/// its exact overlap). `spec` supplies the similarity predicate, which must
/// be the one the index cut its prefixes at (checked by assert). The
/// match set, match order, similarity values, and kinds are
/// byte-identical to the unfiltered kernel — filters change cost,
/// never results. The legacy ablation knobs in `options` apply to the
/// unfiltered kernel only.
///
/// `probe_grams` is the probe key's gram set — for stored probing
/// tuples it comes straight from the store's gram cache, so neither
/// side of the verification re-runs gram extraction. `probe_prefix` is
/// its ordered prefix under the index's prefix_rule() — for stored
/// probing tuples the store's prefix lane, ranked once per tuple — and
/// is read only by the filtered kernel, which neither ranks grams nor
/// looks up the gram order; it may be empty only while the index holds
/// no posting. `store` supplies candidate strings for the equality
/// check; `scratch` (may be null) makes the probe allocation-free in
/// steady state; `stats` may be null. Matches are appended to `*out`
/// (sorted by stored id within the appended region); returns the number
/// appended.
size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key,
                            const text::GramSet& probe_grams,
                            text::PrefixView probe_prefix,
                            const JoinSpec& spec, Side probe_side,
                            storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeScratch* scratch,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out);

/// Same, ranking the probe's ordered prefix for a filtered index here
/// (in `scratch` when given) — for probes with no prefix lane behind
/// them (tests, benches, one-off code).
size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key,
                            const text::GramSet& probe_grams,
                            const JoinSpec& spec, Side probe_side,
                            storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeScratch* scratch,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out);

/// Extracting overload for callers without cached probe grams.
size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key, const JoinSpec& spec,
                            Side probe_side, storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out);

/// Convenience wrapper returning a fresh vector (tests, one-off code).
std::vector<JoinMatch> ProbeApproximate(const QGramIndex& index,
                                        const storage::TupleStore& store,
                                        std::string_view probe_key,
                                        const JoinSpec& spec, Side probe_side,
                                        storage::TupleId probe_id,
                                        const ApproxProbeOptions& options,
                                        ApproxProbeStats* stats);

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_PROBE_H_
