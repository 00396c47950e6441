#include "join/probe.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <utility>

#include "join/filter.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

namespace {

/// Sticky T(t) marker of the filtered kernel without prefix filtering,
/// for a candidate the positional filter rejected: there the counter is
/// the overlap, so a rejected tuple must stay marked, or a later shared
/// gram would count it. Real counters never get near this value — they
/// are bounded by the probe's gram count.
constexpr uint32_t kRejectedSentinel = std::numeric_limits<uint32_t>::max();

/// Bound-table value for a stored gram count that cannot reach the
/// threshold even at full overlap (MinPairOverlap's nullopt). No
/// position gap reaches it, so the positional test rejects it as well.
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

/// Candidates between the one verification reads and the one whose
/// gram keys it starts loading; their gram-set headers are loaded twice
/// as far ahead.
constexpr size_t kVerifyPrefetchDistance = 4;

/// Readies the scratch for one probe of an index holding `watermark`
/// tuples: T(t) covers every indexed id and is all-zero (a probe that
/// threw midway may have left counters set).
void BeginProbe(ApproxProbeScratch& work, size_t watermark) {
  for (storage::TupleId id : work.touched) work.counters[id] = 0;
  work.touched.clear();
  if (work.counters.size() < watermark) work.counters.resize(watermark, 0);
}

uint32_t ToBound(std::optional<size_t> required) {
  return required.has_value() ? static_cast<uint32_t>(*required)
                              : kUnreachable;
}

/// The scratch's bounds for a probe with `g` grams under `spec`'s
/// predicate, computed on first use. A scratch serves one predicate at
/// a time; another one clears the table.
const ProbeBounds& BoundsFor(ApproxProbeScratch& work, const JoinSpec& spec,
                             size_t g) {
  if (work.bounds_measure != spec.measure ||
      work.bounds_threshold != spec.sim_threshold) {
    work.bounds.clear();
    work.bounds_measure = spec.measure;
    work.bounds_threshold = spec.sim_threshold;
  }
  if (g >= work.bounds.size()) work.bounds.resize(g + 1);
  ProbeBounds& bounds = work.bounds[g];
  if (bounds.ready) return bounds;
  const text::SimilarityMeasure measure = spec.measure;
  const double threshold = spec.sim_threshold;
  bounds.band = LengthBandFor(measure, g, threshold);
  bounds.insert_end = text::PrefixLengthFor(measure, g, threshold);
  bounds.k = text::MinOverlapForThreshold(measure, g, threshold);
  // MinPairOverlap has a value exactly on the length band: both ask
  // whether full overlap reaches the threshold.
  const GramCountBand band = bounds.band;
  const bool unbounded = band.hi == std::numeric_limits<size_t>::max();
  const size_t table_end = unbounded ? g : band.hi;
  bounds.required.assign(table_end + 1, kUnreachable);
  for (size_t s = band.lo; s <= table_end; ++s) {
    bounds.required[s] = ToBound(MinPairOverlap(measure, g, s, threshold));
  }
  bounds.required_beyond =
      unbounded ? ToBound(MinPairOverlap(measure, g, g + 1, threshold))
                : kUnreachable;
  assert(band.lo == 0 || band.lo > band.hi ||
         !MinPairOverlap(measure, g, band.lo - 1, threshold).has_value());
  assert(unbounded || !MinPairOverlap(measure, g, band.hi + 1, threshold)
                           .has_value());
  bounds.ready = true;
  return bounds;
}

/// Appends one verified match, deciding exact vs approximate by
/// bytewise key equality — shared by both kernels so the emitted
/// records are constructed identically.
void EmitMatch(const storage::TupleStore& store, std::string_view probe_key,
               Side probe_side, storage::TupleId probe_id,
               storage::TupleId candidate, double sim,
               ApproxProbeStats* stats, std::vector<JoinMatch>* out) {
  // Identical gram sets do not imply identical strings; the exact
  // flag (§3.3) requires bytewise equality.
  const bool equal = sim >= 1.0 && store.JoinKey(candidate) == probe_key;
  out->push_back(JoinMatch{probe_side, probe_id, candidate,
                           equal ? 1.0 : sim,
                           equal ? MatchKind::kExact
                                 : MatchKind::kApproximate});
  if (stats != nullptr) ++stats->matches;
}

/// The filtered probe kernel: length / prefix / positional filtering
/// over payload postings, scanning the probe's ordered prefix (its
/// grams ascending in the fixed global gram order, ranked before the
/// probe). Exact — see join/filter.h for the per-filter soundness
/// arguments.
///
/// Its cost is memory latency, so every batch of independent lookups
/// is issued before the first of them is waited on: the prefix grams'
/// table slots, then their lists' heads, then (a few candidates ahead)
/// the gram sets verification reads.
void FilteredProbe(const QGramIndex& index, const storage::TupleStore& store,
                   std::string_view probe_key,
                   const text::GramSet& probe_grams,
                   text::PrefixView probe_prefix, const JoinSpec& spec,
                   Side probe_side, storage::TupleId probe_id,
                   ApproxProbeScratch& work, ApproxProbeStats* stats,
                   std::vector<JoinMatch>* out) {
  const ApproxFilterOptions& filter = index.filter();
  const size_t g = probe_grams.size();
  const ProbeBounds& bounds = BoundsFor(work, spec, g);
  const size_t k = bounds.k;
  GramCountBand band;
  if (filter.length) {
    band = bounds.band;
  } else {
    band.lo = 0;
    band.hi = std::numeric_limits<size_t>::max();
  }
  // Only the first g-k+1 grams may insert (§2.2's rule — identical to
  // the probe-side prefix length); with prefix indexing the remaining
  // grams are not even in the ordered prefix, since the counter is no
  // longer the verifier's overlap.
  const size_t insert_end = bounds.insert_end;
  const size_t scan_end = probe_prefix.size();
  assert((scan_end == (filter.prefix ? insert_end : g) ||
          (scan_end == 0 && index.distinct_grams() == 0)) &&
         "probe prefix cut under another rule");
  const text::GramKey* const grams = probe_grams.grams().data();

  for (uint32_t position : probe_prefix) {
    index.PrefetchPayloadPostings(grams[position]);
  }
  auto& lists = work.lists;
  lists.clear();
  for (size_t i = 0; i < scan_end; ++i) {
    const std::vector<GramPosting>* postings =
        index.PayloadPostings(grams[probe_prefix[i]]);
    if (postings != nullptr) __builtin_prefetch(postings->data());
    lists.push_back(postings);
  }

  uint32_t* const counters = work.counters.data();
  auto& touched = work.touched;
  uint64_t length_skipped = 0;
  uint64_t position_rejected = 0;
  uint64_t postings_scanned = 0;
  size_t rejected = 0;
  for (size_t i = 0; i < scan_end; ++i) {
    const std::vector<GramPosting>* postings = lists[i];
    if (postings == nullptr) continue;
    postings_scanned += postings->size();
    const bool may_insert = i < insert_end;
    for (const GramPosting& posting : *postings) {
      // Every test on the posting's own payload comes before T(t) is
      // read. A nonzero counter implies an in-band tuple, so an
      // out-of-band posting is one the counter would not have kept
      // either.
      if (filter.length && !band.Contains(posting.gram_count)) {
        if (may_insert) ++length_skipped;
        continue;
      }
      if (filter.prefix) {
        // T(t) is only a membership mark here (scan_end == insert_end:
        // every scanned gram may insert). A posting failing the
        // positional bound is dropped unmarked: at its tuple's first
        // shared gram the bound caps the whole overlap, and at every
        // later one it fails again (see PositionalCompatible), so a
        // tuple is inserted iff it passes at its first shared gram —
        // and verification needs no sentinel test.
        if (filter.positional &&
            !PositionalCompatible(
                g, i, posting.gram_count, posting.position,
                bounds.RequiredOverlap(posting.gram_count))) {
          ++position_rejected;
          continue;
        }
        uint32_t& count = counters[posting.id];
        if (count == 0) {
          count = 1;
          touched.push_back(posting.id);
        }
        continue;
      }
      uint32_t& count = counters[posting.id];
      if (count != 0) {
        if (count != kRejectedSentinel) ++count;
        continue;
      }
      if (!may_insert) continue;
      touched.push_back(posting.id);
      if (filter.positional) {
        // First discovery of this candidate = the pair's smallest
        // shared gram in the global order (earlier shared grams would
        // have been scanned and posted — see filter.h), so the
        // remaining-suffix bound on the total overlap is valid here
        // and *stays* valid: rejection is permanent.
        if (!PositionalCompatible(
                g, i, posting.gram_count, posting.position,
                bounds.RequiredOverlap(posting.gram_count))) {
          count = kRejectedSentinel;
          ++rejected;
          ++position_rejected;
          continue;
        }
      }
      count = 1;
    }
  }
  if (stats != nullptr) {
    stats->postings_scanned += postings_scanned;
    stats->length_skipped += length_skipped;
    stats->position_rejected += position_rejected;
    stats->candidates += touched.size() - rejected;
  }

  // Verification walks T(t) in discovery order and zeroes each counter
  // it reads, so the table is clean again when the probe returns.
  const size_t candidates = touched.size();
  if (filter.prefix) {
    // Prefix postings undercount shared grams, so the counter cannot
    // drive verification; intersect the gram sets instead. A pair whose
    // overlap stays below MinPairOverlap — by definition the smallest
    // overlap reaching the threshold — cannot match, so the bounded
    // intersection may give up on it; every other pair gets its exact
    // overlap, fed through the same coefficient as the unfiltered
    // counter would be — bytewise identical output.
    for (size_t c = 0; c < candidates; ++c) {
      if (c + 2 * kVerifyPrefetchDistance < candidates) {
        index.PrefetchGramSet(touched[c + 2 * kVerifyPrefetchDistance]);
      }
      if (c + kVerifyPrefetchDistance < candidates) {
        index.PrefetchGramKeys(touched[c + kVerifyPrefetchDistance]);
      }
      const storage::TupleId candidate = touched[c];
      counters[candidate] = 0;
      if (stats != nullptr) ++stats->verified;
      const text::GramSet& candidate_grams = index.GramSetOf(candidate);
      const uint32_t required =
          bounds.RequiredOverlap(candidate_grams.size());
      if (required == kUnreachable) continue;
      const size_t overlap =
          probe_grams.OverlapAtLeast(candidate_grams, required);
      if (overlap < required) continue;
      const double sim = text::SetSimilarityFromOverlap(
          spec.measure, g, candidate_grams.size(), overlap);
      if (sim < spec.sim_threshold) continue;
      EmitMatch(store, probe_key, probe_side, probe_id, candidate, sim,
                stats, out);
    }
  } else {
    // Every gram was scanned, so surviving counters hold the exact
    // overlap — verify exactly as the unfiltered kernel does.
    for (storage::TupleId candidate : touched) {
      const uint32_t overlap = std::exchange(counters[candidate], 0);
      if (overlap == kRejectedSentinel) continue;
      if (overlap < k) continue;
      if (stats != nullptr) ++stats->verified;
      const double sim = text::SetSimilarityFromOverlap(
          spec.measure, g, index.GramSetSize(candidate), overlap);
      if (sim < spec.sim_threshold) continue;
      EmitMatch(store, probe_key, probe_side, probe_id, candidate, sim,
                stats, out);
    }
  }
}

}  // namespace

size_t ApproxProbeScratch::ApproximateMemoryUsage() const {
  size_t bytes = ranked.capacity() * sizeof(ranked[0]) +
                 prefix.capacity() * sizeof(uint32_t) +
                 lists.capacity() * sizeof(lists[0]) +
                 counters.capacity() * sizeof(uint32_t) +
                 touched.capacity() * sizeof(storage::TupleId) +
                 bounds.capacity() * sizeof(ProbeBounds);
  for (const ProbeBounds& row : bounds) {
    bytes += row.required.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

void ApproxProbeStats::MergeFrom(const ApproxProbeStats& other) {
  grams += other.grams;
  postings_scanned += other.postings_scanned;
  candidates += other.candidates;
  verified += other.verified;
  matches += other.matches;
  length_skipped += other.length_skipped;
  position_rejected += other.position_rejected;
}

size_t ProbeExactInto(const ExactIndex& index, std::string_view key,
                      uint64_t key_hash, Side probe_side,
                      storage::TupleId probe_id, std::vector<JoinMatch>* out) {
  const size_t out_begin = out->size();
  // The chain yields newest-first; reverse the appended region so
  // matches come out oldest-first (insertion order), as the bucket
  // enumeration always has.
  for (storage::TupleId stored = index.ChainHead(key, key_hash);
       stored != ExactIndex::kNone; stored = index.ChainPrev(stored)) {
    out->push_back(
        JoinMatch{probe_side, probe_id, stored, 1.0, MatchKind::kExact});
  }
  std::reverse(out->begin() + static_cast<ptrdiff_t>(out_begin), out->end());
  return out->size() - out_begin;
}

std::vector<JoinMatch> ProbeExact(const ExactIndex& index,
                                  std::string_view key, Side probe_side,
                                  storage::TupleId probe_id) {
  std::vector<JoinMatch> out;
  ProbeExactInto(index, key, probe_side, probe_id, &out);
  return out;
}

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
                            std::vector<JoinMatch>* out) {
  // The index's layout selects the kernel; its prefixes were cut at
  // its own measure and threshold, which must be the probe's.
  assert((!index.payload_mode() ||
          (index.measure() == spec.measure &&
           index.sim_threshold() == spec.sim_threshold)) &&
         "filtered index built for a different similarity predicate");
  const size_t out_begin = out->size();
  if (stats != nullptr) stats->grams += probe_grams.size();

  if (probe_grams.empty()) {
    // Degenerate probe (possible only without padding): it can only
    // match stored tuples that are also gram-less, by string equality.
    for (storage::TupleId stored : index.empty_gram_tuples()) {
      if (store.JoinKey(stored) == probe_key) {
        out->push_back(JoinMatch{probe_side, probe_id, stored, 1.0,
                                 MatchKind::kExact});
        if (stats != nullptr) ++stats->matches;
      }
    }
    return out->size() - out_begin;
  }

  // The probe's working memory: caller-provided scratch when available
  // (reset, capacity kept — steady-state probes allocate nothing),
  // else probe-local.
  ApproxProbeScratch local;
  ApproxProbeScratch& work = scratch != nullptr ? *scratch : local;
  BeginProbe(work, index.watermark());

  if (index.payload_mode()) {
    FilteredProbe(index, store, probe_key, probe_grams, probe_prefix, spec,
                  probe_side, probe_id, work, stats, out);
  } else {
    const size_t g = probe_grams.size();
    const size_t k =
        text::MinOverlapForThreshold(spec.measure, g, spec.sim_threshold);

    // Rank the probe's grams by live posting frequency; "reverse
    // frequency order" = rarest first. Positions break ties in key
    // order, since grams() is key-sorted.
    const std::vector<text::GramKey>& grams = probe_grams.grams();
    // One key per gram, frequency above position: a posting list never
    // holds 2^32 ids, so comparing keys compares (frequency, position).
    auto& ranked = work.ranked;
    ranked.clear();
    ranked.reserve(g);
    for (size_t i = 0; i < g; ++i) {
      ranked.push_back(uint64_t{index.Frequency(grams[i])} << 32 | i);
    }
    if (options.rare_grams_first) {
      std::sort(ranked.begin(), ranked.end());
    }

    // T(t): candidate tuple -> number of shared grams seen so far. For
    // every candidate in T the final count equals the exact overlap,
    // because each shared gram either inserted it or incremented it.
    uint32_t* const counters = work.counters.data();
    auto& touched = work.touched;
    const size_t insert_phase_end =
        options.insert_phase_optimization && k <= g ? g - k + 1 : g;
    for (size_t i = 0; i < g; ++i) {
      const std::vector<storage::TupleId>* postings =
          index.Postings(grams[static_cast<uint32_t>(ranked[i])]);
      if (postings == nullptr) continue;
      if (stats != nullptr) stats->postings_scanned += postings->size();
      const bool may_insert = i < insert_phase_end;
      for (storage::TupleId candidate : *postings) {
        uint32_t& count = counters[candidate];
        if (count != 0) {
          ++count;
        } else if (may_insert) {
          count = 1;
          touched.push_back(candidate);
        }
      }
    }
    if (stats != nullptr) stats->candidates += touched.size();

    // Verification: the counter is the overlap; all four coefficients
    // are functions of (g, candidate gram-set size, overlap). The
    // candidate's gram-set size comes from the stored side's cache —
    // no strings are touched unless equality must be decided. Each
    // counter is zeroed as it is read.
    for (storage::TupleId candidate : touched) {
      const uint32_t overlap = std::exchange(counters[candidate], 0);
      if (overlap < k) continue;
      if (stats != nullptr) ++stats->verified;
      const size_t candidate_size = index.GramSetSize(candidate);
      const double sim = text::SetSimilarityFromOverlap(
          spec.measure, g, candidate_size, overlap);
      if (sim < spec.sim_threshold) continue;
      EmitMatch(store, probe_key, probe_side, probe_id, candidate, sim,
                stats, out);
    }
  }
  // Both kernels zeroed every counter they set while verifying; the
  // next probe's BeginProbe clears the list.
  // Deterministic output order: T(t) is walked in discovery order, and
  // matches are reported by stored id. Only the region this probe
  // appended is reordered.
  std::sort(out->begin() + static_cast<ptrdiff_t>(out_begin), out->end(),
            [](const JoinMatch& a, const JoinMatch& b) {
              return a.stored_id < b.stored_id;
            });
  return out->size() - out_begin;
}

size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key,
                            const text::GramSet& probe_grams,
                            const JoinSpec& spec, Side probe_side,
                            storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeScratch* scratch,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out) {
  ApproxProbeScratch local;
  ApproxProbeScratch& work = scratch != nullptr ? *scratch : local;
  text::PrefixView prefix;
  if (index.payload_mode()) {
    work.prefix.clear();
    text::OrderedPrefixInto(probe_grams, index.prefix_rule(), &work.ranked,
                            &work.prefix);
    prefix = text::PrefixView(work.prefix.data(), work.prefix.size());
  }
  return ProbeApproximateInto(index, store, probe_key, probe_grams, prefix,
                              spec, probe_side, probe_id, options, &work,
                              stats, out);
}

size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key, const JoinSpec& spec,
                            Side probe_side, storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out) {
  const text::GramSet probe_grams = text::GramSet::Of(probe_key, spec.qgram);
  return ProbeApproximateInto(index, store, probe_key, probe_grams, spec,
                              probe_side, probe_id, options,
                              /*scratch=*/nullptr, stats, out);
}

std::vector<JoinMatch> ProbeApproximate(const QGramIndex& index,
                                        const storage::TupleStore& store,
                                        std::string_view probe_key,
                                        const JoinSpec& spec, Side probe_side,
                                        storage::TupleId probe_id,
                                        const ApproxProbeOptions& options,
                                        ApproxProbeStats* stats) {
  std::vector<JoinMatch> out;
  ProbeApproximateInto(index, store, probe_key, spec, probe_side, probe_id,
                       options, stats, &out);
  return out;
}

}  // namespace join
}  // namespace aqp
