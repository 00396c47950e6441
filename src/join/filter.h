#ifndef AQP_JOIN_FILTER_H_
#define AQP_JOIN_FILTER_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "exec/operator.h"
#include "text/gram_order.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

/// \brief The SSJoin-lineage filter stack in front of SSHJoin's
/// counted-candidate walk.
///
/// Every filter is *exact*: a pruned pair provably cannot reach the
/// similarity threshold, so the match set (and hence the adaptation
/// trace) is byte-identical to the unfiltered join. The filters only
/// change how much work candidate generation does:
///
///  - `length`: a stored tuple whose gram count is outside the
///    feasible band for the probe's gram count is skipped before it is
///    ever inserted into T(t);
///  - `prefix`: the index posts each stored tuple only under its
///    g-k+1 prefix grams in a fixed global gram order, shrinking
///    posting lists and index memory (candidates are then verified by
///    a gram-set intersection, since counters no longer see every
///    shared gram; it stops early once the pair's MinPairOverlap is out
///    of reach and is exact otherwise);
///  - `positional`: prefix postings carry the gram's position in the
///    stored tuple's ordered gram list; a candidate whose position gap
///    already caps the achievable overlap below the pair's required
///    overlap is rejected at discovery time.
///
/// A default-constructed value enables nothing: that is the paper's
/// unfiltered walk, kept as the parity reference and selected only
/// explicitly. JoinSpec::filter defaults to Full().
struct ApproxFilterOptions {
  bool length = false;
  bool prefix = false;
  bool positional = false;

  /// The fixed global gram order shared by index and probes. A caller-
  /// supplied order is used as given. Left null, the engines derive
  /// one from the head of the input before the first q-gram insert
  /// (see GramOrderSampler) and keep it with the running join, never
  /// in these options; only a bare HybridJoinCore or QGramIndex that
  /// nobody installs an order into falls back to plain gram-key order.
  /// Every order is exact; a sampled one makes the prefixes rare and
  /// the posting lists short.
  std::shared_ptr<const text::GramOrder> gram_order;

  /// The full stack: length + prefix + positional.
  static ApproxFilterOptions Full() {
    ApproxFilterOptions filter;
    filter.length = filter.prefix = filter.positional = true;
    return filter;
  }

  /// True iff any filter is enabled (selects the filtered probe kernel
  /// and the payload posting layout).
  bool any() const { return length || prefix || positional; }

  /// Validates the combination.
  Status Validate() const;

  /// "none", "length", "length+prefix+positional", ... (bench labels).
  std::string Label() const;
};

/// \brief Inclusive stored-side gram-count band [lo, hi] that can
/// possibly reach the threshold against a probe with `probe_size`
/// grams. `hi` is SIZE_MAX when unbounded (the overlap coefficient).
struct GramCountBand {
  size_t lo = 0;
  size_t hi = 0;

  bool Contains(size_t size) const { return size >= lo && size <= hi; }
};

/// \brief True iff a stored tuple with `stored_size` grams can reach
/// `threshold` against a probe with `probe_size` grams in the best
/// case (overlap = min of the sizes).
///
/// Deliberately evaluated through the same SetSimilarityFromOverlap
/// the verifier uses, so the filter is exactly as permissive as
/// verification — no hand-derived closed form can drift from the
/// verifier's floating-point rounding.
bool LengthCompatible(text::SimilarityMeasure measure, size_t probe_size,
                      size_t stored_size, double threshold);

/// The length filter band for one probe, by binary search over
/// LengthCompatible (best-case similarity is unimodal in the stored
/// size: nondecreasing up to probe_size, nonincreasing after).
GramCountBand LengthBandFor(text::SimilarityMeasure measure,
                            size_t probe_size, double threshold);

/// \brief Smallest overlap o with sim(probe_size, stored_size, o) >=
/// threshold, or nullopt when even full overlap falls short. Binary
/// search over SetSimilarityFromOverlap (monotone in o), again so the
/// bound can never disagree with the verifier.
std::optional<size_t> MinPairOverlap(text::SimilarityMeasure measure,
                                     size_t probe_size, size_t stored_size,
                                     double threshold);

/// \brief True iff a candidate discovered at probe-gram position
/// `probe_pos` and stored-gram position `stored_pos` (0-based, both in
/// the common global order) can still reach `required_overlap`.
///
/// At the *first* discovery of a candidate no earlier shared gram
/// exists (the probe scans ascending in the order), so every other
/// shared gram lies strictly after both positions:
/// overlap <= 1 + min(probe_size - probe_pos - 1,
///                    stored_size - stored_pos - 1),
/// tested as its two halves. Both positions are below their sizes.
///
/// The bound only tightens along a scan: at any later shared gram both
/// positions are larger. So a candidate that fails it at its first
/// shared gram fails it at every later one, and the prefix-filtered
/// probe can drop each failing posting on its own, before T(t).
inline bool PositionalCompatible(size_t probe_size, size_t probe_pos,
                                 size_t stored_size, size_t stored_pos,
                                 size_t required_overlap) {
  return probe_size - probe_pos >= required_overlap &&
         stored_size - stored_pos >= required_overlap;
}

/// \brief Derives the gram order of a filtered join whose caller
/// supplied none: the sampled gram frequencies of the first
/// kKeysPerSide join keys read from each input.
///
/// The engines feed it only rows they have already pulled from their
/// children, per side in read order, and install the result into every
/// HybridJoinCore before the first q-gram insert — so sampling moves
/// no source read, and the order is frozen before anything is posted
/// under it. Output and adaptation traces do not depend on the sample
/// (every frozen order is exact); only probe work does.
class GramOrderSampler {
 public:
  /// Join keys sampled per input.
  static constexpr size_t kKeysPerSide = 256;

  explicit GramOrderSampler(const text::QGramOptions& options)
      : options_(options), order_(std::make_shared<text::GramOrder>()) {}

  /// Samples `key` as the next key read from `side`. Returns false,
  /// sampling nothing, once that side already holds kKeysPerSide keys.
  bool Add(exec::Side side, std::string_view key);

  /// Keys sampled from `side` so far.
  size_t sampled(exec::Side side) const {
    return sampled_[static_cast<size_t>(side)];
  }

  /// Hands over the frozen order; the sampler is spent afterwards.
  std::shared_ptr<const text::GramOrder> Finish() {
    return std::move(order_);
  }

 private:
  text::QGramOptions options_;
  std::shared_ptr<text::GramOrder> order_;
  size_t sampled_[2] = {0, 0};
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_FILTER_H_
