#ifndef AQP_JOIN_JOIN_TYPES_H_
#define AQP_JOIN_JOIN_TYPES_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/operator.h"
#include "join/filter.h"
#include "storage/schema.h"
#include "storage/tuple_store.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

using exec::Side;
using storage::TupleId;

/// \brief Static description of a record-linkage join.
struct JoinSpec {
  /// Join-attribute column in each input (must be a string column).
  size_t left_column = 0;
  size_t right_column = 0;

  /// q-gram extraction parameters (q = 3 in the paper).
  text::QGramOptions qgram;

  /// Set-similarity coefficient; the paper uses the Jaccard
  /// coefficient.
  text::SimilarityMeasure measure = text::SimilarityMeasure::kJaccard;

  /// Similarity threshold θ_sim; a pair is an (approximate) match iff
  /// sim >= sim_threshold. The paper tunes this to 0.85.
  double sim_threshold = 0.85;

  /// Candidate filter stack for approximate probes (length / prefix /
  /// positional). All filters are exact — they change probe cost, not
  /// the match set or the adaptation trace — and the full stack is on
  /// by default, under a gram order the engine derives from the head
  /// of the input unless the caller supplies one (see
  /// ApproxFilterOptions::gram_order). The paper's unfiltered
  /// counted-candidate walk is `ApproxFilterOptions{}`.
  ApproxFilterOptions filter = ApproxFilterOptions::Full();

  /// Join column for a given side.
  size_t column(Side side) const {
    return side == Side::kLeft ? left_column : right_column;
  }

  /// Validates the parameter combination.
  Status Validate() const;

  /// Validates that the columns exist in the given schemas and are
  /// string-typed.
  Status ValidateAgainstSchemas(const storage::Schema& left,
                                const storage::Schema& right) const;
};

/// \brief Whether a match was found by exact equality or by the
/// similarity predicate only.
enum class MatchKind { kExact, kApproximate };

/// "exact" / "approximate".
const char* MatchKindName(MatchKind kind);

/// \brief One matching pair produced by a probe.
struct JoinMatch {
  /// The side the probing tuple was read from.
  Side probe_side = Side::kLeft;
  /// Id of the probing tuple in its side's store.
  TupleId probe_id = 0;
  /// Id of the stored tuple it matched (on the opposite side).
  TupleId stored_id = 0;
  /// Similarity of the pair (1.0 for exact matches).
  double similarity = 1.0;
  /// Exact or approximate.
  MatchKind kind = MatchKind::kExact;

  /// Id of the pair's left-side tuple.
  TupleId left_id() const {
    return probe_side == Side::kLeft ? probe_id : stored_id;
  }
  /// Id of the pair's right-side tuple.
  TupleId right_id() const {
    return probe_side == Side::kRight ? probe_id : stored_id;
  }
};

/// Output schema of a join: left fields then right fields (right-side
/// duplicates suffixed "_r"), optionally followed by a "sim" double
/// column carrying the match similarity.
storage::Schema JoinOutputSchema(const storage::Schema& left,
                                 const storage::Schema& right,
                                 bool with_similarity);

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_JOIN_TYPES_H_
