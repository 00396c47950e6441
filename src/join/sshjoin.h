#ifndef AQP_JOIN_SSHJOIN_H_
#define AQP_JOIN_SSHJOIN_H_

#include "join/symmetric_join.h"

namespace aqp {
namespace join {

/// \brief SSHJoin — the pipelined symmetric *set* hash join (§2.2), a
/// re-implementation of Chaudhuri et al.'s SSJoin primitive as a
/// symmetric, streaming operator.
///
/// Each operand maintains a q-gram inverted index; a probe computes the
/// probe string's gram set, walks the probe grams rarest-first building
/// the candidate set T(t) with shared-gram counters (only the first
/// g-k+1 grams may insert), and verifies candidates whose counter
/// reaches k against the similarity threshold. This is the
/// all-approximate baseline of the paper's evaluation (result size `R`,
/// cost `C`).
///
/// The SSJoin-lineage filter stack (length / prefix / positional, see
/// join/filter.h) is on by default through `options.spec.filter`; the
/// operand indexes then keep prefix payload postings and every probe
/// runs the filtered kernel. All filters are exact, so the output and
/// any adaptation trace built on it are byte-identical to the
/// unfiltered operator (`spec.filter = ApproxFilterOptions{}`) — only
/// candidate-generation cost changes.
class SSHJoin : public SymmetricJoin {
 public:
  SSHJoin(exec::Operator* left, exec::Operator* right,
          SymmetricJoinOptions options)
      : SymmetricJoin(left, right, std::move(options),
                      ProbeMode::kApproximate, ProbeMode::kApproximate,
                      "SSHJoin") {}
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_SSHJOIN_H_
