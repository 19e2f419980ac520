#include "nn/sampler.h"

#include <algorithm>
#include <cmath>

#include "autograd/tape.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::nn {

double sequence_log_likelihood(LlamaModel& model,
                               const std::vector<int32_t>& tokens) {
  const int seq = model.config().seq_len;
  APOLLO_CHECK(static_cast<int>(tokens.size()) >= 2);
  double total = 0;
  int64_t count = 0;
  // Slide non-overlapping windows; score within-window transitions.
  for (size_t start = 0; start + 2 <= tokens.size();
       start += static_cast<size_t>(seq)) {
    const size_t len = std::min<size_t>(static_cast<size_t>(seq),
                                        tokens.size() - start);
    if (len < 2) break;
    std::vector<int32_t> window(static_cast<size_t>(seq), 0);
    for (size_t i = 0; i < len; ++i) window[i] = tokens[start + i];
    ag::Tape tape;
    ag::Var logits = model.forward(tape, window);
    const Matrix& lm = tape.value(logits);
    for (size_t i = 0; i + 1 < len; ++i) {
      const float* row = lm.row(static_cast<int64_t>(i));
      float mx = row[0];
      for (int64_t v = 1; v < lm.cols(); ++v) mx = std::max(mx, row[v]);
      double denom = 0;
      for (int64_t v = 0; v < lm.cols(); ++v)
        denom += std::exp(static_cast<double>(row[v]) - mx);
      total += static_cast<double>(row[tokens[start + i + 1]]) - mx -
               std::log(denom);
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace apollo::nn
