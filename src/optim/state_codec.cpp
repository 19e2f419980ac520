#include "optim/state_codec.h"

#include <utility>

namespace apollo::optim {

void StateCodec::rng(Rng& r) {
  if (!ok_) return;
  if (saving()) {
    ok_ = write_rng_state(f_, r.state());
    return;
  }
  Rng::State st;
  ok_ = read_rng_state(f_, st);
  if (ok_) r.set_state(st);
}

bool StateCodec::present(bool has) {
  uint8_t flag = has ? 1 : 0;
  scalar(flag);
  check(flag <= 1);
  return ok_ && flag == 1;
}

// Parses untrusted bytes: a matrix of any other shape fails the read.
// lint:allow(check-shape-preconditions)
void StateCodec::matrix(Matrix& m, int64_t rows, int64_t cols, Keep keep) {
  if (!ok_) return;
  if (saving()) {
    ok_ = write_matrix(f_, m);
    return;
  }
  Matrix in;
  ok_ = read_matrix(f_, in) && in.rows() == rows && in.cols() == cols;
  if (ok_ && (owned_ || keep == Keep::kEveryRank)) m = std::move(in);
}

void StateCodec::moments(AdamMoments& m, int64_t rows, int64_t cols,
                         MomentPrecision precision, bool may_be_empty) {
  if (!ok_) return;
  if (saving()) {
    ok_ = m.save(f_);
    return;
  }
  AdamMoments in;
  ok_ = in.load(f_, rows, cols, precision, may_be_empty);
  if (ok_ && owned_ && !in.empty()) m = std::move(in);
}

}  // namespace apollo::optim
