#include "optim/adamw.h"

#include "nn/parameter.h"
#include "tensor/serialize.h"

namespace apollo::optim {

// Pure serialization: `params` only fixes the slot count, shapes are
// validated by read_matrix/write_matrix.
// lint:allow(check-shape-preconditions)
bool AdamW::save_state(std::FILE* f, const nn::ParamList& params) const {
  return write_pod(f, t_) &&
         core_.save(f, static_cast<int64_t>(params.size()));
}

// A full load is a merge into cleared state.
// lint:allow(check-shape-preconditions)
bool AdamW::load_state(std::FILE* f, const nn::ParamList& params) {
  core_.reset();
  return merge_state(f, params);
}

// Every shard stores the same t_, so re-reading it per shard is harmless.
// lint:allow(check-shape-preconditions)
bool AdamW::merge_state(std::FILE* f, const nn::ParamList& params) {
  return read_pod(f, t_) &&
         core_.load_merge(f, static_cast<int64_t>(params.size()),
                          shard_rank_, shard_world_);
}

}  // namespace apollo::optim
