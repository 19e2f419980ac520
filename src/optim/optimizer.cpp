#include "optim/optimizer.h"

#include <climits>

#include "obs/trace.h"
#include "optim/state_codec.h"
#include "tensor/check.h"
#include "tensor/finite.h"

namespace apollo::optim {

void Optimizer::begin_step(const nn::ParamList& params) {
  // Slot indices are ints; the model would have to be absurd to overflow,
  // but the contract is part of the API.
  APOLLO_CHECK_LT(params.size(), static_cast<size_t>(INT_MAX));
  ++t_;
}

void Optimizer::set_shard(int rank, int world) {
  APOLLO_CHECK_GE(world, 1);
  APOLLO_CHECK_GE(rank, 0);
  APOLLO_CHECK_LT(rank, world);
  shard_rank_ = rank;
  shard_world_ = world;
}

void Optimizer::end_step(const nn::ParamList& params) {
  APOLLO_CHECK_GE(t_, 1);  // end_step without begin_step
  // Under APOLLO_CHECK_FINITE=1 (tensor/finite.h) no parameter may leave a
  // step non-finite: the abort names the parameter and the optimizer whose
  // update corrupted it. One branch per step when the mode is off.
  if (!finite_checks_enabled()) return;
  const std::string when = name() + " step";
  for (const nn::Parameter* p : params)
    check_finite_or_die(p->value, p->name.c_str(), when.c_str());
}

// Pure delegation — preconditions live in begin_step/step_param.
// lint:allow(check-shape-preconditions)
void Optimizer::step(const nn::ParamList& params) {
  APOLLO_TRACE_SCOPE(step_trace_name(), "optim");
  begin_step(params);
  for (size_t i = 0; i < params.size(); ++i)
    step_param(*params[i], static_cast<int>(i));
  end_step(params);
}

// The codec checks every field it reads against `params`.
// lint:allow(check-shape-preconditions)
bool Optimizer::run_codec(std::FILE* f, const nn::ParamList& params,
                          CodecMode mode) {
  StateCodec c(f, mode, params, shard_rank_, shard_world_);
  c.scalar(t_);
  c.check(t_ >= 0);
  state_fields(c);
  return c.ok();
}

// Saving runs the same field list as reading; the codec only reads the
// fields then, so the cast never changes this optimizer.
// lint:allow(check-shape-preconditions)
bool Optimizer::save_state(std::FILE* f, const nn::ParamList& params) const {
  return const_cast<Optimizer*>(this)->run_codec(f, params, CodecMode::kSave);
}

// lint:allow(check-shape-preconditions)
bool Optimizer::load_state(std::FILE* f, const nn::ParamList& params) {
  return run_codec(f, params, CodecMode::kLoad);
}

// lint:allow(check-shape-preconditions)
bool Optimizer::merge_state(std::FILE* f, const nn::ParamList& params) {
  return run_codec(f, params, CodecMode::kMerge);
}

}  // namespace apollo::optim
