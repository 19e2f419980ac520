// Versioned binary checkpointing for model weights and (optionally)
// optimizer state for exact training resume.
//
// Format v3 (little-endian), the first *crash-consistent* version:
//   magic "APLO" | u32 version | i64 step | u32 param_count | u32 crc
//   per param: u32 name_len | name bytes | i64 rows | i64 cols | f32 data[]
//              | u32 crc
//   u8 has_optimizer | [u32 name_len | name | u64 blob_len | blob] | u32 crc
//   end magic "OLPA"
// Every section carries a CRC-32 over its payload bytes (src/fault/crc32.h),
// so truncation, torn writes and bit rot are detected at load time with a
// section-precise error. Saves commit through train::commit_file
// (train/ckpt_io.h): atomic, retried on transient I/O errors, and the one
// place the checkpoint faults fire.
//
// Loading validates magic/version, every section CRC, and that every
// parameter matches the model's name and shape, so a checkpoint from a
// different configuration is rejected with a readable error instead of
// silently mis-loading. Files of any other version (the pre-v3 v1/v2
// layouts included) are refused with "unsupported checkpoint version N".
#pragma once

#include <string>

#include "nn/llama.h"
#include "optim/optimizer.h"

namespace apollo::train {

struct CheckpointResult {
  bool ok = false;
  int64_t step = 0;
  // True when the file carried optimizer state and it was restored.
  bool optimizer_state_restored = false;
  // Loads only: the file has an optimizer section, of any optimizer.
  bool has_optimizer_section = false;
  std::string error;
};

// Saves weights, and the state of `opt` when it is non-null (every
// optimizer's, through Optimizer::save_state, captured once). The state is
// the file's last CRC section.
CheckpointResult save_checkpoint(const std::string& path,
                                 nn::LlamaModel& model, int64_t step,
                                 const optim::Optimizer* opt = nullptr);

// Loads weights; when `opt` is non-null and the file carries a matching
// optimizer section (same optimizer name), restores it too. Distinct
// error strings for: missing file, empty file, bad magic, truncation,
// per-section CRC mismatch, and shape/name mismatches.
CheckpointResult load_checkpoint(const std::string& path,
                                 nn::LlamaModel& model,
                                 optim::Optimizer* opt = nullptr);

}  // namespace apollo::train
