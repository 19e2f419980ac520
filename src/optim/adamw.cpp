#include "optim/adamw.h"

namespace apollo::optim {

std::string AdamW::name() const {
  static const char* const kNames[] = {"AdamW", "AdamW (bf16 states)",
                                       "8-bit Adam"};
  return kNames[static_cast<int>(core_.precision())];
}

}  // namespace apollo::optim
