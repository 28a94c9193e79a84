#include "edram/refresh_engine.hpp"

#include <stdexcept>

namespace esteem::edram {

RefreshEngine::RefreshEngine(RefreshPolicy& policy, cache::BankGroup* banks,
                             double retention_cycles)
    : policy_(policy), banks_(banks), retention_cycles_(retention_cycles) {
  if (retention_cycles_ <= 0.0) {
    throw std::invalid_argument("RefreshEngine: retention must be positive");
  }
}

void RefreshEngine::advance(cycle_t now) {
  total_ += policy_.advance(now);
}

void RefreshEngine::sync_bank_load(cycle_t now) {
  if (banks_ == nullptr) return;
  banks_->set_refresh_load(policy_.refresh_lines_per_period(), retention_cycles_, now);
}

}  // namespace esteem::edram
