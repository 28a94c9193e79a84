#include "cpu/core_model.hpp"

#include <stdexcept>

namespace esteem::cpu {

Core::Core(std::uint32_t id, std::unique_ptr<trace::AccessGenerator> generator,
           block_t block_offset)
    : id_(id), generator_(std::move(generator)), block_offset_(block_offset) {
  if (!generator_) throw std::invalid_argument("Core: null generator");
}

void Core::step(std::span<const std::unique_ptr<MemorySystem>> mems) {
  const trace::MemRef ref = generator_->next();
  instret_ += static_cast<instr_t>(ref.gap) + 1;
  const block_t block = ref.block + block_offset_;
  for (const std::unique_ptr<MemorySystem>& mem : mems) {
    mem->step(id_, ref.gap, block, ref.is_store);
  }
}

void Core::skip(MemorySystem& mem, instr_t n, double cpi) {
  generator_->skip(n);
  instret_ += n;
  mem.advance_clock(id_, n, cpi);
}

void Core::step_warm(MemorySystem& mem, double cpi) {
  const trace::MemRef ref = generator_->next();
  const instr_t retired = static_cast<instr_t>(ref.gap) + 1;
  instret_ += retired;
  mem.step_warm(id_, retired, ref.block + block_offset_, ref.is_store, cpi);
}

}  // namespace esteem::cpu
