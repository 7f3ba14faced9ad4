#include "la/workspace.hpp"

#include <algorithm>

namespace tqr::la {

Workspace& Workspace::local() {
  thread_local Workspace ws;
  return ws;
}

std::size_t Workspace::reserved_bytes() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size();
  return total;
}

void* Workspace::take(std::size_t bytes) {
  bytes = (bytes + kMatrixAlignment - 1) & ~(kMatrixAlignment - 1);
  top_.in_use += bytes;
  peak_ = std::max(peak_, top_.in_use);
  if (top_.chunk < chunks_.size() &&
      chunks_[top_.chunk].size() - top_.offset >= bytes) {
    void* p = chunks_[top_.chunk].data() + top_.offset;
    top_.offset += bytes;
    return p;
  }
  // Open a new chunk after the last one holding live memory (the current
  // one, unless nothing in it is live). Chunks from there on hold nothing
  // live, so they can be dropped; doubling the reservation keeps the number
  // of heap calls logarithmic while the stack first grows.
  const std::size_t next = top_.offset == 0 ? top_.chunk : top_.chunk + 1;
  chunks_.resize(std::min(next, chunks_.size()));
  chunks_.emplace_back(std::max(bytes, reserved_bytes()));
  top_.chunk = chunks_.size() - 1;
  top_.offset = bytes;
  return chunks_.back().data();
}

void Workspace::release(const Top& top) {
  top_ = top;
  if (top_.in_use != 0) return;
  // The stack is empty: merge the chunks into one that holds the peak, so
  // every call pattern seen so far fits without another heap call.
  if (chunks_.size() <= 1 && reserved_bytes() >= peak_) return;
  chunks_.clear();
  chunks_.emplace_back(peak_);
  top_ = Top{0, 0, 0};
}

}  // namespace tqr::la
