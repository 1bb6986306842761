#include "progressive/emitter.h"

namespace sper {

bool BatchSource::ProduceBatch(ComparisonList& out) {
  out.Clear();
  while (out.Empty()) {
    if (serial_cursor_ >= num_refills()) return false;
    RefillAt(serial_cursor_++, serial_scratch_, out);
  }
  return true;
}

std::optional<Comparison> BatchSource::NextFromRefills() {
  if (serial_batch_.Empty() && !ProduceBatch(serial_batch_)) {
    return std::nullopt;
  }
  return serial_batch_.PopFirst();
}

}  // namespace sper
