// Fixture: locals named like the banned libc calls. Calls to them are the
// file's own functions, not the C library's, and must not be reported.
#include <functional>

double BestOf(const std::function<double(bool)>& run) {
  const auto time = [&](bool batched) { return run(batched); };
  int ticks = 0;
  auto clock = [&ticks]() { return ++ticks; };
  return time(true) + time(false) + clock();
}
