#include "phy/rate_adapter.hpp"

#include "phy/capacity.hpp"
#include "util/check.hpp"

namespace sic::phy {

void RateAdapter::rate_span(std::span<const double> sinr_linear,
                            std::span<BitsPerSecond> out) const {
  SIC_CHECK(sinr_linear.size() == out.size());
  for (std::size_t i = 0; i < sinr_linear.size(); ++i) {
    out[i] = rate(sinr_linear[i]);
  }
}

BitsPerSecond ShannonRateAdapter::rate(double sinr_linear) const {
  return shannon_rate(bandwidth_, sinr_linear);
}

void ShannonRateAdapter::rate_span(std::span<const double> sinr_linear,
                                   std::span<BitsPerSecond> out) const {
  SIC_CHECK(sinr_linear.size() == out.size());
  const std::size_t n = sinr_linear.size();
  std::size_t i = 0;
  // Four independent lanes per trip: shannon_rate is a pure log2 chain,
  // so breaking the loop-carried store/load dependence lets the compiler
  // pipeline the transcendentals across lanes.
  for (; i + 4 <= n; i += 4) {
    const BitsPerSecond r0 = shannon_rate(bandwidth_, sinr_linear[i]);
    const BitsPerSecond r1 = shannon_rate(bandwidth_, sinr_linear[i + 1]);
    const BitsPerSecond r2 = shannon_rate(bandwidth_, sinr_linear[i + 2]);
    const BitsPerSecond r3 = shannon_rate(bandwidth_, sinr_linear[i + 3]);
    out[i] = r0;
    out[i + 1] = r1;
    out[i + 2] = r2;
    out[i + 3] = r3;
  }
  for (; i < n; ++i) {
    out[i] = shannon_rate(bandwidth_, sinr_linear[i]);
  }
}

BitsPerSecond DiscreteRateAdapter::rate(double sinr_linear) const {
  return table_->rate_steps()[table_->step_index(sinr_linear)];
}

void DiscreteRateAdapter::rate_span(std::span<const double> sinr_linear,
                                    std::span<BitsPerSecond> out) const {
  SIC_CHECK(sinr_linear.size() == out.size());
  const std::span<const BitsPerSecond> steps = table_->rate_steps();
  for (std::size_t i = 0; i < sinr_linear.size(); ++i) {
    out[i] = steps[table_->step_index(sinr_linear[i])];
  }
}

}  // namespace sic::phy
