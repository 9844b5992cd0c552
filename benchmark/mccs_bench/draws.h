#pragma once
// Seeded draws with fixed aggregates. A benchmark run replays only a few
// hundred tenants, so plain i.i.d. draws leave the offered load (and with it
// every timing) varying from seed to seed by more than any bound could
// tolerate. These draws stratify: every block holds exactly the intended
// mix, in a seeded order, so seeds change which tenant gets what, not how
// much work a run carries.

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace bench {

/// Cycles through shuffled copies of `cards`: every len(cards) draws contain
/// each card exactly once.
template <class T>
class Deck {
 public:
  Deck(std::vector<T> cards, mccs::Rng& rng) : cards_(std::move(cards)), rng_(&rng) {}

  T next() {
    if (pos_ == 0) rng_->shuffle(cards_);
    const T card = cards_[pos_];
    pos_ = (pos_ + 1) % cards_.size();
    return card;
  }

 private:
  std::vector<T> cards_;
  mccs::Rng* rng_;
  std::size_t pos_ = 0;
};

/// Exponential draws with the given mean, stratified in blocks of 16: each
/// block holds one draw from each 1/16 quantile band, in shuffled order.
class StratifiedExponential {
 public:
  StratifiedExponential(double mean, mccs::Rng& rng) : mean_(mean), rng_(&rng) {}

  double next() {
    if (pos_ == 0) {
      block_.clear();
      for (int i = 0; i < kBlock; ++i) {
        const double u = (i + rng_->uniform()) / kBlock;
        block_.push_back(-mean_ * std::log1p(-u));
      }
      rng_->shuffle(block_);
    }
    const double x = block_[pos_];
    pos_ = (pos_ + 1) % kBlock;
    return x;
  }

 private:
  static constexpr int kBlock = 16;
  double mean_;
  mccs::Rng* rng_;
  std::vector<double> block_;
  std::size_t pos_ = 0;
};

}  // namespace bench
