#include "mining/random_forest.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "common/strings.h"

namespace ddgms::mining {

Status RandomForestClassifier::Train(const CategoricalDataset& data) {
  if (data.rows.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  if (options_.num_trees == 0) {
    return Status::InvalidArgument("num_trees must be positive");
  }
  num_features_ = data.feature_names.size();
  trees_.clear();
  masks_.clear();
  Rng rng(options_.seed);
  const size_t n = data.rows.size();
  size_t visible = std::max<size_t>(
      1, static_cast<size_t>(options_.feature_fraction *
                             static_cast<double>(num_features_)));

  for (size_t t = 0; t < options_.num_trees; ++t) {
    // Random feature mask.
    std::vector<size_t> order(num_features_);
    for (size_t f = 0; f < num_features_; ++f) order[f] = f;
    rng.Shuffle(&order);
    std::vector<bool> mask(num_features_, false);
    for (size_t f = 0; f < visible; ++f) mask[order[f]] = true;

    // Bootstrap sample with hidden features masked out.
    CategoricalDataset sample;
    sample.feature_names = data.feature_names;
    sample.rows.reserve(n);
    sample.labels.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      std::vector<std::string> row = data.rows[pick];
      for (size_t f = 0; f < num_features_; ++f) {
        if (mask[f]) continue;
        row[f].clear();
        row[f] += CategoricalDataset::kMissing;
      }
      sample.rows.push_back(std::move(row));
      sample.labels.push_back(data.labels[pick]);
    }
    auto tree = std::make_unique<DecisionTreeClassifier>(options_.tree);
    DDGMS_RETURN_IF_ERROR(tree->Train(sample));
    trees_.push_back(std::move(tree));
    masks_.push_back(std::move(mask));
  }
  return Status::OK();
}

Result<std::string> RandomForestClassifier::Predict(
    const std::vector<std::string>& row) const {
  if (trees_.empty()) {
    return Status::FailedPrecondition("classifier not trained");
  }
  if (row.size() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("row has %zu features; model expects %zu", row.size(),
                  num_features_));
  }
  std::unordered_map<std::string, size_t> votes;
  std::vector<std::string> masked = row;
  for (size_t t = 0; t < trees_.size(); ++t) {
    for (size_t f = 0; f < num_features_; ++f) {
      masked[f] = masks_[t][f] ? row[f] : CategoricalDataset::kMissing;
    }
    DDGMS_ASSIGN_OR_RETURN(std::string vote, trees_[t]->Predict(masked));
    votes[vote]++;
  }
  std::string best;
  size_t best_n = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_n || (count == best_n && label < best)) {
      best_n = count;
      best = label;
    }
  }
  return best;
}

}  // namespace ddgms::mining
