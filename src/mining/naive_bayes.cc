#include "mining/naive_bayes.h"

#include <cmath>
#include <unordered_set>

#include "common/strings.h"

namespace ddgms::mining {

Status NaiveBayesClassifier::Train(const CategoricalDataset& data) {
  if (data.rows.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  num_features_ = data.feature_names.size();
  feature_names_ = data.feature_names;
  classes_ = data.DistinctLabels();
  std::unordered_map<std::string, size_t> class_index;
  for (size_t c = 0; c < classes_.size(); ++c) {
    class_index[classes_[c]] = c;
  }
  class_totals_.assign(classes_.size(), 0);
  counts_.assign(num_features_,
                 std::vector<std::unordered_map<std::string, size_t>>(
                     classes_.size()));
  std::vector<std::unordered_set<std::string>> values(num_features_);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    size_t c = class_index.at(data.labels[i]);
    ++class_totals_[c];
    for (size_t f = 0; f < num_features_; ++f) {
      const std::string& v = data.rows[i][f];
      if (v == CategoricalDataset::kMissing) continue;
      counts_[f][c][v]++;
      values[f].insert(v);
    }
  }
  feature_arity_.resize(num_features_);
  for (size_t f = 0; f < num_features_; ++f) {
    feature_arity_[f] = values[f].empty() ? 1 : values[f].size();
  }
  class_log_prior_.resize(classes_.size());
  double total = static_cast<double>(data.rows.size());
  for (size_t c = 0; c < classes_.size(); ++c) {
    class_log_prior_[c] =
        std::log(static_cast<double>(class_totals_[c]) / total);
  }
  trained_ = true;
  return Status::OK();
}

Result<std::vector<std::pair<std::string, double>>>
NaiveBayesClassifier::Scores(const std::vector<std::string>& row) const {
  if (!trained_) {
    return Status::FailedPrecondition("classifier not trained");
  }
  if (row.size() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("row has %zu features; model expects %zu", row.size(),
                  num_features_));
  }
  std::vector<std::pair<std::string, double>> scores;
  scores.reserve(classes_.size());
  for (size_t c = 0; c < classes_.size(); ++c) {
    double log_p = class_log_prior_[c];
    for (size_t f = 0; f < num_features_; ++f) {
      const std::string& v = row[f];
      if (v == CategoricalDataset::kMissing) continue;
      auto it = counts_[f][c].find(v);
      double count = it == counts_[f][c].end()
                         ? 0.0
                         : static_cast<double>(it->second);
      double denom =
          static_cast<double>(class_totals_[c]) +
          alpha_ * static_cast<double>(feature_arity_[f]);
      log_p += std::log((count + alpha_) / denom);
    }
    scores.emplace_back(classes_[c], log_p);
  }
  return scores;
}

Result<std::vector<std::pair<std::string, double>>>
NaiveBayesClassifier::Posterior(
    const std::vector<std::string>& row) const {
  DDGMS_ASSIGN_OR_RETURN(auto scores, Scores(row));
  // Log-sum-exp normalization.
  double max_log = scores[0].second;
  for (const auto& [cls, lp] : scores) max_log = std::max(max_log, lp);
  double total = 0.0;
  for (auto& [cls, lp] : scores) {
    lp = std::exp(lp - max_log);
    total += lp;
  }
  for (auto& [cls, lp] : scores) lp /= total;
  return scores;
}

namespace {

double PosteriorEntropy(
    const std::vector<std::pair<std::string, double>>& posterior) {
  double h = 0.0;
  for (const auto& [cls, p] : posterior) {
    if (p > 1e-15) h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

Result<std::vector<NaiveBayesClassifier::AcquisitionValue>>
NaiveBayesClassifier::ValueOfInformation(
    const std::vector<std::string>& row) const {
  DDGMS_ASSIGN_OR_RETURN(auto posterior, Posterior(row));
  double current_entropy = PosteriorEntropy(posterior);

  std::vector<AcquisitionValue> out;
  std::vector<std::string> probe = row;
  for (size_t f = 0; f < num_features_; ++f) {
    if (row[f] != CategoricalDataset::kMissing) continue;
    // Candidate values of feature f with their evidence-conditioned
    // probabilities: P(v | posterior) = sum_c P(c|row) P(v|c).
    std::unordered_map<std::string, double> value_prob;
    for (size_t c = 0; c < classes_.size(); ++c) {
      double class_p = posterior[c].second;
      double denom = static_cast<double>(class_totals_[c]) +
                     alpha_ * static_cast<double>(feature_arity_[f]);
      for (const auto& [value, count] : counts_[f][c]) {
        value_prob[value] +=
            class_p * (static_cast<double>(count) + alpha_) / denom;
      }
    }
    double total_vp = 0.0;
    for (const auto& [value, p] : value_prob) total_vp += p;
    if (total_vp <= 0.0) continue;

    double expected_entropy = 0.0;
    for (const auto& [value, p] : value_prob) {
      probe[f] = value;
      auto hypothetical = Posterior(probe);
      if (!hypothetical.ok()) continue;
      expected_entropy +=
          (p / total_vp) * PosteriorEntropy(*hypothetical);
    }
    probe[f].clear();
    probe[f] += CategoricalDataset::kMissing;
    out.push_back(AcquisitionValue{
        feature_names_[f],
        std::max(0.0, current_entropy - expected_entropy)});
  }
  std::sort(out.begin(), out.end(),
            [](const AcquisitionValue& a, const AcquisitionValue& b) {
              if (a.expected_entropy_reduction !=
                  b.expected_entropy_reduction) {
                return a.expected_entropy_reduction >
                       b.expected_entropy_reduction;
              }
              return a.feature < b.feature;
            });
  return out;
}

Result<std::string> NaiveBayesClassifier::Predict(
    const std::vector<std::string>& row) const {
  DDGMS_ASSIGN_OR_RETURN(auto scores, Scores(row));
  size_t best = 0;
  for (size_t c = 1; c < scores.size(); ++c) {
    if (scores[c].second > scores[best].second) best = c;
  }
  return scores[best].first;
}

}  // namespace ddgms::mining
