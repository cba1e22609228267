#include "etl/discretize.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "common/strings.h"

namespace ddgms::etl {

namespace {

double Log2(double x) { return std::log(x) / std::log(2.0); }

// Entropy (bits) of a class-count histogram.
double Entropy(const std::unordered_map<std::string, size_t>& counts,
               size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [cls, n] : counts) {
    if (n == 0) continue;
    double p = static_cast<double>(n) / static_cast<double>(total);
    h -= p * Log2(p);
  }
  return h;
}

struct LabeledPoint {
  double value;
  size_t cls;
};

// Sorted points + class id mapping shared by the supervised algorithms.
struct SupervisedInput {
  std::vector<LabeledPoint> points;  // sorted by value
  std::vector<std::string> class_names;
};

Result<SupervisedInput> PrepareSupervised(
    const std::vector<double>& data,
    const std::vector<std::string>& labels) {
  if (data.size() != labels.size()) {
    return Status::InvalidArgument(
        StrFormat("data size %zu != labels size %zu", data.size(),
                  labels.size()));
  }
  if (data.empty()) {
    return Status::InvalidArgument("no data to discretise");
  }
  SupervisedInput input;
  std::unordered_map<std::string, size_t> class_ids;
  input.points.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    auto [it, inserted] =
        class_ids.emplace(labels[i], input.class_names.size());
    if (inserted) input.class_names.push_back(labels[i]);
    input.points.push_back(LabeledPoint{data[i], it->second});
  }
  std::sort(input.points.begin(), input.points.end(),
            [](const LabeledPoint& a, const LabeledPoint& b) {
              return a.value < b.value;
            });
  return input;
}

// Entropy of points[lo, hi) over num_classes classes.
double RangeEntropy(const std::vector<LabeledPoint>& pts, size_t lo,
                    size_t hi, size_t num_classes,
                    std::vector<size_t>* counts_out = nullptr) {
  std::vector<size_t> counts(num_classes, 0);
  for (size_t i = lo; i < hi; ++i) counts[pts[i].cls]++;
  double h = 0.0;
  size_t total = hi - lo;
  size_t nonzero = 0;
  for (size_t n : counts) {
    if (n == 0) continue;
    ++nonzero;
    double p = static_cast<double>(n) / static_cast<double>(total);
    h -= p * Log2(p);
  }
  (void)nonzero;
  if (counts_out != nullptr) *counts_out = std::move(counts);
  return h;
}

size_t DistinctClasses(const std::vector<LabeledPoint>& pts, size_t lo,
                       size_t hi) {
  std::set<size_t> seen;
  for (size_t i = lo; i < hi; ++i) seen.insert(pts[i].cls);
  return seen.size();
}

// Fayyad-Irani recursive partitioning with MDL acceptance.
void FayyadIrani(const std::vector<LabeledPoint>& pts, size_t lo, size_t hi,
                 size_t num_classes, size_t depth, size_t max_depth,
                 std::set<double>* cuts) {
  const size_t n = hi - lo;
  if (n < 4 || depth >= max_depth) return;

  double parent_entropy = RangeEntropy(pts, lo, hi, num_classes);
  if (parent_entropy == 0.0) return;

  // Candidate boundaries: midpoints between adjacent distinct values.
  double best_gain = -1.0;
  size_t best_split = 0;   // index of the first point of the right part
  double best_cut = 0.0;
  double best_left_h = 0.0;
  double best_right_h = 0.0;

  // Incremental class counts for the left side.
  std::vector<size_t> left_counts(num_classes, 0);
  std::vector<size_t> total_counts(num_classes, 0);
  for (size_t i = lo; i < hi; ++i) total_counts[pts[i].cls]++;

  for (size_t i = lo; i + 1 < hi; ++i) {
    left_counts[pts[i].cls]++;
    if (pts[i + 1].value == pts[i].value) continue;  // not a boundary
    size_t left_n = i - lo + 1;
    size_t right_n = n - left_n;
    double left_h = 0.0;
    double right_h = 0.0;
    for (size_t c = 0; c < num_classes; ++c) {
      size_t ln = left_counts[c];
      size_t rn = total_counts[c] - ln;
      if (ln > 0) {
        double p = static_cast<double>(ln) / static_cast<double>(left_n);
        left_h -= p * Log2(p);
      }
      if (rn > 0) {
        double p = static_cast<double>(rn) / static_cast<double>(right_n);
        right_h -= p * Log2(p);
      }
    }
    double weighted =
        (static_cast<double>(left_n) * left_h +
         static_cast<double>(right_n) * right_h) /
        static_cast<double>(n);
    double gain = parent_entropy - weighted;
    if (gain > best_gain) {
      best_gain = gain;
      best_split = i + 1;
      best_cut = (pts[i].value + pts[i + 1].value) / 2.0;
      best_left_h = left_h;
      best_right_h = right_h;
    }
  }
  if (best_gain <= 0.0) return;

  // MDL stopping criterion (Fayyad & Irani 1993).
  double k = static_cast<double>(DistinctClasses(pts, lo, hi));
  double k1 = static_cast<double>(DistinctClasses(pts, lo, best_split));
  double k2 = static_cast<double>(DistinctClasses(pts, best_split, hi));
  double delta = Log2(std::pow(3.0, k) - 2.0) -
                 (k * parent_entropy - k1 * best_left_h - k2 * best_right_h);
  double threshold =
      (Log2(static_cast<double>(n) - 1.0) + delta) / static_cast<double>(n);
  if (best_gain <= threshold) return;

  cuts->insert(best_cut);
  FayyadIrani(pts, lo, best_split, num_classes, depth + 1, max_depth, cuts);
  FayyadIrani(pts, best_split, hi, num_classes, depth + 1, max_depth, cuts);
}

}  // namespace

Result<DiscretisationScheme> DiscretisationScheme::Make(
    std::string name, std::vector<double> cuts,
    std::vector<std::string> labels) {
  for (size_t i = 1; i < cuts.size(); ++i) {
    if (!(cuts[i - 1] < cuts[i])) {
      return Status::InvalidArgument(
          "cut points must be strictly increasing in scheme '" + name +
          "'");
    }
  }
  if (labels.size() != cuts.size() + 1) {
    return Status::InvalidArgument(
        StrFormat("scheme '%s' needs %zu labels for %zu cuts; got %zu",
                  name.c_str(), cuts.size() + 1, cuts.size(),
                  labels.size()));
  }
  DiscretisationScheme scheme;
  scheme.name_ = std::move(name);
  scheme.cuts_ = std::move(cuts);
  scheme.labels_ = std::move(labels);
  return scheme;
}

Result<DiscretisationScheme> DiscretisationScheme::MakeAutoLabeled(
    std::string name, std::vector<double> cuts) {
  std::vector<std::string> labels;
  if (cuts.empty()) {
    labels.push_back("all");
  } else {
    labels.emplace_back("<");
    labels.back() += FormatDouble(cuts.front(), 4);
    for (size_t i = 1; i < cuts.size(); ++i) {
      labels.push_back(FormatDouble(cuts[i - 1], 4) + "-" +
                       FormatDouble(cuts[i], 4));
    }
    labels.emplace_back(">=");
    labels.back() += FormatDouble(cuts.back(), 4);
  }
  return Make(std::move(name), std::move(cuts), std::move(labels));
}

size_t DiscretisationScheme::BinIndex(double value) const {
  // First cut point strictly greater than value gives the band.
  size_t lo = 0;
  size_t hi = cuts_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (value < cuts_[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::string DiscretisationScheme::ToString() const {
  std::string out = name_ + ": ";
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (i > 0) out += " | ";
    if (cuts_.empty()) {
      out += "(-inf,+inf)";
    } else if (i == 0) {
      out += '<';
      out += FormatDouble(cuts_[0], 4);
    } else if (i == labels_.size() - 1) {
      out += ">=";
      out += FormatDouble(cuts_[i - 1], 4);
    } else {
      out += '[';
      out += FormatDouble(cuts_[i - 1], 4);
      out += ',';
      out += FormatDouble(cuts_[i], 4);
      out += ')';
    }
    out += " '" + labels_[i] + "'";
  }
  return out;
}

Result<DiscretisationScheme> EqualWidthScheme(
    const std::string& name, const std::vector<double>& data,
    size_t num_bins) {
  if (data.empty()) {
    return Status::InvalidArgument("no data to discretise");
  }
  if (num_bins < 2) {
    return Status::InvalidArgument("need at least 2 bins");
  }
  auto [min_it, max_it] = std::minmax_element(data.begin(), data.end());
  double lo = *min_it;
  double hi = *max_it;
  if (lo == hi) {
    return Status::InvalidArgument("constant column cannot be binned");
  }
  std::vector<double> cuts;
  cuts.reserve(num_bins - 1);
  double width = (hi - lo) / static_cast<double>(num_bins);
  for (size_t i = 1; i < num_bins; ++i) {
    cuts.push_back(lo + width * static_cast<double>(i));
  }
  return DiscretisationScheme::MakeAutoLabeled(name, std::move(cuts));
}

Result<DiscretisationScheme> EqualFrequencyScheme(
    const std::string& name, const std::vector<double>& data,
    size_t num_bins) {
  if (data.empty()) {
    return Status::InvalidArgument("no data to discretise");
  }
  if (num_bins < 2) {
    return Status::InvalidArgument("need at least 2 bins");
  }
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> cuts;
  for (size_t i = 1; i < num_bins; ++i) {
    size_t idx = i * sorted.size() / num_bins;
    double cut = sorted[idx];
    // A cut at (or below) the minimum would leave an empty first bin.
    if (cut <= sorted.front()) continue;
    if (cuts.empty() || cut > cuts.back()) {
      cuts.push_back(cut);
    }
  }
  if (cuts.empty()) {
    return Status::InvalidArgument(
        "data too concentrated for equal-frequency binning");
  }
  return DiscretisationScheme::MakeAutoLabeled(name, std::move(cuts));
}

Result<DiscretisationScheme> EntropyMdlScheme(
    const std::string& name, const std::vector<double>& data,
    const std::vector<std::string>& labels,
    const DiscretizeOptions& options) {
  DDGMS_ASSIGN_OR_RETURN(SupervisedInput input,
                         PrepareSupervised(data, labels));
  std::set<double> cuts;
  FayyadIrani(input.points, 0, input.points.size(),
              input.class_names.size(), 0, options.max_depth, &cuts);
  return DiscretisationScheme::MakeAutoLabeled(
      name, std::vector<double>(cuts.begin(), cuts.end()));
}

Result<DiscretisationScheme> ChiMergeScheme(
    const std::string& name, const std::vector<double>& data,
    const std::vector<std::string>& labels,
    const DiscretizeOptions& options) {
  DDGMS_ASSIGN_OR_RETURN(SupervisedInput input,
                         PrepareSupervised(data, labels));
  const size_t num_classes = input.class_names.size();

  // Initial intervals: one per distinct value, with class histograms.
  struct Interval {
    double lo;  // lowest value in the interval
    std::vector<size_t> counts;
  };
  std::vector<Interval> intervals;
  for (const LabeledPoint& p : input.points) {
    if (intervals.empty() || p.value != intervals.back().lo) {
      // New distinct value: check it differs from last interval's lo.
      if (intervals.empty() || p.value > intervals.back().lo) {
        intervals.push_back(
            Interval{p.value, std::vector<size_t>(num_classes, 0)});
      }
    }
    intervals.back().counts[p.cls]++;
  }
  if (intervals.size() < 2) {
    return Status::InvalidArgument("constant column cannot be binned");
  }

  auto chi_square = [&](const Interval& a, const Interval& b) {
    double total_a = 0.0, total_b = 0.0;
    for (size_t c = 0; c < num_classes; ++c) {
      total_a += static_cast<double>(a.counts[c]);
      total_b += static_cast<double>(b.counts[c]);
    }
    double total = total_a + total_b;
    double chi = 0.0;
    for (size_t c = 0; c < num_classes; ++c) {
      double col = static_cast<double>(a.counts[c] + b.counts[c]);
      if (col == 0.0) continue;
      double ea = total_a * col / total;
      double eb = total_b * col / total;
      double da = static_cast<double>(a.counts[c]) - ea;
      double db = static_cast<double>(b.counts[c]) - eb;
      if (ea > 0.0) chi += da * da / ea;
      if (eb > 0.0) chi += db * db / eb;
    }
    return chi;
  };

  // Iteratively merge the adjacent pair with the lowest chi-square while
  // below threshold, or while over the bin budget.
  while (intervals.size() > 1) {
    double best_chi = 1e300;
    size_t best_i = 0;
    for (size_t i = 0; i + 1 < intervals.size(); ++i) {
      double chi = chi_square(intervals[i], intervals[i + 1]);
      if (chi < best_chi) {
        best_chi = chi;
        best_i = i;
      }
    }
    bool over_budget = intervals.size() > options.max_bins;
    if (best_chi >= options.chi_threshold && !over_budget) break;
    for (size_t c = 0; c < num_classes; ++c) {
      intervals[best_i].counts[c] += intervals[best_i + 1].counts[c];
    }
    intervals.erase(intervals.begin() + static_cast<ptrdiff_t>(best_i) + 1);
  }

  std::vector<double> cuts;
  cuts.reserve(intervals.size() - 1);
  for (size_t i = 1; i < intervals.size(); ++i) {
    cuts.push_back(intervals[i].lo);
  }
  return DiscretisationScheme::MakeAutoLabeled(name, std::move(cuts));
}

Status ApplyScheme(Table* table, const std::string& source_column,
                   const DiscretisationScheme& scheme,
                   const std::string& output_column) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  DDGMS_ASSIGN_OR_RETURN(const ColumnVector* src,
                         table->ColumnByName(source_column));
  if (!IsNumeric(src->type()) && src->type() != DataType::kBool) {
    return Status::InvalidArgument(
        StrFormat("column '%s' of type %s cannot be discretised",
                  source_column.c_str(), DataTypeName(src->type())));
  }
  ColumnVector out(output_column, DataType::kString);
  const size_t n = src->size();
  for (size_t i = 0; i < n; ++i) {
    if (src->IsNull(i)) {
      out.AppendNull();
      continue;
    }
    DDGMS_ASSIGN_OR_RETURN(double v, src->NumericAt(i));
    out.AppendString(scheme.LabelFor(v));
  }
  return table->AddColumn(std::move(out));
}

Result<DiscretisationQuality> EvaluateScheme(
    const DiscretisationScheme& scheme, const std::vector<double>& data,
    const std::vector<std::string>& labels) {
  if (data.size() != labels.size() || data.empty()) {
    return Status::InvalidArgument("data/labels size mismatch or empty");
  }
  // Per-band class histograms.
  std::vector<std::unordered_map<std::string, size_t>> band_counts(
      scheme.num_bins());
  std::vector<size_t> band_totals(scheme.num_bins(), 0);
  std::unordered_map<std::string, size_t> class_counts;
  for (size_t i = 0; i < data.size(); ++i) {
    size_t b = scheme.BinIndex(data[i]);
    band_counts[b][labels[i]]++;
    band_totals[b]++;
    class_counts[labels[i]]++;
  }
  DiscretisationQuality q;
  q.num_bins = scheme.num_bins();
  q.class_entropy = Entropy(class_counts, data.size());
  double cond = 0.0;
  size_t min_pop = data.size();
  for (size_t b = 0; b < scheme.num_bins(); ++b) {
    if (band_totals[b] == 0) {
      min_pop = 0;
      continue;
    }
    double w = static_cast<double>(band_totals[b]) /
               static_cast<double>(data.size());
    cond += w * Entropy(band_counts[b], band_totals[b]);
    min_pop = std::min(min_pop, band_totals[b]);
  }
  q.conditional_entropy = cond;
  q.information_gain = q.class_entropy - cond;
  q.min_bin_fraction = static_cast<double>(min_pop) /
                       static_cast<double>(data.size());
  return q;
}

}  // namespace ddgms::etl
