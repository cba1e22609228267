#include "discri/cohort.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"

namespace ddgms::discri {

double DiabetesPrevalence(int age, const std::string& gender) {
  bool male = gender == "M";
  if (age < 40) return 0.04;
  if (age < 50) return male ? 0.07 : 0.06;
  if (age < 55) return male ? 0.10 : 0.09;
  if (age < 60) return male ? 0.13 : 0.12;
  if (age < 65) return male ? 0.17 : 0.16;
  if (age < 70) return male ? 0.21 : 0.20;
  // Fig 5: males clearly dominate 70-75 even though the clinic's
  // attendance skews female at these ages.
  if (age < 75) return male ? 0.40 : 0.16;
  if (male) return 0.24;
  // Females peak in 75-78 (Fig 5: females majority in 75-80) then the
  // proportion "drops substantially over 78".
  if (age < 78) return 0.31;
  return std::max(0.07, 0.31 - 0.04 * static_cast<double>(age - 78));
}

std::vector<double> HtDurationWeights(int age) {
  if (age < 50) return {0.35, 0.35, 0.20, 0.09, 0.01};
  if (age < 60) return {0.25, 0.30, 0.25, 0.15, 0.05};
  if (age < 70) return {0.20, 0.26, 0.24, 0.20, 0.10};
  // Fig 6: marked drop of 5-10-year durations in the 70-75 and 75-80
  // sub-bands.
  if (age < 80) return {0.24, 0.27, 0.07, 0.26, 0.16};
  return {0.15, 0.20, 0.20, 0.28, 0.17};
}

namespace {

struct Patient {
  std::string id;
  std::string gender;
  std::string education;
  bool fam_diabetes = false;
  bool fam_heart = false;
  std::string smoker;
  int age_first = 60;
  Date first_visit;
  size_t num_visits = 1;
  double bmi_base = 27.0;
  bool diabetic = false;
  double diabetes_years_first = 0.0;  // duration at first visit
  bool latent_prediabetic = false;
  bool has_ht = false;          // ever develops hypertension
  double ht_onset_age = 200.0;  // age at diagnosis (may be mid-study)
  bool can = false;  // cardiovascular autonomic neuropathy
};

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

std::string PickCategory(Rng* rng, const std::vector<double>& weights,
                         const std::vector<std::string>& labels) {
  return labels[rng->Categorical(weights)];
}

Patient MakePatient(size_t index, const CohortOptions& opt, Rng* rng) {
  Patient p;
  p.id = StrFormat("P%04zu", index + 1);
  p.gender += rng->Bernoulli(0.55) ? "F" : "M";
  p.education = PickCategory(
      rng, {0.25, 0.40, 0.25, 0.10},
      {"primary", "secondary", "tertiary", "postgraduate"});
  p.fam_diabetes = rng->Bernoulli(0.30);
  p.fam_heart = rng->Bernoulli(0.25);
  p.smoker =
      PickCategory(rng, {0.55, 0.30, 0.15}, {"never", "former", "current"});

  double mean_age = p.gender == "F" ? 64.0 : 61.0;
  p.age_first =
      static_cast<int>(std::lround(Clamp(rng->Gaussian(mean_age, 11.5),
                                         35.0, 93.0)));
  int year = static_cast<int>(
      rng->UniformInt(opt.first_visit_year_min, opt.first_visit_year_max));
  int month = static_cast<int>(rng->UniformInt(1, 12));
  int day = static_cast<int>(rng->UniformInt(1, 28));
  p.first_visit = Date::FromYmd(year, month, day).value();
  p.num_visits = static_cast<size_t>(
      rng->Categorical({0.25, 0.25, 0.20, 0.15, 0.10, 0.05}) + 1);

  p.bmi_base = Clamp(rng->Gaussian(27.2 + (p.fam_diabetes ? 0.8 : 0.0),
                                   4.3),
                     17.0, 48.0);

  // Diabetes status from the published prevalence shape, tilted by the
  // patient's risk factors (tilt normalized so band means stay on the
  // published curve).
  double prev = DiabetesPrevalence(p.age_first, p.gender);
  double tilt = 1.0 + (p.fam_diabetes ? 0.35 : 0.0) +
                (p.bmi_base > 30.0 ? 0.25 : 0.0);
  double p_diab = Clamp(prev * tilt / 1.18, 0.0, 0.85);
  p.diabetic = rng->Bernoulli(p_diab);
  if (p.diabetic) {
    double max_dur = std::min(18.0, static_cast<double>(p.age_first - 32));
    p.diabetes_years_first = rng->Uniform(0.0, std::max(1.0, max_dur));
  } else {
    double p_pre = 0.10 + (p.bmi_base > 28.0 ? 0.10 : 0.0) +
                   (p.fam_diabetes ? 0.07 : 0.0);
    p.latent_prediabetic = rng->Bernoulli(p_pre);
  }

  double p_ht = Clamp(0.08 + 0.009 * static_cast<double>(p.age_first - 40),
                      0.05, 0.60);
  p.has_ht = rng->Bernoulli(p_ht);
  if (p.has_ht) {
    // Expected age span of this patient's attendances.
    double span = 1.2 * static_cast<double>(p.num_visits - 1) + 0.5;
    double age_last = static_cast<double>(p.age_first) + span;
    bool visits_70s = age_last >= 70.0 && p.age_first < 80;
    if (visits_70s) {
      // Fig 6 structure: durations observed in the 70-80 band cluster
      // either long-standing (>= 10 years at every visit) or recently
      // diagnosed (< 5 years through the last visit), with a thin
      // middle — producing the published 5-10-year dip.
      double r = rng->NextDouble();
      if (r < 0.42) {
        // Long-standing: already >= 10 years at the first visit.
        p.ht_onset_age = static_cast<double>(p.age_first) -
                         rng->Uniform(10.5, 25.0);
      } else if (r < 0.95) {
        // Recent: at most ~4.9 years by the final visit (diagnosis may
        // land mid-study; earlier visits show no hypertension).
        p.ht_onset_age = age_last - rng->Uniform(1.5, 4.9);
      } else {
        // Thin middle keeps a few 5-10-year readings (the dip is a
        // drop, not a void).
        p.ht_onset_age = static_cast<double>(p.age_first) -
                         rng->Uniform(4.0, 10.0);
      }
      p.ht_onset_age = std::max(32.0, p.ht_onset_age);
    } else {
      std::vector<double> weights = HtDurationWeights(p.age_first);
      size_t bucket = rng->Categorical(weights);
      double duration = 0.0;
      switch (bucket) {
        case 0: duration = rng->Uniform(0.1, 2.0); break;
        case 1: duration = rng->Uniform(2.0, 5.0); break;
        case 2: duration = rng->Uniform(5.0, 10.0); break;
        case 3: duration = rng->Uniform(10.0, 20.0); break;
        default:
          duration = rng->Uniform(
              20.0, std::max(21.0, std::min(
                                30.0,
                                static_cast<double>(p.age_first - 25))));
          break;
      }
      p.ht_onset_age =
          std::max(30.0, static_cast<double>(p.age_first) - duration);
    }
  }

  double p_can =
      Clamp(0.04 + (p.diabetic ? 0.03 * p.diabetes_years_first : 0.0) +
                0.002 * static_cast<double>(std::max(0, p.age_first - 50)),
            0.0, 0.65);
  p.can = rng->Bernoulli(p_can);
  return p;
}

}  // namespace

Result<Table> GenerateCohort(const CohortOptions& options) {
  if (options.num_patients == 0) {
    return Status::InvalidArgument("num_patients must be positive");
  }
  std::vector<Field> fields = {
      {"RecordId", DataType::kInt64},
      {"PatientId", DataType::kString},
      {"VisitDate", DataType::kDate},
      {"Age", DataType::kInt64},
      {"Gender", DataType::kString},
      {"Education", DataType::kString},
      {"FamilyHistoryDiabetes", DataType::kString},
      {"FamilyHistoryHeartDisease", DataType::kString},
      {"Smoker", DataType::kString},
      {"ExerciseRoutine", DataType::kString},
      {"BMI", DataType::kDouble},
      {"FBG", DataType::kDouble},
      {"HbA1c", DataType::kDouble},
      {"TotalCholesterol", DataType::kDouble},
      {"HDL", DataType::kDouble},
      {"LDL", DataType::kDouble},
      {"Triglycerides", DataType::kDouble},
      {"LyingSBPAverage", DataType::kDouble},
      {"LyingDBPAverage", DataType::kDouble},
      {"StandingSBPAverage", DataType::kDouble},
      {"StandingDBPAverage", DataType::kDouble},
      {"eGFR", DataType::kDouble},
      {"ACR", DataType::kDouble},
      {"KneeReflexes", DataType::kString},
      {"AnkleReflexes", DataType::kString},
      {"Monofilament", DataType::kString},
      {"EwingDeepBreathing", DataType::kDouble},
      {"EwingValsalva", DataType::kDouble},
      {"Ewing3015", DataType::kDouble},
      {"EwingPosturalDrop", DataType::kDouble},
      {"EwingHandGrip", DataType::kDouble},
      {"EwingCategory", DataType::kString},
      {"ECGHeartRate", DataType::kDouble},
      {"QTc", DataType::kDouble},
      {"MedAntihypertensive", DataType::kBool},
      {"MedStatin", DataType::kBool},
      {"MedMetformin", DataType::kBool},
      {"MedInsulin", DataType::kBool},
      {"DiabetesStatus", DataType::kString},
      {"DiabetesYears", DataType::kDouble},
      {"HypertensionStatus", DataType::kString},
      {"DiagnosticHTYears", DataType::kDouble},
      {"CRP", DataType::kDouble},
      {"IL6", DataType::kDouble},
      {"TNFa", DataType::kDouble},
      {"UricAcid", DataType::kDouble},
      {"Ferritin", DataType::kDouble},
      {"MDA", DataType::kDouble},
      {"GSH", DataType::kDouble},
      {"Homocysteine", DataType::kDouble},
      {"VitaminD", DataType::kDouble},
  };
  DDGMS_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table table(std::move(schema));

  Rng rng(options.seed);
  int64_t record_id = 1;
  for (size_t pi = 0; pi < options.num_patients; ++pi) {
    Patient p = MakePatient(pi, options, &rng);
    Date visit_date = p.first_visit;
    double years_since_first = 0.0;
    double bmi = p.bmi_base;
    for (size_t v = 0; v < p.num_visits; ++v) {
      if (v > 0) {
        double gap = std::max(0.4, rng.Gaussian(1.1, 0.3));
        years_since_first += gap;
        visit_date = p.first_visit.AddDays(
            static_cast<int32_t>(std::lround(years_since_first * 365.25)));
      }
      int age = p.age_first + static_cast<int>(years_since_first);
      double diab_years = p.diabetic
                              ? p.diabetes_years_first + years_since_first
                              : 0.0;
      bool male = p.gender == "M";

      bmi = Clamp(bmi + rng.Gaussian(0.05, 0.5), 16.0, 50.0);

      // Fasting bloods.
      double fbg;
      if (p.diabetic) {
        fbg = std::max(5.8, rng.Gaussian(8.2 + 0.12 * diab_years, 1.4));
      } else if (p.latent_prediabetic) {
        fbg = Clamp(rng.Gaussian(6.5, 0.35), 5.6, 7.8);
      } else {
        fbg = Clamp(rng.Gaussian(5.05, 0.45), 3.4, 6.4);
      }
      double hba1c = std::max(4.0, 2.6 + 0.52 * fbg + rng.Gaussian(0, 0.35));

      bool statin = rng.Bernoulli(
          Clamp(0.20 + (p.diabetic ? 0.30 : 0.0) + 0.002 * (age - 50),
                0.0, 0.8));
      double tc = std::max(2.5, rng.Gaussian(5.5, 0.95) -
                                    (statin ? 1.0 : 0.0) +
                                    (p.fam_heart ? 0.25 : 0.0));
      double hdl = Clamp(rng.Gaussian(male ? 1.22 : 1.45, 0.28) -
                             (p.diabetic ? 0.12 : 0.0),
                         0.5, 3.0);
      double tg = Clamp(std::exp(rng.Gaussian(
                            0.25 + (p.diabetic ? 0.3 : 0.0) +
                                (bmi > 30 ? 0.2 : 0.0),
                            0.45)),
                        0.3, 9.0);
      double ldl = std::max(0.4, tc - hdl - tg / 2.2 + rng.Gaussian(0, 0.2));

      // Hypertension status as of this visit (may switch on mid-study).
      double age_frac =
          static_cast<double>(p.age_first) + years_since_first;
      bool ht_active = p.has_ht && age_frac >= p.ht_onset_age;
      double ht_years = ht_active ? age_frac - p.ht_onset_age : 0.0;

      // Blood pressure (lying and standing).
      bool med_ht = ht_active && rng.Bernoulli(0.85);
      double sbp = rng.Gaussian(112 + 0.45 * (age - 40) +
                                    (ht_active ? 18.0 : 0.0) -
                                    (med_ht ? 8.0 : 0.0),
                                8.0);
      double dbp = rng.Gaussian(68 + 0.10 * (age - 40) +
                                    (ht_active ? 9.0 : 0.0) -
                                    (med_ht ? 5.0 : 0.0),
                                6.0);
      sbp = Clamp(sbp, 85, 230);
      dbp = Clamp(dbp, 45, 130);
      double postural_sbp_drop = p.can ? std::max(0.0, rng.Gaussian(22, 8))
                                       : std::max(0.0, rng.Gaussian(4, 4));
      double standing_sbp = std::max(70.0, sbp - postural_sbp_drop);
      double standing_dbp = std::max(
          40.0, dbp - (p.can ? std::max(0.0, rng.Gaussian(8, 4))
                             : std::max(0.0, rng.Gaussian(1, 3))));

      // Kidney function.
      double egfr = Clamp(rng.Gaussian(100 - 0.8 * (age - 40) -
                                           (p.diabetic
                                                ? 0.9 * diab_years
                                                : 0.0),
                                       10.0),
                          8.0, 130.0);
      double acr = Clamp(
          std::exp(rng.Gaussian(0.7 + (p.diabetic ? 0.5 : 0.0), 0.8)),
          0.1, 300.0);

      // Limb health. Absent reflexes track neuropathy and — per the
      // AWSum finding — also appear with mid-range (preDiabetic)
      // glucose.
      double p_absent = 0.04;
      if (fbg >= 6.1 && fbg < 7.0) p_absent += 0.12;
      if (p.diabetic && diab_years > 5) p_absent += 0.22;
      if (p.can) p_absent += 0.15;
      p_absent = Clamp(p_absent, 0.0, 0.7);
      double p_reduced = Clamp(0.10 + p_absent * 0.8, 0.0, 0.9 - p_absent);
      auto sample_reflex = [&]() {
        return PickCategory(&rng,
                            {1.0 - p_absent - p_reduced, p_reduced,
                             p_absent},
                            {"normal", "reduced", "absent"});
      };
      std::string knee = sample_reflex();
      std::string ankle = sample_reflex();
      std::string monofilament = PickCategory(
          &rng,
          {Clamp(1.0 - p_absent * 1.2, 0.1, 1.0),
           Clamp(p_absent * 0.8, 0.0, 0.6),
           Clamp(p_absent * 0.4, 0.0, 0.4)},
          {"normal", "reduced", "absent"});

      // Ewing battery of autonomic function tests.
      double deep_breathing = std::max(
          1.0, rng.Gaussian(18 - 0.15 * (age - 40) - (p.can ? 8.0 : 0.0),
                            4.5));
      double valsalva = Clamp(
          rng.Gaussian(1.45 - (p.can ? 0.25 : 0.0), 0.15), 0.95, 2.2);
      double ratio3015 = Clamp(
          rng.Gaussian(1.12 - (p.can ? 0.10 : 0.0), 0.07), 0.85, 1.5);
      double postural_drop = postural_sbp_drop;
      double handgrip = std::max(
          0.0, rng.Gaussian(20 - (p.can ? 9.0 : 0.0), 6.0));
      double p_handgrip_missing = age < 60    ? 0.05
                                  : age < 70  ? 0.15
                                  : age < 80  ? 0.35
                                              : 0.55;
      bool handgrip_missing = rng.Bernoulli(p_handgrip_missing);

      int abnormal = 0;
      if (deep_breathing < 10) ++abnormal;
      if (valsalva < 1.21) ++abnormal;
      if (ratio3015 < 1.04) ++abnormal;
      if (postural_drop > 20) ++abnormal;
      if (!handgrip_missing && handgrip < 10) ++abnormal;
      std::string ewing_category;
      if (abnormal == 0) {
        ewing_category = "normal";
      } else if (abnormal == 1) {
        ewing_category = rng.Bernoulli(0.12) ? "atypical" : "early";
      } else if (abnormal == 2) {
        ewing_category = "definite";
      } else {
        ewing_category = "severe";
      }

      // ECG summary.
      double heart_rate = Clamp(
          rng.Gaussian(72 + (p.diabetic ? 2.5 : 0.0), 9.0), 42, 130);
      double qtc = Clamp(rng.Gaussian(405 + (p.can ? 18.0 : 0.0) +
                                          (male ? 0.0 : 8.0),
                                      18.0),
                         350, 520);

      bool metformin = p.diabetic && rng.Bernoulli(0.8);
      bool insulin = p.diabetic && diab_years > 8 && rng.Bernoulli(0.35);

      std::string exercise = PickCategory(
          &rng,
          {0.20 + 0.004 * (age - 40) + (p.diabetic ? 0.08 : 0.0),
           0.35, 0.30, std::max(0.03, 0.15 - 0.003 * (age - 40))},
          {"sedentary", "light", "moderate", "vigorous"});

      // Biomarkers (inflammatory + oxidative stress panels).
      double crp = Clamp(std::exp(rng.Gaussian(
                             0.6 + (p.diabetic ? 0.3 : 0.0) +
                                 (bmi > 30 ? 0.2 : 0.0),
                             0.7)),
                         0.1, 80.0);
      double il6 = Clamp(
          std::exp(rng.Gaussian(0.5 + (p.diabetic ? 0.25 : 0.0), 0.6)),
          0.1, 40.0);
      double tnfa = Clamp(
          std::exp(rng.Gaussian(0.7 + (p.diabetic ? 0.2 : 0.0), 0.5)),
          0.2, 30.0);
      double uric = Clamp(
          rng.Gaussian(0.32 + (male ? 0.03 : 0.0), 0.07), 0.1, 0.7);
      double ferritin = Clamp(
          std::exp(rng.Gaussian(male ? 4.6 : 4.0, 0.6)), 5.0, 1200.0);
      double mda = Clamp(rng.Gaussian(1.8 + (p.diabetic ? 0.5 : 0.0) +
                                          (p.can ? 0.3 : 0.0),
                                      0.5),
                         0.4, 6.0);
      double gsh = Clamp(rng.Gaussian(900 - (p.diabetic ? 120.0 : 0.0) -
                                          (p.can ? 60.0 : 0.0),
                                      150.0),
                         250, 1500);
      double homocysteine = Clamp(
          std::exp(rng.Gaussian(2.3 + (age > 65 ? 0.15 : 0.0), 0.3)), 4.0,
          60.0);
      double vitamin_d = Clamp(rng.Gaussian(62, 20), 12, 160);

      // Entry errors on measurement cells (cleaned by the ETL stage).
      auto with_error = [&](double v, double bad) {
        return rng.Bernoulli(options.error_rate) ? bad : v;
      };
      double fbg_out = with_error(fbg, fbg * 10.0);
      double sbp_out = with_error(sbp, 999.0);
      double dbp_out = with_error(dbp, -dbp);
      double bmi_out = with_error(bmi, bmi * 10.0);

      // MCAR missingness.
      auto core = [&](double v) {
        return rng.Bernoulli(options.core_missing_rate)
                   ? Value::Null()
                   : Value::Real(v);
      };
      auto bio = [&](double v) {
        return rng.Bernoulli(options.biomarker_missing_rate)
                   ? Value::Null()
                   : Value::Real(v);
      };

      Row row = {
          Value::Int(record_id++),
          Value::Str(p.id),
          Value::FromDate(visit_date),
          Value::Int(age),
          Value::Str(p.gender),
          Value::Str(p.education),
          Value::Str(p.fam_diabetes ? "Yes" : "No"),
          Value::Str(p.fam_heart ? "Yes" : "No"),
          Value::Str(p.smoker),
          Value::Str(exercise),
          core(bmi_out),
          core(fbg_out),
          core(hba1c),
          core(tc),
          core(hdl),
          core(ldl),
          core(tg),
          core(sbp_out),
          core(dbp_out),
          core(standing_sbp),
          core(standing_dbp),
          core(egfr),
          bio(acr),
          Value::Str(knee),
          Value::Str(ankle),
          Value::Str(monofilament),
          core(deep_breathing),
          core(valsalva),
          core(ratio3015),
          core(postural_drop),
          handgrip_missing ? Value::Null() : Value::Real(handgrip),
          Value::Str(ewing_category),
          core(heart_rate),
          core(qtc),
          Value::Bool(med_ht),
          Value::Bool(statin),
          Value::Bool(metformin),
          Value::Bool(insulin),
          Value::Str(p.diabetic ? "Type2" : "No"),
          p.diabetic ? Value::Real(diab_years) : Value::Null(),
          Value::Str(ht_active ? "Yes" : "No"),
          ht_active ? Value::Real(ht_years) : Value::Null(),
          bio(crp),
          bio(il6),
          bio(tnfa),
          bio(uric),
          bio(ferritin),
          bio(mda),
          bio(gsh),
          bio(homocysteine),
          bio(vitamin_d),
      };
      DDGMS_RETURN_IF_ERROR(table.AppendRow(row));
    }
  }
  return table;
}

}  // namespace ddgms::discri
