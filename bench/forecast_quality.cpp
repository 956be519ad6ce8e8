// Ablation A5: working-service forecasting + proactive adaptation
// (DESIGN.md extension; the paper's related work [6][8] territory).
//
// Part 1 — one-step-ahead forecast accuracy of MA / SES / Holt / AR(p)
// over per-pair response-time series drawn from the dataset.
// Part 2 — reactive vs proactive (forecast-triggered) adaptation in the
// end-to-end simulation.
#include <iostream>

#include "adapt/proactive_policy.h"
#include "adapt/simulation.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "exp/scale.h"
#include "forecast/autoregressive.h"
#include "forecast/evaluation.h"
#include "forecast/exponential_smoothing.h"
#include "forecast/moving_average.h"

int main() {
  using namespace amf;
  exp::ExperimentScale base = exp::SmallScale();
  base.users = 60;
  base.services = 200;
  base.slices = 64;
  const exp::ExperimentScale scale = exp::ApplyEnvOverrides(base);
  const auto dataset = exp::MakeDataset(scale);
  std::cout << "=== A5: working-service QoS forecasting ("
            << exp::Describe(scale) << ") ===\n\n";

  // Part 1: per-pair series, averaged metrics.
  std::vector<std::unique_ptr<forecast::Forecaster>> protos;
  protos.push_back(std::make_unique<forecast::MovingAverage>(1));
  protos.push_back(std::make_unique<forecast::MovingAverage>(4));
  protos.push_back(
      std::make_unique<forecast::SimpleExponentialSmoothing>(0.3));
  protos.push_back(std::make_unique<forecast::HoltLinear>(0.4, 0.1));
  protos.push_back(std::make_unique<forecast::AutoRegressive>(3, 32));

  common::Rng rng(scale.seed);
  const std::size_t kPairs = 200;
  std::vector<forecast::ForecastMetrics> sums(protos.size());
  std::vector<double> mre_sums(protos.size(), 0.0);
  std::vector<double> mae_sums(protos.size(), 0.0);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto u = static_cast<data::UserId>(rng.Index(scale.users));
    const auto s = static_cast<data::ServiceId>(rng.Index(scale.services));
    std::vector<double> series;
    series.reserve(scale.slices);
    for (data::SliceId t = 0; t < scale.slices; ++t) {
      series.push_back(
          dataset->Value(data::QoSAttribute::kResponseTime, u, s, t));
    }
    for (std::size_t f = 0; f < protos.size(); ++f) {
      const forecast::ForecastMetrics m =
          forecast::EvaluateOneStep(*protos[f], series, 4);
      mre_sums[f] += m.mre;
      mae_sums[f] += m.mae;
    }
  }
  common::TablePrinter part1({"forecaster", "mean MRE", "mean MAE (s)"});
  for (std::size_t f = 0; f < protos.size(); ++f) {
    part1.AddRow(protos[f]->name(),
                 {mre_sums[f] / kPairs, mae_sums[f] / kPairs});
  }
  std::cout << "(1) one-step-ahead forecast accuracy over " << kPairs
            << " series:\n"
            << part1.ToString() << "\n";

  // Part 2: reactive vs proactive adaptation.
  data::SyntheticConfig dcfg;
  dcfg.users = 30;
  dcfg.services = 18;
  dcfg.slices = 48;
  dcfg.seed = scale.seed;
  const data::SyntheticQoSDataset adapt_dataset(dcfg);
  // Tight SLA: smooth QoS drift regularly crosses it, which is the regime
  // where forecasting the trend (Holt) can beat reacting to observations.
  const double sla = 1.2;

  common::TablePrinter part2(
      {"policy", "violation rate", "mean RT (s)", "adaptations"});
  for (int mode = 0; mode < 2; ++mode) {
    adapt::Environment env(adapt_dataset, 900.0);
    env.AddOutage({0, 10 * 900.0, 25 * 900.0});
    adapt::QoSPredictionService service;
    for (std::size_t u = 0; u < 20; ++u) {
      service.RegisterUser(std::string("u").append(std::to_string(u)));
    }
    for (std::size_t s = 0; s < adapt_dataset.num_services(); ++s) {
      service.RegisterService(std::string("s").append(std::to_string(s)));
    }
    adapt::PredictedBestPolicy reactive(service);
    forecast::HoltLinear holt(0.5, 0.3);  // trend-extrapolating
    adapt::ProactivePolicy proactive(reactive, holt);
    adapt::AdaptationPolicy& policy =
        mode == 0 ? static_cast<adapt::AdaptationPolicy&>(reactive)
                  : static_cast<adapt::AdaptationPolicy&>(proactive);

    adapt::SimulationConfig cfg;
    cfg.ticks = 48;
    adapt::AdaptationSimulation sim(env, &service, cfg);
    for (data::UserId u = 0; u < 20; ++u) {
      adapt::Workflow wf({{"a", {0, 1, 2, 3, 4, 5}},
                          {"b", {6, 7, 8, 9, 10, 11}},
                          {"c", {12, 13, 14, 15, 16, 17}}});
      for (std::size_t i = 0; i < wf.num_tasks(); ++i) {
        const auto& cands = wf.task(i).candidates;
        wf.Rebind(i, cands[(u + i) % cands.size()]);
      }
      sim.AddApplication(u, std::move(wf), policy, sla);
    }
    sim.Run();
    const adapt::AppStats st = sim.TotalStats();
    part2.AddRow({mode == 0 ? "reactive (amf)" : "proactive (holt+amf)",
                  common::FormatFixed(st.ViolationRate(), 4),
                  common::FormatFixed(st.MeanRt(), 3),
                  std::to_string(st.adaptations)});
  }
  std::cout << "(2) reactive vs proactive adaptation:\n"
            << part2.ToString() << "\n";
  std::cout << "expected: AR(3) best (or tied) on MRE. With this "
               "environment's noise-dominated drift the proactive policy "
               "is roughly on par with reactive (forecastable trends are "
               "mild); its value shows on trendier workloads.\n";
  return 0;
}
