#include "mcs/partition/registry.hpp"

#include <stdexcept>

#include "mcs/partition/demand_ffd.hpp"
#include "mcs/partition/fp_amc.hpp"
#include "mcs/partition/ud_tpa.hpp"

namespace mcs::partition {

PartitionerList paper_schemes(double alpha) {
  PartitionerList out;
  out.push_back(std::make_unique<ClassicPartitioner>(FitRule::kWorst));
  out.push_back(std::make_unique<ClassicPartitioner>(FitRule::kFirst));
  out.push_back(std::make_unique<ClassicPartitioner>(FitRule::kBest));
  out.push_back(std::make_unique<HybridPartitioner>());
  out.push_back(
      std::make_unique<CaTpaPartitioner>(CaTpaOptions{.alpha = alpha}));
  return out;
}

std::unique_ptr<Partitioner> make_scheme(const std::string& name,
                                         double alpha) {
  if (name == "WFD") {
    return std::make_unique<ClassicPartitioner>(FitRule::kWorst);
  }
  if (name == "FFD") {
    return std::make_unique<ClassicPartitioner>(FitRule::kFirst);
  }
  if (name == "BFD") {
    return std::make_unique<ClassicPartitioner>(FitRule::kBest);
  }
  if (name == "Hybrid") {
    return std::make_unique<HybridPartitioner>();
  }
  if (name == "CA-TPA") {
    return std::make_unique<CaTpaPartitioner>(CaTpaOptions{.alpha = alpha});
  }
  if (name == "CA-TPA-R") {
    return std::make_unique<CaTpaPartitioner>(
        CaTpaOptions{.alpha = alpha, .enable_repair = true});
  }
  if (name == "FP-AMC") {
    return std::make_unique<FpAmcPartitioner>();
  }
  if (name == "DBF-FFD") {
    return std::make_unique<DemandFfdPartitioner>(analysis::DemandTest::kDbf);
  }
  if (name == "UD-TPA") {
    return std::make_unique<UdTpaPartitioner>();
  }
  if (name == "GE-FFD") {
    return std::make_unique<DemandFfdPartitioner>(analysis::DemandTest::kGe);
  }
  throw std::invalid_argument("make_scheme: unknown scheme '" + name + "'");
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) {
      out.push_back(s.substr(begin));
      break;
    }
    out.push_back(s.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

std::unique_ptr<Partitioner> make_catpa_spec(const std::string& spec,
                                             const std::string& inner,
                                             double alpha) {
  CaTpaOptions options{.alpha = alpha, .display_name = spec};
  for (const std::string& token : split(inner, ',')) {
    if (token.rfind("a=", 0) == 0) {
      std::size_t consumed = 0;
      options.alpha = std::stod(token.substr(2), &consumed);
      if (consumed != token.size() - 2) {
        throw std::invalid_argument("make_scheme_spec: bad alpha in '" + spec +
                                    "'");
      }
    } else if (token == "min") {
      options.probe_policy = analysis::ProbePolicy::kMinOverFeasible;
    } else if (token == "first") {
      options.probe_policy = analysis::ProbePolicy::kFirstFeasible;
    } else if (token == "max") {
      options.probe_policy = analysis::ProbePolicy::kMaxOverFeasible;
    } else if (token == "contrib") {
      options.order_by_contribution = true;
    } else if (token == "maxutil") {
      options.order_by_contribution = false;
    } else if (token == "nobal") {
      options.use_imbalance_control = false;
    } else if (token == "repair") {
      options.enable_repair = true;
    } else {
      throw std::invalid_argument("make_scheme_spec: unknown CA-TPA option '" +
                                  token + "' in '" + spec + "'");
    }
  }
  return std::make_unique<CaTpaPartitioner>(std::move(options));
}

}  // namespace

std::unique_ptr<Partitioner> make_scheme_spec(const std::string& spec,
                                              double alpha) {
  if (spec == "WFD/eq4") {
    return std::make_unique<ClassicPartitioner>(FitRule::kWorst,
                                                TestStrength::kBasicOnly);
  }
  if (spec == "FFD/eq4") {
    return std::make_unique<ClassicPartitioner>(FitRule::kFirst,
                                                TestStrength::kBasicOnly);
  }
  if (spec == "BFD/eq4") {
    return std::make_unique<ClassicPartitioner>(FitRule::kBest,
                                                TestStrength::kBasicOnly);
  }
  if (spec == "UD-TPA/eq4") {
    return std::make_unique<UdTpaPartitioner>(UdGate::kEq4);
  }
  if (spec == "UD-TPA/ge") {
    return std::make_unique<UdTpaPartitioner>(UdGate::kGe);
  }
  if (spec == "CA-TPA/noBal") {
    return std::make_unique<CaTpaPartitioner>(
        CaTpaOptions{.alpha = alpha, .use_imbalance_control = false});
  }
  if (spec.rfind("CA-TPA(", 0) == 0 && spec.back() == ')') {
    return make_catpa_spec(spec, spec.substr(7, spec.size() - 8), alpha);
  }
  return make_scheme(spec, alpha);
}

const std::vector<std::string>& registered_scheme_specs() {
  static const std::vector<std::string> specs = {
      "WFD",      "FFD",        "BFD",       "Hybrid",       "CA-TPA",
      "CA-TPA-R", "FP-AMC",     "DBF-FFD",   "UD-TPA",       "GE-FFD",
      "WFD/eq4",  "FFD/eq4",    "BFD/eq4",   "UD-TPA/eq4",   "UD-TPA/ge",
      "CA-TPA/noBal"};
  return specs;
}

PartitionerList make_scheme_list(const std::vector<std::string>& specs,
                                 double alpha) {
  PartitionerList out;
  out.reserve(specs.size());
  for (const std::string& spec : specs) {
    out.push_back(make_scheme_spec(spec, alpha));
  }
  return out;
}

}  // namespace mcs::partition
