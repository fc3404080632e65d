// aa_gen — generate a random AA instance as JSON.
//
//   aa_gen [--out FILE] [--dist uniform|normal|powerlaw|discrete]
//          [--servers M] [--capacity C] [--threads N] [--seed S]
//          [--alpha A] [--gamma G] [--theta T] [--mean MU] [--stddev SD]
//
// Defaults reproduce the paper's setting (m = 8, C = 1000). With no --out
// the document is written to stdout.

#include <iostream>

#include "support/args.hpp"
#include "io/instance_io.hpp"
#include "sim/workload.hpp"

namespace {

aa::support::DistributionKind parse_kind(const std::string& name) {
  using aa::support::DistributionKind;
  if (name == "uniform") return DistributionKind::kUniform;
  if (name == "normal") return DistributionKind::kNormal;
  if (name == "powerlaw") return DistributionKind::kPowerLaw;
  if (name == "discrete") return DistributionKind::kDiscrete;
  throw std::runtime_error("unknown distribution '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const aa::support::Args args(
        argc, argv,
        {"out", "dist", "servers", "capacity", "threads", "seed", "alpha",
         "gamma", "theta", "mean", "stddev"});

    aa::sim::WorkloadConfig config;
    config.dist.kind = parse_kind(args.get("dist", "uniform"));
    config.dist.alpha = args.get_double("alpha", 2.0);
    config.dist.gamma = args.get_double("gamma", 0.85);
    config.dist.theta = args.get_double("theta", 5.0);
    config.dist.mean = args.get_double("mean", 1.0);
    config.dist.stddev = args.get_double("stddev", 1.0);
    config.num_servers = args.get_count("servers", 8);
    config.capacity = args.get_int("capacity", 1000);
    const auto threads = static_cast<double>(args.get_int("threads", 40));
    config.beta = threads / static_cast<double>(config.num_servers);

    aa::support::Rng rng(
        static_cast<std::uint64_t>(args.get_int("seed", 1)));
    const aa::core::Instance instance =
        aa::sim::generate_instance(config, rng);

    const std::string document =
        aa::io::instance_to_json(instance).dump(2) + "\n";
    const std::string out = args.get("out", "");
    if (out.empty()) {
      std::cout << document;
    } else {
      aa::io::write_file(out, document);
      std::cerr << "wrote " << instance.num_threads() << " threads to " << out
                << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "aa_gen: " << error.what() << "\n";
    return 1;
  }
}
