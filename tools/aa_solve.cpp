// aa_solve — solve an AA instance file and print the assignment.
//
//   aa_solve INSTANCE.json [--algorithm alg2|alg2raw|alg2h|alg1|exact|bnb|
//                                       search|uu|ur|ru|rr]
//            [--format json|text] [--seed S] [--out FILE] [--metrics FILE|-]
//
// The default algorithm is alg2 (Algorithm 2 + per-server refinement, the
// paper's evaluated configuration). `search` adds local-search
// post-processing; `exact` brute-forces small instances. The randomized
// heuristics use --seed.
//
// --metrics enables the aa::obs observability session for the solve and
// writes the metrics blob (counters, phase timings, trace, approximation
// certificates; see docs/OBSERVABILITY.md) to FILE, or to stdout with "-".
// When sending metrics to stdout, route the solution elsewhere with --out
// so each stream stays a single parseable document.

#include <iostream>
#include <memory>
#include <sstream>

#include "aa/algorithm1.hpp"
#include "aa/branch_and_bound.hpp"
#include "aa/heterogeneous.hpp"
#include "aa/algorithm2.hpp"
#include "aa/exact.hpp"
#include "aa/heuristics.hpp"
#include "aa/local_search.hpp"
#include "aa/refine.hpp"
#include "obs/session.hpp"
#include "support/args.hpp"
#include "io/instance_io.hpp"
#include "support/table.hpp"

namespace {

using namespace aa;

struct Solution {
  core::Assignment assignment;
  double super_optimal = -1.0;  // Only set by the approximation algorithms.
};

Solution run(const std::string& algorithm, const core::Instance& instance,
             std::uint64_t seed) {
  support::Rng rng(seed);
  if (algorithm == "alg2") {
    core::SolveResult result = core::solve_algorithm2_refined(instance);
    return {std::move(result.assignment), result.super_optimal_utility};
  }
  if (algorithm == "alg2raw") {
    core::SolveResult result = core::solve_algorithm2(instance);
    return {std::move(result.assignment), result.super_optimal_utility};
  }
  if (algorithm == "alg1") {
    core::SolveResult result = core::solve_algorithm1_refined(instance);
    return {std::move(result.assignment), result.super_optimal_utility};
  }
  if (algorithm == "search") {
    const core::SolveResult start = core::solve_algorithm2_refined(instance);
    core::LocalSearchResult result =
        core::improve_local_search(instance, start.assignment);
    return {std::move(result.assignment), start.super_optimal_utility};
  }
  if (algorithm == "exact") {
    core::ExactResult result = core::solve_exact(instance);
    return {std::move(result.assignment), -1.0};
  }
  if (algorithm == "bnb") {
    core::BranchAndBoundResult result = core::solve_branch_and_bound(instance);
    if (!result.proven_optimal) {
      std::cerr << "aa_solve: warning: node budget hit; solution is the "
                   "best found, optimality unproven\n";
    }
    return {std::move(result.assignment), -1.0};
  }
  if (algorithm == "uu") return {core::heuristic_uu(instance), -1.0};
  if (algorithm == "ur") return {core::heuristic_ur(instance, rng), -1.0};
  if (algorithm == "ru") return {core::heuristic_ru(instance, rng), -1.0};
  if (algorithm == "rr") return {core::heuristic_rr(instance, rng), -1.0};
  throw std::runtime_error("unknown algorithm '" + algorithm + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::Args args(argc, argv,
                             {"algorithm", "format", "seed", "out", "metrics"});
    if (args.positional().size() != 1) {
      std::cerr << "usage: aa_solve INSTANCE.json [--algorithm alg2|alg2raw|"
                   "alg2h|alg1|exact|bnb|search|uu|ur|ru|rr] "
                   "[--format json|text] "
                   "[--seed S] [--out FILE] [--metrics FILE|-]\n";
      return 2;
    }
    const std::string metrics_path = args.get("metrics", "");
    std::unique_ptr<obs::Session> session;
    if (!metrics_path.empty()) session = std::make_unique<obs::Session>();
    const auto emit_metrics = [&] {
      if (session == nullptr) return;
      const std::string blob = session->to_json().dump(2) + "\n";
      if (metrics_path == "-") {
        std::cout << blob;
      } else {
        io::write_file(metrics_path, blob);
      }
    };
    const support::JsonValue document =
        support::json_parse(io::read_file(args.positional()[0]));
    const std::string algorithm = args.get("algorithm", "alg2");

    // Heterogeneous documents (a "capacities" array) route to the
    // heterogeneous extension; only alg2h and uu apply there.
    if (io::is_hetero_document(document)) {
      const core::HeteroInstance hetero =
          io::hetero_instance_from_json(document);
      core::Assignment assignment;
      double bound = -1.0;
      if (algorithm == "alg2" || algorithm == "alg2h") {
        core::SolveResult result = core::solve_algorithm2_hetero(hetero);
        bound = result.super_optimal_utility;
        assignment = std::move(result.assignment);
      } else if (algorithm == "uu") {
        assignment = core::heuristic_uu_hetero(hetero);
      } else {
        throw std::runtime_error(
            "heterogeneous instances support --algorithm alg2h or uu only");
      }
      const std::string error = core::check_assignment(hetero, assignment);
      if (!error.empty()) throw std::runtime_error(error);
      const double hetero_utility = core::total_utility(hetero, assignment);
      std::ostringstream out;
      out << "heterogeneous instance: " << hetero.num_servers()
          << " servers, " << hetero.num_threads() << " threads\n"
          << "total utility: " << hetero_utility << "\n";
      if (bound >= 0.0) {
        out << "pooled upper bound: " << bound << "\n";
      }
      const std::string out_path_h = args.get("out", "");
      if (out_path_h.empty()) {
        std::cout << out.str();
      } else {
        io::write_file(out_path_h, out.str());
      }
      emit_metrics();
      return 0;
    }

    const core::Instance instance = io::instance_from_json(document);
    const Solution solution =
        run(algorithm, instance,
            static_cast<std::uint64_t>(args.get_int("seed", 1)));
    core::require_valid(instance, solution.assignment);
    const double utility = core::total_utility(instance, solution.assignment);

    const std::string format = args.get("format", "text");
    std::string rendered;
    if (format == "json") {
      support::JsonValue rendered_json =
          io::assignment_to_json(instance, solution.assignment);
      rendered_json.set("algorithm", algorithm);
      if (solution.super_optimal >= 0.0) {
        rendered_json.set("super_optimal_utility", solution.super_optimal);
      }
      rendered = rendered_json.dump(2) + "\n";
    } else if (format == "text") {
      support::Table table({"thread", "server", "alloc", "utility"});
      for (std::size_t i = 0; i < instance.num_threads(); ++i) {
        table.add_row_numeric(
            {static_cast<double>(i),
             static_cast<double>(solution.assignment.server[i]),
             solution.assignment.alloc[i],
             instance.threads[i]->value(solution.assignment.alloc[i])},
            2);
      }
      std::ostringstream out;
      out << table.to_text() << "\ntotal utility: " << utility << "\n";
      if (solution.super_optimal >= 0.0) {
        out << "super-optimal bound: " << solution.super_optimal
            << "  (certified >= " << utility / solution.super_optimal
            << " of optimal)\n";
      }
      rendered = out.str();
    } else {
      throw std::runtime_error("unknown format '" + format + "'");
    }

    const std::string out_path = args.get("out", "");
    if (out_path.empty()) {
      std::cout << rendered;
    } else {
      io::write_file(out_path, rendered);
    }
    emit_metrics();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "aa_solve: " << error.what() << "\n";
    return 1;
  }
}
