#pragma once

// Metric-name registry: the single source of truth for every counter,
// phase-timer, trace-event and log-event name the observability layer
// records.
//
// Instrumentation sites must use these constants — `tools/aa_lint` (see
// docs/STATIC_ANALYSIS.md) rejects string literals passed to obs::count /
// obs::ScopedPhase / obs::instant anywhere under src/ or tools/, and
// cross-checks this table against the metric tables in
// docs/OBSERVABILITY.md in both directions: a name registered here but not
// documented fails, and a documented name that no longer exists here (or
// is never referenced from code) fails. To add a metric: declare the
// constant in the right section below, add it to the matching kAll*
// array, document it in docs/OBSERVABILITY.md, and use it.
//
// The `aa-lint-section:` comments are structural markers the linter keys
// on; keep each constant inside the section that matches how it is
// recorded (count → counters, ScopedPhase → timers, instant /
// span_ending_now → events).

#include <string_view>

namespace aa::obs::metric {

// aa-lint-section: counters
// Deterministic for a deterministic solve — golden-testable.

inline constexpr std::string_view kAlg1CandidateEvaluations =
    "alg1/candidate_evaluations";
inline constexpr std::string_view kAlg1FullPicks = "alg1/full_picks";
inline constexpr std::string_view kAlg1Solves = "alg1/solves";
inline constexpr std::string_view kAlg1UnfullPicks = "alg1/unfull_picks";
inline constexpr std::string_view kAlg2Solves = "alg2/solves";
inline constexpr std::string_view kAlg2ThreadsAssigned =
    "alg2/threads_assigned";
inline constexpr std::string_view kCertificateChecks = "certificate/checks";
inline constexpr std::string_view kCertificateFailures =
    "certificate/failures";
inline constexpr std::string_view kExactPartitionsExplored =
    "exact/partitions_explored";
inline constexpr std::string_view kExactSolves = "exact/solves";
inline constexpr std::string_view kExperimentDegenerateTrials =
    "experiment/degenerate_trials";
inline constexpr std::string_view kExperimentTrials = "experiment/trials";
inline constexpr std::string_view kHeuristicsRrSolves = "heuristics/rr_solves";
inline constexpr std::string_view kHeuristicsRuSolves = "heuristics/ru_solves";
inline constexpr std::string_view kHeuristicsUrSolves = "heuristics/ur_solves";
inline constexpr std::string_view kHeuristicsUuSolves = "heuristics/uu_solves";
inline constexpr std::string_view kObsCertificatesDropped =
    "obs/certificates_dropped";
inline constexpr std::string_view kObsLogDropped = "obs/log_dropped";
inline constexpr std::string_view kObsTraceDropped = "obs/trace_dropped";
inline constexpr std::string_view kRefineServersReoptimized =
    "refine/servers_reoptimized";
inline constexpr std::string_view kRefineSolves = "refine/solves";
inline constexpr std::string_view kSuperOptimalBisectIterations =
    "super_optimal/bisect_iterations";
inline constexpr std::string_view kSuperOptimalCalls = "super_optimal/calls";
inline constexpr std::string_view kSuperOptimalSharedThreads =
    "super_optimal/shared_threads";
inline constexpr std::string_view kSuperOptimalThreads =
    "super_optimal/threads";
inline constexpr std::string_view kSvcErrors = "svc/errors";
inline constexpr std::string_view kSvcFreshCandidates =
    "svc/fresh_candidates";
inline constexpr std::string_view kSvcInternalErrors = "svc/internal_errors";
inline constexpr std::string_view kSvcReplyFailures = "svc/reply_failures";
inline constexpr std::string_view kSvcShutdowns = "svc/shutdowns";
inline constexpr std::string_view kSvcWarmCertificateRejects =
    "svc/warm_certificate_rejects";

inline constexpr std::string_view kAllCounters[] = {
    kAlg1CandidateEvaluations,
    kAlg1FullPicks,
    kAlg1Solves,
    kAlg1UnfullPicks,
    kAlg2Solves,
    kAlg2ThreadsAssigned,
    kCertificateChecks,
    kCertificateFailures,
    kExactPartitionsExplored,
    kExactSolves,
    kExperimentDegenerateTrials,
    kExperimentTrials,
    kHeuristicsRrSolves,
    kHeuristicsRuSolves,
    kHeuristicsUrSolves,
    kHeuristicsUuSolves,
    kObsCertificatesDropped,
    kObsLogDropped,
    kObsTraceDropped,
    kRefineServersReoptimized,
    kRefineSolves,
    kSuperOptimalBisectIterations,
    kSuperOptimalCalls,
    kSuperOptimalSharedThreads,
    kSuperOptimalThreads,
    kSvcErrors,
    kSvcFreshCandidates,
    kSvcInternalErrors,
    kSvcReplyFailures,
    kSvcShutdowns,
    kSvcWarmCertificateRejects,
};

// aa-lint-section: timers
// Phase names recorded by obs::ScopedPhase (wall + thread-CPU ms).

inline constexpr std::string_view kPhaseAlg1Assign = "alg1/assign";
inline constexpr std::string_view kPhaseAlg1Solve = "alg1/solve";
inline constexpr std::string_view kPhaseAlg1SolveRefined =
    "alg1/solve_refined";
inline constexpr std::string_view kPhaseAlg2Assign = "alg2/assign";
inline constexpr std::string_view kPhaseAlg2Solve = "alg2/solve";
inline constexpr std::string_view kPhaseAlg2SolveRefined =
    "alg2/solve_refined";
inline constexpr std::string_view kPhaseExactSolve = "exact/solve";
inline constexpr std::string_view kPhaseExperimentRunPoint =
    "experiment/run_point";
inline constexpr std::string_view kPhaseLinearize = "linearize";
inline constexpr std::string_view kPhaseRefineReoptimize = "refine/reoptimize";
inline constexpr std::string_view kPhaseSuperOptimal = "super_optimal";
inline constexpr std::string_view kPhaseSvcBatch = "svc/batch";
inline constexpr std::string_view kPhaseSvcRecordCertificate =
    "svc/record_certificate";
inline constexpr std::string_view kPhaseSvcRemember = "svc/remember";
inline constexpr std::string_view kPhaseSvcSolve = "svc/solve";
inline constexpr std::string_view kPhaseSvcWarmCandidate =
    "svc/warm_candidate";

inline constexpr std::string_view kAllTimers[] = {
    kPhaseAlg1Assign,
    kPhaseAlg1Solve,
    kPhaseAlg1SolveRefined,
    kPhaseAlg2Assign,
    kPhaseAlg2Solve,
    kPhaseAlg2SolveRefined,
    kPhaseExactSolve,
    kPhaseExperimentRunPoint,
    kPhaseLinearize,
    kPhaseRefineReoptimize,
    kPhaseSuperOptimal,
    kPhaseSvcBatch,
    kPhaseSvcRecordCertificate,
    kPhaseSvcRemember,
    kPhaseSvcSolve,
    kPhaseSvcWarmCandidate,
};

// aa-lint-section: events
// Point marks and externally measured spans recorded straight onto the
// calling thread's trace ring via obs::instant / obs::span_ending_now.

inline constexpr std::string_view kEventSvcPathCached = "svc/path_cached";
inline constexpr std::string_view kEventSvcPathFull = "svc/path_full";
inline constexpr std::string_view kEventSvcPathWarm = "svc/path_warm";
inline constexpr std::string_view kEventSvcQueueWait = "svc/queue_wait";

inline constexpr std::string_view kAllEvents[] = {
    kEventSvcPathCached,
    kEventSvcPathFull,
    kEventSvcPathWarm,
    kEventSvcQueueWait,
};

// aa-lint-section: log_events
// Structured-log event names emitted through obs::log_event (obs/log.hpp).
// The log-registry lint check bans string literals at emission sites and
// cross-checks this table against the "### Log events" table in
// docs/OBSERVABILITY.md, both directions.

inline constexpr std::string_view kLogServeStart = "serve/start";
inline constexpr std::string_view kLogServeStop = "serve/stop";
inline constexpr std::string_view kLogSvcRequestError = "svc/request_error";
inline constexpr std::string_view kLogSvcSlowRequest = "svc/slow_request";
inline constexpr std::string_view kLogClientSlowRequest =
    "client/slow_request";

inline constexpr std::string_view kAllLogEvents[] = {
    kLogClientSlowRequest,
    kLogServeStart,
    kLogServeStop,
    kLogSvcRequestError,
    kLogSvcSlowRequest,
};

// aa-lint-section: end

}  // namespace aa::obs::metric
